import numpy as np
import pytest

from recoverylab.errors import ValidationError
from recoverylab.config import Config
from recoverylab.labeling import (
    label_dataset,
    label_episode,
    label_failure,
    label_recovery,
    label_success,
)
from recoverylab.store import EpisodeKind, PhaseTag, read_dataset, write_episode
from tests.test_store import make_episode

N, E, R = PhaseTag.NOMINAL, PhaseTag.ERROR, PhaseTag.RECOVERY
CFG = Config()


def decay_reference(progress, horizon, alpha, t):
    """Independent re-evaluation of the reliability-decay schedule."""
    import math

    return progress * math.pow(1.0 - t / horizon, alpha)


def test_label_success_all_ones(expert_episodes):
    labeled = label_success(expert_episodes[0])
    assert all(labeled.frames.v == 1.0)
    # input untouched
    assert all(np.isnan(expert_episodes[0].frames.v))


def test_labeling_shares_the_unchanged_columns(expert_episodes):
    episode = expert_episodes[0]
    labeled = label_success(episode)
    for name in ("obs", "actions", "phase"):
        assert np.shares_memory(getattr(labeled.frames, name), getattr(episode.frames, name))
    assert not np.shares_memory(labeled.frames.v, episode.frames.v)
    assert not labeled.frames.v.flags.writeable


def test_label_success_single_frame():
    episode = make_episode([N], kind=EpisodeKind.NOMINAL_SUCCESS, t_rec=None)
    assert label_success(episode).frames.v.tolist() == [1.0]


def test_label_success_wrong_kind(failure_episodes):
    with pytest.raises(ValidationError):
        label_success(failure_episodes[0])


def test_label_recovery_segment_pattern():
    episode = make_episode([N] * 10 + [E] * 10 + [R] * 20)
    labeled = label_recovery(episode)
    values = labeled.frames.v.tolist()
    assert values == [1.0] * 10 + [0.0] * 10 + [1.0] * 20


def test_label_recovery_t_rec_zero_all_ones():
    episode = make_episode([R, R, R, N], provenance={"history_reset_at": 0})
    labeled = label_recovery(episode)
    assert all(labeled.frames.v == 1.0)


def test_label_recovery_requires_error_frames():
    # An unsliced recovery episode without Error frames cannot be built.
    with pytest.raises(ValidationError, match="grammar"):
        label_recovery(make_episode([N, N, R, R], t_rec=2))


def test_label_failure_hand_evaluated_point():
    episode = make_episode([N] + [E] * 10, kind=EpisodeKind.PURE_FAILURE, t_rec=None)
    assert len(episode.frames) == 11  # horizon T = 10
    labeled = label_failure(episode, 0.8, CFG.with_overrides(alpha=3.0))
    values = labeled.frames.v.tolist()
    assert values[5] == pytest.approx(0.8 * 0.5 ** 3, abs=1e-12)  # = 0.1
    assert values[0] == pytest.approx(0.8)
    assert values[10] == 0.0


@pytest.mark.parametrize("progress,horizon,alpha", [
    (0.8, 10, 3.0), (0.33, 7, 1.0), (1.0, 25, 10.0), (0.05, 3, 2.5),
])
def test_label_failure_matches_independent_evaluation(progress, horizon, alpha):
    episode = make_episode([N] + [E] * horizon, kind=EpisodeKind.PURE_FAILURE,
                           t_rec=None)
    labeled = label_failure(episode, progress, CFG.with_overrides(alpha=alpha))
    for t, v in enumerate(labeled.frames.v):
        assert v == pytest.approx(decay_reference(progress, horizon, alpha, t), abs=1e-9)


def test_label_failure_monotone_decay(rng):
    for _ in range(10):
        horizon = int(rng.integers(2, 40))
        progress = float(rng.uniform(0, 1))
        alpha = float(rng.uniform(0.2, 12))
        episode = make_episode([N] + [E] * horizon, kind=EpisodeKind.PURE_FAILURE,
                               t_rec=None)
        values = label_failure(episode, progress, CFG.with_overrides(alpha=alpha)).frames.v.tolist()
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def test_alpha_ordering_pointwise():
    horizon = 12
    episode = make_episode([N] + [E] * horizon, kind=EpisodeKind.PURE_FAILURE,
                           t_rec=None)
    by_alpha = {
        alpha: label_failure(episode, 0.9, CFG.with_overrides(alpha=alpha)).frames.v.tolist()
        for alpha in (1.0, 3.0, 10.0)
    }
    for t in range(1, horizon):  # interior points: larger alpha decays harder
        assert by_alpha[1.0][t] > by_alpha[3.0][t] > by_alpha[10.0][t]


def test_label_failure_validation():
    episode = make_episode([E], kind=EpisodeKind.PURE_FAILURE, t_rec=None)
    with pytest.raises(ValidationError):
        label_failure(episode, 0.5, CFG)  # degenerate single frame
    two = make_episode([N, E], kind=EpisodeKind.PURE_FAILURE, t_rec=None)
    with pytest.raises(ValidationError):
        label_failure(two, 1.5, CFG)  # progress must arrive clamped


def test_alpha_default_is_three(cfg):
    assert cfg.alpha == 3.0
    episode = make_episode([N] + [E] * 10, kind=EpisodeKind.PURE_FAILURE, t_rec=None)
    assert label_failure(episode, 0.8, cfg).frames.v[5] == pytest.approx(0.8 * 0.5 ** 3, abs=1e-12)


def test_label_dataset_totality_and_idempotence(
    cfg, tmp_path, expert_episodes, recovery_episodes, failure_episodes,
    progress_model, reference_cluster,
):
    src = tmp_path / "raw"
    src.mkdir()
    mix = expert_episodes[:5] + recovery_episodes[:3] + failure_episodes[:2]
    for ep in mix:
        write_episode(ep, src)
    out_a = tmp_path / "labeled-a"
    out_b = tmp_path / "labeled-b"
    summary = label_dataset(src, out_a, progress_model, reference_cluster, cfg)
    label_dataset(src, out_b, progress_model, reference_cluster, cfg)

    assert sum(summary["episodes"].values()) == 10
    labeled = read_dataset(out_a)
    assert len(labeled) == 10
    for ep in labeled:
        for v in ep.frames.v:
            assert not np.isnan(v) and 0.0 <= v <= 1.0

    for pa in sorted(out_a.glob("*.json")):
        pb = out_b / pa.name
        assert pa.read_bytes() == pb.read_bytes()


def test_label_episode_dispatch(
    expert_episodes, recovery_episodes, failure_episodes, progress_model, reference_cluster, cfg
):
    success = label_episode(expert_episodes[0], progress_model, reference_cluster, cfg)
    assert all(success.frames.v == 1.0)
    rec = label_episode(recovery_episodes[0], progress_model, reference_cluster, cfg)
    assert set(rec.frames.v.tolist()) <= {0.0, 1.0}
    fail = label_episode(failure_episodes[0], progress_model, reference_cluster, cfg)
    assert fail.frames.v[-1] == 0.0
    assert fail.frames.v[0] >= 0.0
