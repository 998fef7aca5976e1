import json
import re
from dataclasses import replace

import numpy as np
import pytest

from recoverylab.errors import StorageError, ValidationError
from recoverylab.store import (
    Episode,
    EpisodeKind,
    Frame,
    Outcome,
    PhaseTag,
    dataset_stats,
    episode_to_dict,
    episode_from_dict,
    history_windows,
    obs_matrix,
    read_dataset,
    read_episode,
    slice_recovery_suffix,
    tag_pattern_valid,
    validate_episode,
    write_episode,
)
from recoverylab.world import ArmAction, BimanualAction, EnvMode, Observation, Pose2D

N, E, R = PhaseTag.NOMINAL, PhaseTag.ERROR, PhaseTag.RECOVERY


def make_obs(t: float) -> Observation:
    return Observation(
        proprio=tuple(float(t + i) * 0.01 for i in range(8)),
        object_feats=tuple(float(t - i) * 0.01 for i in range(14)),
        instruction_id=0,
    )


def make_action(t: float) -> BimanualAction:
    arm = ArmAction(target=Pose2D(0.1 + 0.001 * t, 0.2, 0.05), grip=min(1.0, 0.01 * t))
    return BimanualAction(left=arm, right=arm)


def make_episode(tags, kind=EpisodeKind.FAILURE_RECOVERY, outcome=Outcome.SUCCESS,
                 t_rec="auto", provenance=None, v=None):
    frames = tuple(
        Frame(t=i, obs=make_obs(i), action=make_action(i), phase=tag, v=v)
        for i, tag in enumerate(tags)
    )
    if t_rec == "auto":
        t_rec = next((i for i, tag in enumerate(tags) if tag is R), None)
    return Episode(
        episode_id="ep-test-000001",
        task_id="pick-place",
        instruction_id=0,
        env_mode=EnvMode.RANDOM,
        seed=1,
        error_type="E2",
        t_rec=t_rec,
        outcome=outcome,
        kind=kind,
        frames=frames,
        provenance=provenance or {},
    )


def recovery_tags(n_nom=4, n_err=3, n_rec=5, n_tail=2):
    return [N] * n_nom + [E] * n_err + [R] * n_rec + [N] * n_tail


# ---------------------------------------------------------------------------
# round trips and validation


def test_write_read_round_trip(cfg, tmp_path, recovery_episodes):
    episode = recovery_episodes[0]
    path = write_episode(episode, tmp_path)
    loaded = read_episode(path)
    assert loaded.episode_id == episode.episode_id
    assert loaded.kind == episode.kind
    assert loaded.t_rec == episode.t_rec
    assert len(loaded.frames) == len(episode.frames)
    for a, b in zip(loaded.frames, episode.frames):
        assert a.phase == b.phase
        assert np.allclose(a.obs.as_vector(), b.obs.as_vector(), atol=1e-7)


def test_reserialization_byte_stable(tmp_path, recovery_episodes):
    path = write_episode(recovery_episodes[0], tmp_path)
    first = path.read_bytes()
    again = write_episode(read_episode(path), tmp_path)
    assert again.read_bytes() == first


def test_invariant_t_rec_kind_mismatch():
    bad = make_episode(recovery_tags(), kind=EpisodeKind.PURE_FAILURE)  # t_rec set
    with pytest.raises(ValidationError):
        validate_episode(bad)


def test_invariant_nominal_success_all_nominal():
    bad = make_episode([N, N, E], kind=EpisodeKind.NOMINAL_SUCCESS, t_rec=None)
    with pytest.raises(ValidationError):
        validate_episode(bad)


def test_invariant_t_rec_points_at_first_recovery():
    bad = make_episode(recovery_tags(), t_rec=2)
    with pytest.raises(ValidationError):
        validate_episode(bad)


def test_invariant_label_range():
    bad = make_episode(recovery_tags(), v=1.5)
    with pytest.raises(ValidationError):
        validate_episode(bad)


def test_tag_grammar():
    assert tag_pattern_valid([N, N, N])
    assert tag_pattern_valid([N, E, E])
    assert tag_pattern_valid([N, E, R, R, N])
    assert tag_pattern_valid([E, R])
    assert not tag_pattern_valid([N, E, N])        # error must be contiguous to recovery
    assert not tag_pattern_valid([R, N])           # recovery needs an error prefix
    assert not tag_pattern_valid([N, R])
    assert not tag_pattern_valid([N, E, R, E])     # recovery is contiguous
    assert tag_pattern_valid([R, R, N], sliced=True)
    assert not tag_pattern_valid([N, R], sliced=True)


def test_truncated_file_reports_offset(tmp_path, recovery_episodes):
    path = write_episode(recovery_episodes[0], tmp_path)
    data = path.read_text()
    path.write_text(data[: len(data) // 2])
    with pytest.raises(StorageError, match="offset"):
        read_episode(path)


def test_unknown_schema_version(tmp_path, recovery_episodes):
    path = write_episode(recovery_episodes[0], tmp_path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(StorageError, match="schema_version"):
        read_episode(path)


def test_manifest_counts(tmp_path, recovery_episodes, expert_episodes):
    for ep in expert_episodes[:5] + recovery_episodes[:3]:
        write_episode(ep, tmp_path)
    stats = dataset_stats(tmp_path)
    assert stats.total == 8
    assert stats.by_kind["NominalSuccess"] == 5
    assert stats.by_kind["FailureRecovery"] == 3
    assert stats.by_error_type == {"E2": 3}


def test_manifest_file_mismatch(tmp_path, expert_episodes):
    path = write_episode(expert_episodes[0], tmp_path)
    path.unlink()
    with pytest.raises(StorageError, match="mismatch"):
        dataset_stats(tmp_path)


def test_read_dataset_rejects_tampered_episode(tmp_path, expert_episodes):
    # One changed digit keeps the JSON valid and the episode loadable, but
    # the file no longer matches the sha256 its manifest entry recorded.
    write_episode(expert_episodes[0], tmp_path)
    path = write_episode(expert_episodes[1], tmp_path)
    text = path.read_text()
    m = re.search(r'"x": -?0\.\d\d(\d)', text)
    digit = str((int(m.group(1)) + 1) % 10)
    path.write_text(text[: m.start(1)] + digit + text[m.end(1):])
    read_episode(path)  # still a valid episode on its own
    with pytest.raises(StorageError, match="sha256"):
        read_dataset(tmp_path)


def test_empty_dataset_stats(tmp_path):
    stats = dataset_stats(tmp_path)
    assert stats.total == 0
    assert stats.by_kind == {}


def test_manifest_tracks_many_writes(tmp_path, expert_episodes):
    episode = expert_episodes[0]
    for i in range(100):
        write_episode(replace(episode, episode_id=f"copy-{i:03d}", seed=10_000 + i), tmp_path)
    stats = dataset_stats(tmp_path)
    assert stats.total == 100
    assert len(list(tmp_path.glob("copy-*.json"))) == 100


# ---------------------------------------------------------------------------
# slicing


def test_slice_preserves_content():
    episode = make_episode(recovery_tags(n_nom=6, n_err=4, n_rec=7, n_tail=3))
    sliced = slice_recovery_suffix(episode)
    start = episode.t_rec
    assert len(sliced.frames) == len(episode.frames) - start
    for i, frame in enumerate(sliced.frames):
        original = episode.frames[start + i]
        assert frame.t == i
        assert frame.obs == original.obs
        assert frame.action == original.action
    assert sliced.provenance["history_reset_at"] == 0
    assert sliced.provenance["kind_detail"] == "ResetRecovery"
    assert sliced.t_rec == 0
    # original untouched
    assert episode.frames[0].t == 0 and episode.t_rec == start


def test_slice_t_rec_zero_boundary():
    episode = make_episode([R, R, N], provenance={"history_reset_at": 0})
    episode = replace(episode, t_rec=0)
    sliced = slice_recovery_suffix(episode)
    assert len(sliced.frames) == len(episode.frames)


def test_slice_rejects_pure_failure():
    episode = make_episode([N, E, E], kind=EpisodeKind.PURE_FAILURE, t_rec=None,
                           outcome=Outcome.FAILURE)
    with pytest.raises(ValidationError):
        slice_recovery_suffix(episode)


# ---------------------------------------------------------------------------
# history windows


def windows(episode, w):
    """(T, w, obs_dim) history windows of every frame."""
    return history_windows(obs_matrix(episode.frames), w).reshape(len(episode.frames), w, -1)


def valid_rows(window) -> int:
    return int(np.count_nonzero(np.any(window != 0.0, axis=1)))


def test_history_start_all_padding():
    episode = make_episode(recovery_tags())
    for ep in (episode, slice_recovery_suffix(episode)):
        window = windows(ep, 5)[0]
        assert valid_rows(window) == 0
        assert np.all(window == 0.0)


def test_history_window_arithmetic():
    episode = make_episode(recovery_tags(n_nom=10, n_err=3, n_rec=5, n_tail=2))
    w = 5
    t = w + 5
    flat = history_windows(obs_matrix(episode.frames), w)
    assert flat.shape == (len(episode.frames), w * len(episode.frames[0].obs.as_vector()))
    window = windows(episode, w)[t]
    assert valid_rows(window) == w
    for k in range(w):
        assert np.allclose(window[k], episode.frames[t - 1 - k].obs.as_vector())


def test_history_reset_marker_pads(cfg):
    episode = make_episode(recovery_tags(n_nom=6, n_err=4, n_rec=7, n_tail=3))
    sliced = slice_recovery_suffix(episode)
    window = windows(sliced, 5)[2]
    assert valid_rows(window) == 2
    # nothing before the slice leaks in
    pre_slice = {tuple(f.obs.as_vector()) for f in episode.frames[: episode.t_rec]}
    for k in range(2):
        assert tuple(window[k]) not in pre_slice


def test_history_raw_reaches_into_failure_prefix():
    episode = make_episode(recovery_tags(n_nom=6, n_err=4, n_rec=7, n_tail=3))
    t = episode.t_rec + 2  # within W of the error segment
    window = windows(episode, 5)[t]
    error_obs = {tuple(f.obs.as_vector()) for f in episode.frames if f.phase is E}
    assert any(tuple(row) in error_obs for row in window[: valid_rows(window)])


def test_float_formatting_nine_significant_digits(tmp_path, expert_episodes):
    path = write_episode(expert_episodes[0], tmp_path)
    payload = json.loads(path.read_text())
    x = payload["frames"][3]["obs"]["proprio"][0]
    assert float(f"{x:.9g}") == x
    # round trip through the 9-digit format is the identity on stored values
    assert episode_from_dict(payload).frames[3].obs.proprio[0] == x


def test_episode_to_dict_schema_fields(expert_episodes):
    data = episode_to_dict(expert_episodes[0])
    expected = {
        "schema_version", "episode_id", "task_id", "instruction_id", "env_mode",
        "seed", "error_type", "t_rec", "outcome", "kind", "frames", "provenance",
    }
    assert set(data.keys()) == expected
    assert set(data["frames"][0].keys()) == {"t", "obs", "action", "phase", "v"}
