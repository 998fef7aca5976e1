"""Property tests of the episode store and the pure-failure labeler."""

import math
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from recoverylab.labeling import LabelConfig, label_failure
from recoverylab.store import (
    Episode,
    EpisodeKind,
    Frames,
    Outcome,
    PhaseTag,
    read_episode,
    write_episode,
)
from recoverylab.world import OBS_DIM, EnvMode
from tests.test_store import make_episode

# Bounded and derandomized, so every run of the suite checks the same examples.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

N, E, R = PhaseTag.NOMINAL, PhaseTag.ERROR, PhaseTag.RECOVERY

reals = st.floats(-10.0, 10.0, allow_nan=False)
labels = st.one_of(st.none(), st.floats(0.0, 1.0))


@st.composite
def frame_rows(draw, n: int):
    """``n`` rows of observations, actions and labels the package could write."""
    obs = draw(st.lists(st.lists(reals, min_size=OBS_DIM, max_size=OBS_DIM), min_size=n, max_size=n))
    arm = st.tuples(reals, reals, st.floats(-math.pi, math.pi, exclude_min=True), st.floats(0.0, 1.0))
    actions = [left + right for left, right in draw(st.lists(st.tuples(arm, arm), min_size=n, max_size=n))]
    v = [math.nan if x is None else x for x in draw(st.lists(labels, min_size=n, max_size=n))]
    return obs, actions, v


@st.composite
def episodes(draw):
    """A valid episode of any kind, with random columns."""
    kind = draw(st.sampled_from(list(EpisodeKind)))
    counts = [draw(st.integers(lo, 6)) for lo in (0, 1, 1, 0)]  # Nominal, Error, Recovery, Nominal
    if kind is EpisodeKind.NOMINAL_SUCCESS:
        tags = [N] * (counts[0] + 1)
    elif kind is EpisodeKind.PURE_FAILURE:
        tags = [N] * counts[0] + [E] * counts[1]
    else:
        tags = [N] * counts[0] + [E] * counts[1] + [R] * counts[2] + [N] * counts[3]
    obs, actions, v = draw(frame_rows(len(tags)))
    return Episode(
        episode_id="prop-000001",
        task_id="pick-place",
        instruction_id=0,
        env_mode=EnvMode.RANDOM,
        seed=1,
        error_type=None if kind is EpisodeKind.NOMINAL_SUCCESS else "E2",
        t_rec=tags.index(R) if R in tags else None,
        outcome=Outcome.FAILURE if kind is EpisodeKind.PURE_FAILURE else Outcome.SUCCESS,
        kind=kind,
        frames=Frames(obs=obs, actions=actions, phase=[tag.value for tag in tags], v=v),
    )


def nine_figures(column: np.ndarray) -> np.ndarray:
    return np.vectorize(lambda x: float(f"{x:.9g}"), otypes=[float])(column)


@PROPERTY
@given(episodes())
def test_store_round_trip_is_identity_at_nine_figures(episode):
    with tempfile.TemporaryDirectory() as tmp:
        path = write_episode(episode, tmp)
        first = path.read_bytes()
        loaded = read_episode(path)
        for name in ("obs", "actions", "v"):
            expected = nine_figures(getattr(episode.frames, name))
            assert np.array_equal(getattr(loaded.frames, name), expected, equal_nan=True), name
        assert np.array_equal(loaded.frames.phase, episode.frames.phase)
        assert (loaded.kind, loaded.outcome, loaded.t_rec) == (episode.kind, episode.outcome, episode.t_rec)
        assert write_episode(loaded, tmp).read_bytes() == first


@PROPERTY
@given(st.integers(1, 60), st.floats(0.0, 1.0), st.floats(0.05, 20.0))
def test_failure_labels_in_unit_interval_with_exact_endpoints(horizon, progress, alpha):
    episode = make_episode([N] + [E] * horizon, kind=EpisodeKind.PURE_FAILURE, t_rec=None,
                           outcome=Outcome.FAILURE)
    v = label_failure(episode, progress, LabelConfig(alpha=alpha)).frames.v
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert v[0] == progress and v[-1] == 0.0
