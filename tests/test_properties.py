"""Property tests of the world step, the batch world against it, the
episode store and the pure-failure labeler."""

import json
import math
import tempfile
from dataclasses import replace
from itertools import count

import numpy as np
from hypothesis import example, given, settings, strategies as st

from recoverylab.config import Config
from recoverylab.labeling import label_failure
from recoverylab.policy import action_from_vector
from recoverylab.store import (
    Episode,
    EpisodeKind,
    Frames,
    PhaseTag,
    _float_texts,
    _round_tree,
    episode_to_dict,
    read_dataset,
    write_episode,
)
from recoverylab.world import (
    CLOSE_THRESHOLD,
    LEFT,
    NUM_OBJECT_SLOTS,
    OBS_DIM,
    RIGHT,
    EnvMode,
    Pose2D,
    WorldBatch,
    arm_reach,
    free_objects_within,
    get_task,
    observe,
    observe_batch,
    reset,
    step,
    step_batch,
    success_batch,
    success_check,
    task_registry,
    wrap_angle,
    wrap_angles,
)
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
        [loaded] = read_dataset(tmp)
        for name in ("obs", "actions", "v"):
            expected = nine_figures(getattr(episode.frames, name))
            assert np.array_equal(getattr(loaded.frames, name), expected, equal_nan=True), name
        assert np.array_equal(loaded.frames.phase, episode.frames.phase)
        assert (loaded.kind, loaded.outcome, loaded.t_rec) == (episode.kind, episode.outcome, episode.t_rec)
        assert write_episode(loaded, tmp).read_bytes() == first


# Where the 9-figure rounding or float repr changes form: signed zero,
# integral values, the switches to exponent form below 1e-4 and at 1e16 and
# above, and digits halfway at the ninth figure that carry into a new one.
edge_values = st.one_of(
    st.sampled_from((-0.0, 0.0, 1.0, -1.0, 1e-05, 0.0001, 9.9999999e-05, 9.9999999949e-05, 9.999999995e-05,
                     0.1234567885, 1.0000000005, 9.999999995, 999999999.5, 123456789012.0, 9999999995000000.0,
                     1e16, -1e16, 1.5e17, 1e300, 5e-324, 2.2250738585072014e-308)),
    st.floats(allow_nan=False, allow_infinity=False),
    reals,
)
thetas = st.one_of(st.sampled_from((-0.0, 1e-05, math.pi)), st.floats(-math.pi, math.pi, exclude_min=True))
unit = st.one_of(st.sampled_from((-0.0, 0.0, 1e-05, 1.0)), st.floats(0.0, 1.0))
provenance_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), edge_values,
              st.sampled_from(("frames", "Nominal", 'a "quoted"\nline'))),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(("frames", "t", "v")), inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def edge_episodes(draw):
    """A valid episode whose columns and provenance hold edge values, NaN
    (unlabeled) labels and provenance keys and values named ``frames``."""
    episode = draw(episodes())
    n = len(episode.frames)
    obs = draw(st.lists(st.lists(edge_values, min_size=OBS_DIM, max_size=OBS_DIM), min_size=n, max_size=n))
    arm = st.tuples(edge_values, edge_values, thetas, unit)
    actions = [left + right for left, right in draw(st.lists(st.tuples(arm, arm), min_size=n, max_size=n))]
    v = [math.nan if x is None else x for x in draw(st.lists(st.one_of(st.none(), unit), min_size=n, max_size=n))]
    provenance = draw(st.dictionaries(st.sampled_from(("frames", "note", "schedule")), provenance_values, max_size=3))
    return replace(episode, frames=Frames(obs=obs, actions=actions, phase=episode.frames.phase, v=v),
                   provenance=provenance)


@settings(PROPERTY, max_examples=60)
@given(edge_episodes())
def test_episode_text_equals_the_json_dumps_path(episode):
    # The reference: json's pure-Python indenting encoder over the rounded tree.
    expected = json.dumps(_round_tree(episode_to_dict(episode)), indent=1, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        assert write_episode(episode, tmp).read_text() == expected


# Floats whose nine-figure text is integral, has an exponent, or is subnormal.
text_edges = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**12, 10**12).map(float),
    st.floats(-1e-4, 1e-4),
    st.floats(-1e-307, 1e-307),
)


@PROPERTY
@given(st.lists(text_edges, min_size=1, max_size=12))
@example([0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 999999999.0, 1e9, -1234567890.0, 2.0**70,
          1e16, 0.0001, 9.99999999e-05, -1.5e-05, 123456789.5])
def test_float_texts_equal_repr_of_the_rounded_float(values):
    # The writer's float text skips the float round trip except for text
    # with an exponent; it must equal the round trip's repr.
    assert _float_texts(values) == [repr(float("%.9g" % x)) for x in values]


@PROPERTY
@given(st.integers(1, 60), st.floats(0.0, 1.0), st.floats(0.05, 20.0))
def test_failure_labels_in_unit_interval_with_exact_endpoints(horizon, progress, alpha):
    episode = make_episode([N] + [E] * horizon, kind=EpisodeKind.PURE_FAILURE, t_rec=None)
    v = label_failure(episode, progress, CFG.with_overrides(alpha=alpha)).frames.v
    assert np.all((0.0 <= v) & (v <= 1.0))
    assert v[0] == progress and v[-1] == 0.0


CFG = Config()
# Grips that sit on, just below and either side of the 0.5 close threshold.
grips = st.one_of(st.sampled_from((0.0, 0.4999, 0.5, 1.0)), st.floats(0.0, 1.0))
@st.composite
def world_runs(draw):
    """A reset task whose arms start on an object or at home, kept inside
    their reach, and action rows whose targets are objects' starting poses or
    points up to half a workspace beyond its edges, many out of reach."""
    task_id = draw(st.sampled_from(sorted(task_registry(CFG))))
    state = reset(CFG, task_id, draw(st.sampled_from(list(EnvMode))), draw(st.integers(0, 999)))
    spots = list(state.object_poses)
    arms = []
    for arm in (LEFT, RIGHT):
        start = draw(st.sampled_from([state.arm_poses[arm]] + spots))
        x_min, x_max, y_min, y_max = arm_reach(CFG, arm)
        arms.append(Pose2D(min(x_max, max(x_min, start.x)), min(y_max, max(y_min, start.y)), start.theta))
    far = st.tuples(st.floats(-1.0, 1.0), st.floats(-0.25, 0.75), st.floats(-math.pi, math.pi, exclude_min=True))
    target = st.one_of(st.sampled_from([(p.x, p.y, p.theta) for p in spots]), far)
    rows = draw(st.lists(st.tuples(target, grips, target, grips), min_size=1, max_size=40))
    return replace(state, arm_poses=tuple(arms)), [(*lt, lg, *rt, rg) for lt, lg, rt, rg in rows]


@PROPERTY
@given(world_runs())
def test_step_keeps_arms_inside_their_reach(run):
    state, rows = run
    for row in rows:
        state = step(CFG, state, row)
        for arm in (LEFT, RIGHT):
            x_min, x_max, y_min, y_max = arm_reach(CFG, arm)
            pose = state.arm_poses[arm]
            assert x_min <= pose.x <= x_max and y_min <= pose.y <= y_max


@PROPERTY
@given(world_runs())
def test_held_object_pose_equals_its_holders(run):
    state, rows = run
    for row in rows:
        state = step(CFG, state, row)
        for pose, holder in zip(state.object_poses, state.holders):
            if holder is not None:
                assert pose == state.arm_poses[holder]


def _tied_grasp():
    """Both stack-two objects on one spot under the right arm, which closes
    and then opens: a tie for the attach, then a release."""
    state = reset(CFG, "stack-two", EnvMode.CLEAN, 0)
    spot = state.object_poses[1]
    state = replace(state, arm_poses=(state.arm_poses[LEFT], spot), object_poses=(spot, spot))
    left = state.arm_poses[LEFT]
    hold = (left.x, left.y, left.theta, 0.0, spot.x, spot.y + 0.1, spot.theta)
    return state, [hold + (1.0,), hold + (0.0,)]


@PROPERTY
@given(world_runs())
@example(_tied_grasp())
def test_attach_and_release_rules(run):
    """Holders change only at grip crossings, a released object stays where
    it was, an attach takes the nearest unheld object within grasp_radius
    (ties to the later one, left arm first), and no arm holds two objects."""
    state, rows = run
    for row in rows:
        before, state = state, step(CFG, state, row)
        opened = [before.grips[a] >= CLOSE_THRESHOLD > state.grips[a] for a in (LEFT, RIGHT)]
        closed = [before.grips[a] < CLOSE_THRESHOLD <= state.grips[a] for a in (LEFT, RIGHT)]
        for i, (was, now) in enumerate(zip(before.holders, state.holders)):
            if was != now:
                assert was is None or opened[was]
                assert now is None or closed[now]
            if was is not None and now is None:
                assert state.object_poses[i] == before.object_poses[i]
        free = [h is None or opened[h] for h in before.holders]
        for arm in (LEFT, RIGHT):
            assert state.holders.count(arm) <= 1
            if not closed[arm]:
                continue
            grip = state.arm_poses[arm]
            dist = {j: before.object_poses[j].distance(grip) for j, ok in enumerate(free) if ok}
            near = [j for j, d in dist.items() if d <= CFG.grasp_radius]
            if not near:
                assert arm not in state.holders
                continue
            taken = state.holders.index(arm)
            assert max(near, key=lambda j: (-dist[j], j)) == taken
            free[taken] = False


def _release_at_goal():
    """The pick-place block held by the right arm at its goal, then let go."""
    state = reset(CFG, "pick-place", EnvMode.CLEAN, 0)
    goal = get_task(CFG, "pick-place").objectives[0].destination
    state = replace(state, arm_poses=(state.arm_poses[LEFT], goal), grips=(0.0, 1.0), object_poses=(goal,),
                    holders=(RIGHT,))
    left = state.arm_poses[LEFT]
    hold = (left.x, left.y, left.theta, 0.0, goal.x, goal.y, goal.theta)
    return state, [hold + (1.0,), hold + (0.0,), hold + (0.0,)]


@PROPERTY
@given(st.lists(world_runs(), min_size=1, max_size=4))
@example([_release_at_goal()])
def test_success_begins_only_at_a_release(runs):
    """On a batch step that releases none of a row's held objects, the row's
    success_batch does not turn True: an unheld object never moves."""
    batch = WorldBatch.of(CFG, [state for state, _ in runs])
    succeeded = success_batch(CFG, batch)
    for t in range(min(len(rows) for _, rows in runs)):
        before, batch = batch, step_batch(CFG, batch, [rows[t] for _, rows in runs])
        released = ((before.holders >= 0) & (batch.holders < 0)).any(axis=1)
        now = success_batch(CFG, batch)
        assert not np.any(now & ~succeeded & ~released)
        succeeded = now


def test_a_release_at_the_goal_begins_success():
    # The example above turns success True, at the release.
    state, rows = _release_at_goal()
    succeeded = [success_check(CFG, state)]
    for row in rows:
        state = step(CFG, state, row)
        succeeded.append(success_check(CFG, state))
    assert succeeded == [False, False, True, True]


def _state_columns(state) -> tuple:
    """A state's arm poses, grips and object poses as float64 bytes, and its
    holders with -1 for none: the batch world's layout of one row."""
    return (np.array([(p.x, p.y, p.theta) for p in state.arm_poses]).tobytes(),
            np.array(state.grips, dtype=float).tobytes(),
            np.array([(p.x, p.y, p.theta) for p in state.object_poses]).tobytes(),
            [-1 if h is None else h for h in state.holders])


def _row_columns(batch, k: int) -> tuple:
    m = int(batch.present[k].sum())
    return batch.arms[k].tobytes(), batch.grips[k].tobytes(), batch.objects[k, :m].tobytes(), batch.holders[k, :m].tolist()


def _assert_rows_are_the_states(cfg, batch, states) -> None:
    obs, succeeded = observe_batch(batch), success_batch(cfg, batch)
    near = {r: free_objects_within(batch, np.full(len(batch), r)) for r in (cfg.grasp_radius, cfg.approach_standoff)}
    for k, state in enumerate(states):
        assert _row_columns(batch, k) == _state_columns(state)
        assert batch[k] == state
        assert obs[k].tobytes() == observe(state).tobytes()
        assert succeeded[k] == success_check(cfg, state)
        for r, mask in near.items():
            free = [i < len(state.holders) and state.holders[i] is None for i in range(NUM_OBJECT_SLOTS)]
            assert mask[k].tolist() == [[free[i] and state.object_poses[i].distance(state.arm_poses[arm]) <= r
                                         for i in range(NUM_OBJECT_SLOTS)] for arm in (LEFT, RIGHT)]


def _lockstep(cfg, runs) -> None:
    """Step each run's state under its rows, alone and in one batch, and
    compare after every step; a run whose rows are spent leaves the batch."""
    states = {i: state for i, (state, _) in enumerate(runs)}
    live = list(states)
    batch = WorldBatch.of(cfg, list(states.values()))
    for t in count():
        _assert_rows_are_the_states(cfg, batch, [states[i] for i in live])
        keep = [j for j, i in enumerate(live) if t < len(runs[i][1])]
        if not keep:
            return
        live = [live[j] for j in keep]
        rows = [runs[i][1][t] for i in live]
        batch = step_batch(cfg, batch.take(keep), rows)
        for i, row in zip(live, rows):
            states[i] = step(cfg, states[i], row)


@PROPERTY
@given(st.lists(world_runs(), min_size=2, max_size=5))
@example([_tied_grasp(), _tied_grasp()])
def test_batch_world_steps_as_the_scalar_world(runs):
    """Every step of the batch world gives each row the scalar world's poses,
    grips, holders, observation, success and distances, bit for bit."""
    _lockstep(CFG, runs)


def test_batch_distances_take_math_hypots_side_of_a_threshold():
    # For these offsets np.hypot gives one ulp more than math.hypot, and each
    # threshold is math.hypot's value: the scalar world counts them inside.
    state = reset(CFG, "pick-place", EnvMode.CLEAN, 0)
    goal = get_task(CFG, "pick-place").objectives[0].destination
    resting = Pose2D(-0.078701, 0.041445, 0.0)
    arm = Pose2D(0.388444, 0.047306, 0.0)
    obj = state.object_poses[0]
    goal_radius, grasp_radius = resting.distance(goal), obj.distance(arm)
    assert np.hypot(resting.x - goal.x, resting.y - goal.y) > goal_radius
    assert np.hypot(obj.x - arm.x, obj.y - arm.y) > grasp_radius
    cfg = CFG.with_overrides(goal_radius=goal_radius, grasp_radius=grasp_radius, approach_standoff=grasp_radius)
    at_goal = replace(state, object_poses=(resting,))
    at_object = replace(state, arm_poses=(state.arm_poses[LEFT], arm))
    assert success_check(cfg, at_goal)
    batch = WorldBatch.of(cfg, [at_goal, at_object])
    assert success_batch(cfg, batch).tolist() == [True, False]
    assert free_objects_within(batch, np.array([0.0, grasp_radius]))[1, RIGHT, 0]
    # The right arm closes where it stands, at the grasp radius: it attaches.
    left = state.arm_poses[LEFT]
    close = (left.x, left.y, left.theta, 0.0, arm.x, arm.y, arm.theta, 1.0)
    assert step(cfg, at_object, close).holders == (RIGHT,)
    _lockstep(cfg, [(at_goal, [close]), (at_object, [close])])


# The wrap points, their neighbours on both sides, zeros and magnitudes
# past 3 pi, where wrap_angles hands over to math.remainder.
WRAP_POINTS = tuple(
    float(x) for k in (1, 2, 3) for sign in (1.0, -1.0) for point in (sign * k * math.pi,)
    for x in (point, np.nextafter(point, -np.inf), np.nextafter(point, np.inf))
) + (0.0, -0.0, 3 * math.pi + 1e-9, -3 * math.pi - 1e-9, 10.0, -10.0, 1e3, -1e17, 1e300)


def test_wrap_angles_on_the_wrap_points():
    expected = np.array([wrap_angle(x) for x in WRAP_POINTS])
    assert wrap_angles(np.array(WRAP_POINTS)).tobytes() == expected.tobytes()


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from(WRAP_POINTS), st.floats(-4 * math.pi, 4 * math.pi),
                          st.floats(allow_nan=False, allow_infinity=False)), min_size=1, max_size=12))
def test_wrap_angles_is_wrap_angle_bit_for_bit(values):
    expected = np.array([wrap_angle(x) for x in values])
    assert wrap_angles(np.array(values)).tobytes() == expected.tobytes()


WORKSPACE = (CFG.workspace_x_min, CFG.workspace_x_max, CFG.workspace_y_min, CFG.workspace_y_max)
# The wrap points and their multiples, the exact bounds, and magnitudes up to 1e3.
vector_entries = st.one_of(
    st.sampled_from((math.pi, -math.pi, 2 * math.pi, -2 * math.pi, 3 * math.pi, -3 * math.pi, *WORKSPACE, 1.0)),
    st.floats(-1e3, 1e3),
)


def _clamped_row(vec) -> tuple[float, ...]:
    """The per-element rule: x, y and grip clipped to their bounds, theta wrapped."""
    x_min, x_max, y_min, y_max = WORKSPACE
    expected = []
    for x, y, theta, grip in (vec[:4], vec[4:]):
        expected += (min(x_max, max(x_min, x)), min(y_max, max(y_min, y)), wrap_angle(theta), min(1.0, max(0.0, grip)))
    return tuple(expected)


@PROPERTY
@given(st.lists(st.lists(vector_entries, min_size=8, max_size=8), min_size=1, max_size=6))
def test_action_from_vector_clips_and_wraps_each_element(vecs):
    # One (8,) vector gives its row; an (M, 8) stack gives the array of its rows.
    rows = action_from_vector(CFG, np.array(vecs))
    assert rows.dtype == np.float64
    assert [tuple(row) for row in rows.tolist()] == [_clamped_row(vec) for vec in vecs]
    for vec, row in zip(vecs, rows):
        assert action_from_vector(CFG, np.array(vec)).tobytes() == row.tobytes()

