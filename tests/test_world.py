import math

import numpy as np
import pytest

from recoverylab.errors import ConfigError, InputError
from recoverylab.world import (
    EnvMode,
    GRIP_CLOSED,
    GRIP_OPEN,
    LEFT,
    OBS_DIM,
    PROPRIO_DIM,
    Pose2D,
    RIGHT,
    get_task,
    objective_satisfied,
    observe,
    reset,
    step,
    success_check,
    wrap_angle,
)
from dataclasses import replace


def arm_row(pose, grip):
    return (pose.x, pose.y, pose.theta, grip)


def hold(state):
    return arm_row(state.arm_poses[LEFT], state.grips[LEFT]) + arm_row(state.arm_poses[RIGHT], state.grips[RIGHT])


def act(state, arm, target=None, grip=None):
    halves = [arm_row(state.arm_poses[i], state.grips[i]) for i in (LEFT, RIGHT)]
    halves[arm] = arm_row(
        target if target is not None else state.arm_poses[arm],
        state.grips[arm] if grip is None else grip,
    )
    return halves[LEFT] + halves[RIGHT]


def test_theta_always_wrapped():
    for theta in (4.0, -4.0, math.pi, -math.pi, 3 * math.pi, 0.0):
        p = Pose2D(0.0, 0.1, theta)
        assert -math.pi < p.theta <= math.pi


def test_reset_clean_deterministic(cfg):
    a = reset(cfg, "pick-place", EnvMode.CLEAN, 7)
    b = reset(cfg, "pick-place", EnvMode.CLEAN, 7)
    assert a == b


def test_reset_random_seed_sensitivity(cfg):
    a = reset(cfg, "pick-place", EnvMode.RANDOM, 1)
    b = reset(cfg, "pick-place", EnvMode.RANDOM, 2)
    assert a.object_poses[0] != b.object_poses[0]
    # and fully determined by the seed
    assert a == reset(cfg, "pick-place", EnvMode.RANDOM, 1)


def test_reset_stack_two_canonical(cfg):
    state = reset(cfg, "stack-two", EnvMode.CLEAN, 0)
    assert len(state.object_poses) == 2
    assert state.holders == (None, None)


def test_reset_unknown_task(cfg):
    with pytest.raises(ConfigError):
        reset(cfg, "juggle-five", EnvMode.CLEAN, 0)


def test_step_fixed_point(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    nxt = step(cfg, state, hold(state))
    assert nxt.arm_poses == state.arm_poses
    assert nxt.grips == state.grips


def test_step_bounded_motion(cfg, rng):
    state = reset(cfg, "pick-place", EnvMode.RANDOM, 3)
    limit = cfg.v_max * cfg.dt + 1e-12
    for _ in range(60):
        tx, ty = rng.uniform(-0.5, 0.5), rng.uniform(0.0, 0.5)
        action = act(state, RIGHT, target=Pose2D(tx, ty, rng.uniform(-3, 3)))
        nxt = step(cfg, state, action)
        for arm in (LEFT, RIGHT):
            assert abs(nxt.arm_poses[arm].x - state.arm_poses[arm].x) <= limit
            assert abs(nxt.arm_poses[arm].y - state.arm_poses[arm].y) <= limit
            dth = abs(wrap_angle(nxt.arm_poses[arm].theta - state.arm_poses[arm].theta))
            assert dth <= cfg.omega_max * cfg.dt + 1e-12
        state = nxt


def test_grasp_within_radius(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    obj = state.object_poses[0]
    near = Pose2D(obj.x + cfg.grasp_radius * 0.6, obj.y, obj.theta)
    state = replace(state, arm_poses=(state.arm_poses[LEFT], near))
    nxt = step(cfg, state, act(state, RIGHT, grip=GRIP_CLOSED))
    assert nxt.holders[0] == RIGHT
    # held object tracks the holder exactly
    assert nxt.object_poses[0] == nxt.arm_poses[RIGHT]


def test_grasp_outside_radius_misses(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    obj = state.object_poses[0]
    far = Pose2D(obj.x + cfg.grasp_radius * 3.0, obj.y, obj.theta)
    state = replace(state, arm_poses=(state.arm_poses[LEFT], far))
    nxt = step(cfg, state, act(state, RIGHT, grip=GRIP_CLOSED))
    assert nxt.holders[0] is None


def test_release_freezes_object(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    obj = state.object_poses[0]
    state = replace(state, arm_poses=(state.arm_poses[LEFT], obj))
    held = step(cfg, state, act(state, RIGHT, grip=GRIP_CLOSED))
    assert held.holders[0] == RIGHT
    lifted = step(cfg, held, act(held, RIGHT, target=Pose2D(obj.x, obj.y + 0.2, obj.theta)))
    drop_pose = lifted.object_poses[0]
    released = step(cfg, lifted, act(lifted, RIGHT, grip=GRIP_OPEN))
    assert released.holders[0] is None
    assert released.object_poses[0] == drop_pose  # frozen at the release point


def test_no_crossing_no_attach(cfg):
    # Grip already closed: moving within range must not attach.
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    obj = state.object_poses[0]
    state = replace(
        state,
        arm_poses=(state.arm_poses[LEFT], Pose2D(obj.x, obj.y, obj.theta)),
        grips=(GRIP_OPEN, GRIP_CLOSED),
    )
    nxt = step(cfg, state, act(state, RIGHT, grip=GRIP_CLOSED))
    assert nxt.holders[0] is None


def test_attachment_exclusivity(cfg):
    # Both arms close on the same object in one step: exactly one holder.
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    obj = state.object_poses[0]
    state = replace(state, arm_poses=(obj, obj))
    nxt = step(cfg, state, arm_row(obj, GRIP_CLOSED) + arm_row(obj, GRIP_CLOSED))
    assert nxt.holders.count(None) == len(nxt.holders) - 1


def test_step_rejects_non_finite(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    with pytest.raises(InputError):
        step(cfg, state, act(state, RIGHT, target=Pose2D(0.1, 0.1), grip=float("nan")))
    with pytest.raises(InputError):
        step(cfg, state, (float("inf"),) + hold(state)[1:])
    with pytest.raises(InputError):
        step(cfg, state, hold(state)[:7])


def test_observe_pure_and_deterministic(cfg):
    state = reset(cfg, "pick-place", EnvMode.RANDOM, 9)
    a = observe(state)
    b = observe(state)
    assert np.array_equal(a, b)
    assert len(a) == OBS_DIM
    assert np.all(np.isfinite(a))


def test_observe_translation_invariant_object_feats(cfg):
    state = reset(cfg, "pick-place", EnvMode.RANDOM, 4)
    dx, dy = 0.03, -0.05

    def shift(p):
        return Pose2D(p.x + dx, p.y + dy, p.theta)

    shifted = replace(
        state,
        arm_poses=tuple(shift(p) for p in state.arm_poses),
        object_poses=tuple(shift(p) for p in state.object_poses),
    )
    assert observe(shifted)[PROPRIO_DIM:] == pytest.approx(observe(state)[PROPRIO_DIM:])


def test_observe_grip_projection(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    state = replace(state, grips=(0.25, 0.75))
    proprio = observe(state)[:PROPRIO_DIM]
    assert proprio[3] == 0.25 and proprio[7] == 0.75


def test_success_check_cases(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    assert not success_check(cfg, state)
    goal = Pose2D(-0.06, cfg.table_y, 0.0)
    at_goal = replace(state, object_poses=(goal,))
    assert success_check(cfg, at_goal)
    held_at_goal = replace(at_goal, holders=(RIGHT,))
    assert not success_check(cfg, held_at_goal)  # must be released
    with pytest.raises(ConfigError):
        success_check(cfg, replace(state, task_id="juggle-five"))


def test_success_check_does_not_mutate(cfg):
    state = reset(cfg, "stack-two", EnvMode.RANDOM, 2)
    before = state
    success_check(cfg, state)
    observe(state)
    assert state == before


def test_trajectory_determinism(cfg, rng):
    seqs = []
    for _ in range(2):
        state = reset(cfg, "bimanual-handover", EnvMode.RANDOM, 11)
        r = np.random.default_rng(77)
        states = [state]
        for _ in range(30):
            tx, ty = r.uniform(-0.5, 0.5), r.uniform(0.0, 0.5)
            state = step(cfg, state, act(state, LEFT, target=Pose2D(tx, ty, 0.0), grip=r.uniform(0, 1)))
            states.append(state)
        seqs.append(states)
    assert seqs[0] == seqs[1]


def test_transfer_objective_after_handoff(cfg):
    # The hand-off drop zone is resting height at x=0: inside the right arm's
    # x-reach, below its y-reach margin.  The right arm holding the object
    # satisfies the transfer too; the left arm holding it does not.
    state = reset(cfg, "bimanual-handover", EnvMode.CLEAN, 0)
    transfer = get_task(cfg, "bimanual-handover").objectives[0]
    at_handoff = Pose2D(0.0, cfg.table_y, 0.0)

    def with_object(pose, holder):
        return replace(state, object_poses=(pose,), holders=(holder,))

    assert objective_satisfied(cfg, with_object(at_handoff, None), transfer)
    assert objective_satisfied(cfg, with_object(Pose2D(0.2, cfg.lift_y), RIGHT), transfer)
    assert not objective_satisfied(cfg, with_object(at_handoff, LEFT), transfer)
    assert not objective_satisfied(cfg, with_object(Pose2D(-0.3, cfg.table_y), None), transfer)
