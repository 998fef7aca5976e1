import pytest
from dataclasses import replace

from recoverylab.errors import InputError, PlanningError, UnrecoverableState
from recoverylab.faults import PlannerActor
from recoverylab.planner import (
    CORRECTIVE_PHASES,
    PlanPhase,
    plan_nominal,
    plan_recovery,
)
from recoverylab.world import (
    EnvMode,
    GRIP_CLOSED,
    LEFT,
    PROPRIO_DIM,
    Pose2D,
    RIGHT,
    observe,
    reset,
    step,
    success_check,
)

TASKS = ("pick-place", "stack-two", "bimanual-handover")


def follower(cfg, state, plan):
    """A PlannerActor of ``plan`` begun on ``state``."""
    actor = PlannerActor(plan)
    actor.begin(cfg, state)
    return actor


def act(actor, state):
    return actor.act(state, observe(state))


def execute(cfg, state, plan, max_steps=None):
    actor = follower(cfg, state, plan)
    steps = 0
    budget = max_steps or cfg.plan_max_steps
    while steps < budget:
        action = act(actor, state)
        if actor.exhausted:
            break
        state = step(cfg, state, action)
        steps += 1
        if success_check(cfg, state):
            break
    return state, steps


@pytest.mark.parametrize("task_id", TASKS)
def test_nominal_plan_succeeds_clean(cfg, task_id):
    state = reset(cfg, task_id, EnvMode.CLEAN, 0)
    plan = plan_nominal(cfg, state)
    final, duration = execute(cfg, state, plan)
    assert success_check(cfg, final)
    assert 0 < duration <= cfg.plan_max_steps


def test_nominal_clean_100_percent_over_50_seeds(cfg):
    for seed in range(50):
        state = reset(cfg, "pick-place", EnvMode.CLEAN, seed)
        final, _ = execute(cfg, state, plan_nominal(cfg, state))
        assert success_check(cfg, final)


@pytest.mark.parametrize("task_id", TASKS)
def test_nominal_random_seeds(cfg, task_id):
    wins = 0
    for seed in range(20):
        state = reset(cfg, task_id, EnvMode.RANDOM, seed)
        final, _ = execute(cfg, state, plan_nominal(cfg, state))
        wins += success_check(cfg, final)
    assert wins >= 19  # >= 95 percent


def test_plan_deterministic(cfg):
    state = reset(cfg, "pick-place", EnvMode.RANDOM, 5)
    assert plan_nominal(cfg, state) == plan_nominal(cfg, state)


def test_plan_rejects_out_of_workspace_object(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    # Past the workspace's right edge and below its floor, yet inside the
    # right arm's reach slack: only the workspace rule rejects these.
    for pose in (Pose2D(0.52, 0.02), Pose2D(0.3, -0.01)):
        with pytest.raises(PlanningError, match="outside the workspace"):
            plan_nominal(cfg, replace(state, object_poses=(pose,)))
    # object parked where the assigned right arm cannot reach
    unreachable = replace(state, object_poses=(Pose2D(-0.4, 0.02),))
    with pytest.raises(PlanningError, match="out of reach"):
        plan_nominal(cfg, unreachable)


def test_next_action_phase_semantics(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    plan = plan_nominal(cfg, state)
    first = act(follower(cfg, state, plan), state)
    # Approach phase: right arm heads for the standoff above the object, open.
    obj = state.object_poses[0]
    assert first[4] == pytest.approx(obj.x)
    assert first[5] == pytest.approx(obj.y + cfg.approach_standoff)
    assert first[7] == 0.0
    # Idle arm holds its pose and grip.
    left = state.arm_poses[LEFT]
    assert first[:4] == (left.x, left.y, left.theta, state.grips[LEFT])


def test_grasp_phase_commands_close_after_dwell(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    actor = follower(cfg, state, plan_nominal(cfg, state))
    saw_closed_grasp = False
    for _ in range(cfg.plan_max_steps):
        action = act(actor, state)
        if actor.exhausted:
            break
        if actor.step.phase is PlanPhase.GRASP and action[7] == GRIP_CLOSED:
            saw_closed_grasp = True
        state = step(cfg, state, action)
        if success_check(cfg, state):
            break
    assert saw_closed_grasp


def test_phase_advances_at_target(cfg):
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    plan = plan_nominal(cfg, state)
    actor = follower(cfg, state, plan)
    act(actor, state)
    assert actor.step is plan[0]
    # Teleport the arm onto the first phase target: the planner must advance.
    target = plan[0].target
    at_target = replace(state, arm_poses=(state.arm_poses[LEFT], target))
    act(actor, at_target)
    assert actor.step is not plan[0]


def test_exhausted_plan_signals(cfg):
    # Once no step is left the planner sets ``exhausted``, acts on no step
    # and holds its pose, frame after frame.
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    actor = follower(cfg, state, plan_nominal(cfg, state))
    for _ in range(cfg.plan_max_steps + 50):
        action = act(actor, state)
        if actor.exhausted:
            break
        state = step(cfg, state, action)
    assert actor.exhausted and actor.step is None
    for _ in range(2):
        assert act(actor, state) == tuple(observe(state)[:PROPRIO_DIM].tolist())
        assert actor.exhausted and actor.step is None


def build_adverse_state(cfg, seed=0, closed=False):
    """Mid-lift drop: object resting off-path, arm raised, grip as given."""
    state = reset(cfg, "pick-place", EnvMode.RANDOM, seed)
    obj = state.object_poses[0]
    dropped = Pose2D(obj.x - 0.02, cfg.table_y + 0.05, obj.theta)
    raised = Pose2D(obj.x, cfg.lift_y, obj.theta)
    return replace(
        state,
        arm_poses=(state.arm_poses[LEFT], raised),
        grips=(0.0, GRIP_CLOSED if closed else 0.0),
        object_poses=(dropped,),
    )


def test_recovery_starts_with_reperceive_when_open(cfg):
    adverse = build_adverse_state(cfg, closed=False)
    plan = plan_recovery(cfg, adverse)
    assert plan[0].phase is PlanPhase.REPERCEIVE
    # Re-approach targets the object's CURRENT pose, not the nominal one.
    reapproach = [s for s in plan if s.phase is PlanPhase.REAPPROACH]
    assert reapproach and reapproach[-1].target.x == pytest.approx(adverse.object_poses[0].x)
    assert reapproach[-1].target.y == pytest.approx(adverse.object_poses[0].y)


def test_recovery_starts_with_reopen_when_closed(cfg):
    adverse = build_adverse_state(cfg, closed=True)
    plan = plan_recovery(cfg, adverse)
    assert plan[0].phase is PlanPhase.REOPEN


def test_recovery_unrecoverable_out_of_reach(cfg):
    adverse = build_adverse_state(cfg)
    gone = replace(adverse, object_poses=(Pose2D(-0.45, cfg.table_y),))
    with pytest.raises(UnrecoverableState):
        plan_recovery(cfg, gone)


@pytest.mark.parametrize("seed", range(10))
def test_recovery_executes_to_success(cfg, seed):
    adverse = build_adverse_state(cfg, seed=seed, closed=(seed % 2 == 0))
    plan = plan_recovery(cfg, adverse)
    final, _ = execute(cfg, adverse, plan)
    assert success_check(cfg, final)


def test_recovery_resumes_nominal_phases(cfg):
    adverse = build_adverse_state(cfg)
    plan = plan_recovery(cfg, adverse)
    phases = [s.phase for s in plan]
    first_nominal = next(i for i, p in enumerate(phases) if p not in CORRECTIVE_PHASES)
    assert all(p not in CORRECTIVE_PHASES for p in phases[first_nominal:])
    assert PlanPhase.RELEASE in phases


def test_executor_records_when_the_plan_resumes(cfg):
    # ``resumed_at`` is the act count at which the step after the corrective
    # ones became active, and None for a plan without them.  A plan whose
    # corrective steps do not come first is refused.
    adverse = build_adverse_state(cfg)
    plan = plan_recovery(cfg, adverse)
    resume = next(i for i, s in enumerate(plan) if s.phase not in CORRECTIVE_PHASES)
    actor, state, acts = follower(cfg, adverse, plan), adverse, 0
    while actor.index < resume:
        assert actor.resumed_at is None
        state = step(cfg, state, act(actor, state))
        acts += 1
    assert actor.resumed_at == acts - 1 > 0
    assert actor.corrective_acts() == actor.resumed_at
    state = reset(cfg, "pick-place", EnvMode.RANDOM, 0)
    nominal = plan_nominal(cfg, state)
    actor = follower(cfg, state, nominal)
    while not actor.exhausted:
        state = step(cfg, state, act(actor, state))
    assert actor.index == len(nominal) and actor.resumed_at is None
    with pytest.raises(InputError, match="corrective"):
        follower(cfg, state, nominal + plan[:1])


def test_recovery_conditions_only_on_state(cfg):
    # Identical adverse states produce identical plans regardless of how the
    # failure happened (no history input exists to condition on).
    a = plan_recovery(cfg, build_adverse_state(cfg, seed=3))
    b = plan_recovery(cfg, build_adverse_state(cfg, seed=3))
    assert a == b


def test_recovery_after_completed_handoff_carries_on(cfg):
    # Once the right arm holds the passed object, the transfer is done and
    # recovery finishes the place objective with that arm.
    state = reset(cfg, "bimanual-handover", EnvMode.RANDOM, 0)
    actor = follower(cfg, state, plan_nominal(cfg, state))
    while state.holders[0] != RIGHT:
        state = step(cfg, state, act(actor, state))
    plan = plan_recovery(cfg, state)
    assert plan[0].phase is PlanPhase.LIFT and plan[0].arm == RIGHT
    final, _ = execute(cfg, state, plan)
    assert success_check(cfg, final)
