"""Scripted expert planner.

Produces nominal reference plans for each task and corrective plans from
adverse mid-task states.  A plan is a tuple of single-arm phase steps, each
with the completion predicate that ends it; ``faults.PlannerActor`` follows
one closed-loop.

Recovery plans are built from the adverse state alone (never from how the
failure happened): the planner re-reads the object's live pose, re-opens an
erroneously closed gripper, re-grasps, and then resumes the remaining task
objectives with ordinary phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .config import Config
from .errors import PlanningError, UnrecoverableState
from .world import (
    Objective,
    Pose2D,
    GRIP_CLOSED,
    GRIP_OPEN,
    CLOSE_THRESHOLD,
    WorldState,
    get_task,
    in_reach,
    in_workspace,
    objective_satisfied,
)


class PlanPhase(Enum):
    APPROACH = "Approach"
    GRASP = "Grasp"
    LIFT = "Lift"
    TRANSPORT = "Transport"
    PLACE = "Place"
    RELEASE = "Release"
    REOPEN = "ReOpen"
    REPERCEIVE = "RePerceive"
    REAPPROACH = "ReApproach"
    REGRASP = "ReGrasp"


CORRECTIVE_PHASES = frozenset(
    {PlanPhase.REOPEN, PlanPhase.REPERCEIVE, PlanPhase.REAPPROACH, PlanPhase.REGRASP}
)


class Completion(Enum):
    REACH = "reach"          # arm pose within pos/ang tolerance of target
    HOLDING = "holding"      # designated object held by the step's arm
    RELEASED = "released"    # step's arm no longer holds anything
    GRIP_OPEN = "grip_open"  # arm grip state below the close threshold
    ONE_STEP = "one_step"    # completes after a single step


@dataclass(frozen=True)
class PlanStep:
    phase: PlanPhase
    arm: int
    target: Pose2D
    grip: float
    completion: Completion
    object_index: int | None = None


def _pick_and_place_steps(
    cfg: Config,
    arm: int,
    object_index: int,
    object_pose: Pose2D,
    destination: Pose2D,
    corrective: bool,
    grip_closed_now: bool,
) -> list[PlanStep]:
    """Phase sequence moving one object to a destination with one arm.

    The approach goes through a standoff above the object before descending,
    and the grasp step dwells briefly open before closing (see
    ``faults.PlannerActor``), so that closing happens where the commanded
    grasp target actually is.
    """
    th = object_pose.theta
    standoff_y = min(object_pose.y + cfg.approach_standoff, cfg.workspace_y_max)
    steps: list[PlanStep] = []
    if corrective:
        if grip_closed_now:
            steps.append(PlanStep(PlanPhase.REOPEN, arm, object_pose, GRIP_OPEN, Completion.GRIP_OPEN))
        steps.append(PlanStep(PlanPhase.REPERCEIVE, arm, object_pose, GRIP_OPEN, Completion.ONE_STEP))
        approach, grasp = PlanPhase.REAPPROACH, PlanPhase.REGRASP
    else:
        approach, grasp = PlanPhase.APPROACH, PlanPhase.GRASP
    steps += [
        PlanStep(approach, arm, Pose2D(object_pose.x, standoff_y, th), GRIP_OPEN, Completion.REACH, object_index),
        PlanStep(approach, arm, object_pose, GRIP_OPEN, Completion.REACH, object_index),
        PlanStep(grasp, arm, object_pose, GRIP_CLOSED, Completion.HOLDING, object_index),
    ]
    return steps + _carry_on_steps(cfg, arm, object_index, object_pose, destination)


def _carry_on_steps(cfg: Config, arm: int, object_index: int, here: Pose2D, destination: Pose2D) -> list[PlanStep]:
    """Finish an objective whose object is already held by the right arm."""
    th = here.theta
    return [
        PlanStep(PlanPhase.LIFT, arm, Pose2D(here.x, cfg.lift_y, th), GRIP_CLOSED, Completion.REACH, object_index),
        PlanStep(PlanPhase.TRANSPORT, arm, Pose2D(destination.x, cfg.lift_y, th), GRIP_CLOSED, Completion.REACH, object_index),
        PlanStep(PlanPhase.PLACE, arm, Pose2D(destination.x, destination.y, th), GRIP_CLOSED, Completion.REACH, object_index),
        PlanStep(PlanPhase.RELEASE, arm, Pose2D(destination.x, destination.y, th), GRIP_OPEN, Completion.RELEASED, object_index),
    ]


def remaining_objectives(cfg: Config, state: WorldState) -> list[Objective]:
    return [
        objective for objective in get_task(cfg, state.task_id).objectives
        if not objective_satisfied(cfg, state, objective)
    ]


def _check_objective_feasible(cfg: Config, objective: Objective, object_pose: Pose2D) -> None:
    if not in_workspace(cfg, object_pose):
        raise PlanningError(
            f"object at ({object_pose.x:.3f}, {object_pose.y:.3f}) is outside the workspace"
        )
    if not in_reach(cfg, objective.arm, object_pose, slack=cfg.grasp_radius):
        raise PlanningError(
            f"object at ({object_pose.x:.3f}, {object_pose.y:.3f}) is out of reach "
            f"of the {('left', 'right')[objective.arm]} arm"
        )
    if not in_reach(cfg, objective.arm, objective.destination):
        raise PlanningError("objective destination out of reach")


def plan_task_from_state(cfg: Config, state: WorldState, corrective_first: bool = False) -> tuple[PlanStep, ...]:
    """Plan the remaining objectives of a task from an arbitrary valid state.

    With ``corrective_first`` the first unmet objective starts with the
    recovery phases (ReOpen if needed, RePerceive, ReApproach, ReGrasp)
    re-targeted to the object's current pose.
    """
    todo = remaining_objectives(cfg, state)
    if not todo:
        raise PlanningError("task already satisfied; nothing to plan")
    steps: list[PlanStep] = []
    # Later objectives see the pose each object will have after earlier
    # objectives have moved it.
    virtual_pose = list(state.object_poses)
    for k, objective in enumerate(todo):
        holder = state.holders[objective.object_index]
        pose = virtual_pose[objective.object_index]
        _check_objective_feasible(cfg, objective, pose)
        if k == 0 and holder is not None:
            if holder != objective.arm:
                raise PlanningError("object held by the wrong arm")
            steps += _carry_on_steps(cfg, objective.arm, objective.object_index, pose, objective.destination)
        else:
            steps += _pick_and_place_steps(
                cfg, objective.arm, objective.object_index, pose, objective.destination,
                corrective=(corrective_first and k == 0),
                grip_closed_now=state.grips[objective.arm] >= CLOSE_THRESHOLD,
            )
        virtual_pose[objective.object_index] = Pose2D(
            objective.destination.x, objective.destination.y, pose.theta
        )
    return tuple(steps)


def plan_nominal(cfg: Config, state: WorldState) -> tuple[PlanStep, ...]:
    """Reference plan from a reset state; deterministic in the state."""
    return plan_task_from_state(cfg, state, corrective_first=False)


def plan_recovery(cfg: Config, adverse_state: WorldState) -> tuple[PlanStep, ...]:
    """Corrective plan from a verified adverse state.

    Conditions only on the state itself: re-opens an erroneously closed
    gripper, re-reads the object's current pose, re-grasps it there, then
    resumes the ordinary task phases.  Raises UnrecoverableState when the
    object ended up where the designated arm cannot retrieve it.
    """
    todo = remaining_objectives(cfg, adverse_state)
    if not todo:
        raise PlanningError("state is not adverse; task already satisfied")
    first = todo[0]
    pose = adverse_state.object_poses[first.object_index]
    if not in_workspace(cfg, pose) or not in_reach(cfg, first.arm, pose, slack=cfg.grasp_radius):
        raise UnrecoverableState(
            f"object at ({pose.x:.3f}, {pose.y:.3f}) cannot be retrieved by the "
            f"{('left', 'right')[first.arm]} arm"
        )
    return plan_task_from_state(cfg, adverse_state, corrective_first=True)
