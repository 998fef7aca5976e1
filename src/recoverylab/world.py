"""Deterministic 2D planar bimanual manipulation world.

The plane is a side view: x is horizontal, y is height.  Two point
end-effectors (left and right arm) move kinematically toward absolute
targets, clamped per axis by v_max*dt and per step by omega_max*dt in
angle.  Grippers are binary-threshold devices: an object attaches when the
grip command crosses closed (>= 0.5) while the object lies within
grasp_radius, and detaches (staying frozen at its current pose) when the
grip crosses open.  There is no gravity and no contact force; state is a
value and ``step``/``observe`` are pure functions of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .config import Config
from .errors import ConfigError, InputError

LEFT, RIGHT = 0, 1
ARM_NAMES = ("left", "right")
GRIP_CLOSED = 1.0
GRIP_OPEN = 0.0
CLOSE_THRESHOLD = 0.5

# Layout of an action row: x, y, theta and grip of each arm's absolute
# target, left arm first.
ACTION_DIM = 8
THETA_DIMS = (2, 6)
GRIP_DIMS = (3, 7)

# Layout of the observation vector: 8 proprio dims + 2 object slots of 7 dims each.
NUM_OBJECT_SLOTS = 2
OBJECT_FEAT_DIM = 7  # present flag + (dx, dy, dtheta) relative to each gripper
PROPRIO_DIM = 8
OBS_DIM = PROPRIO_DIM + NUM_OBJECT_SLOTS * OBJECT_FEAT_DIM


def wrap_angle(theta: float) -> float:
    """Wrap into (-pi, pi]."""
    wrapped = math.remainder(theta, 2.0 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class Pose2D:
    x: float
    y: float
    theta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.theta)):
            raise InputError(f"non-finite pose: {(self.x, self.y, self.theta)}")
        object.__setattr__(self, "theta", wrap_angle(self.theta))

    def distance(self, other: "Pose2D") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def angle_to(self, other: "Pose2D") -> float:
        return abs(wrap_angle(self.theta - other.theta))


class EnvMode(Enum):
    CLEAN = "Clean"
    RANDOM = "Random"


@dataclass(frozen=True)
class WorldState:
    """One trial's world; ``object_poses`` and ``holders`` are parallel, one
    entry per object, and a held object's pose is its holder's pose."""

    arm_poses: tuple[Pose2D, Pose2D]
    grips: tuple[float, float]
    object_poses: tuple[Pose2D, ...]
    holders: tuple[int | None, ...]  # LEFT, RIGHT or None
    task_id: str
    rng_seed: int


@dataclass(frozen=True)
class Objective:
    """One manipulation goal inside a task: arm moves object to destination.

    ``transfer`` objectives are satisfied as soon as the next arm holds the
    object or can take it over (the hand-off case); ``place`` objectives need
    the object resting within goal_radius of the destination.
    """

    arm: int
    object_index: int
    destination: Pose2D
    kind: str = "place"  # "place" | "transfer"


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    instruction_id: int
    instruction: str
    canonical_objects: tuple[Pose2D, ...]
    random_x_ranges: tuple[tuple[float, float], ...]
    random_theta_range: tuple[float, float]
    objectives: tuple[Objective, ...]


@lru_cache(maxsize=8)
def _build_task_registry(ty: float) -> dict[str, TaskSpec]:
    return {
        "pick-place": TaskSpec(
            task_id="pick-place",
            instruction_id=0,
            instruction="move the block to the marked spot",
            canonical_objects=(Pose2D(0.34, ty, 0.0),),
            random_x_ranges=((0.18, 0.46),),
            random_theta_range=(-0.3, 0.3),
            objectives=(Objective(RIGHT, 0, Pose2D(-0.06, ty, 0.0)),),
        ),
        "stack-two": TaskSpec(
            task_id="stack-two",
            instruction_id=1,
            instruction="gather both blocks onto the target",
            canonical_objects=(Pose2D(-0.3, ty, 0.0), Pose2D(0.3, ty, 0.0)),
            random_x_ranges=((-0.44, -0.16), (0.16, 0.44)),
            random_theta_range=(-0.3, 0.3),
            objectives=(
                Objective(LEFT, 0, Pose2D(0.0, ty, 0.0)),
                Objective(RIGHT, 1, Pose2D(0.0, ty, 0.0)),
            ),
        ),
        "bimanual-handover": TaskSpec(
            task_id="bimanual-handover",
            instruction_id=2,
            instruction="pass the block across and set it on the far spot",
            canonical_objects=(Pose2D(-0.34, ty, 0.0),),
            random_x_ranges=((-0.44, -0.2),),
            random_theta_range=(-0.3, 0.3),
            objectives=(
                Objective(LEFT, 0, Pose2D(0.0, ty, 0.0), kind="transfer"),
                Objective(RIGHT, 0, Pose2D(0.34, ty, 0.0)),
            ),
        ),
    }


def task_registry(cfg: Config) -> dict[str, TaskSpec]:
    return _build_task_registry(float(cfg.table_y))


def get_task(cfg: Config, task_id: str) -> TaskSpec:
    registry = task_registry(cfg)
    if task_id not in registry:
        raise ConfigError(f"unknown task {task_id!r}; known: {sorted(registry)}")
    return registry[task_id]


def instruction_ids(cfg: Config) -> dict[str, int]:
    return {tid: spec.instruction_id for tid, spec in task_registry(cfg).items()}


def arm_reach(cfg: Config, arm: int) -> tuple[float, float, float, float]:
    """(x_min, x_max, y_min, y_max) rectangle the arm can occupy."""
    if arm == LEFT:
        return (cfg.workspace_x_min, cfg.left_reach_x_max, cfg.workspace_y_min, cfg.workspace_y_max)
    return (cfg.right_reach_x_min, cfg.workspace_x_max, cfg.workspace_y_min, cfg.workspace_y_max)


def in_reach(cfg: Config, arm: int, pose: Pose2D, slack: float = 0.0) -> bool:
    x_min, x_max, y_min, y_max = arm_reach(cfg, arm)
    return (x_min - slack <= pose.x <= x_max + slack) and (y_min - slack <= pose.y <= y_max + slack)


def in_workspace(cfg: Config, pose: Pose2D) -> bool:
    return (cfg.workspace_x_min <= pose.x <= cfg.workspace_x_max
            and cfg.workspace_y_min <= pose.y <= cfg.workspace_y_max)


_HOME = {LEFT: (-0.38, 0.34), RIGHT: (0.38, 0.34)}


def reset(cfg: Config, task_id: str, env_mode: EnvMode, seed: int) -> WorldState:
    """Instantiate a task. Clean mode is the canonical layout; Random mode
    samples object x positions and orientations inside task regions, fully
    determined by the seed."""
    spec = get_task(cfg, task_id)
    poses = list(spec.canonical_objects)
    if env_mode is EnvMode.RANDOM:
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFF, 0x51CE])
        lo, hi = spec.random_theta_range
        poses = [
            Pose2D(float(rng.uniform(*spec.random_x_ranges[i])), p.y, float(rng.uniform(lo, hi)))
            for i, p in enumerate(poses)
        ]
    arms = tuple(Pose2D(x, y, 0.0) for x, y in (_HOME[LEFT], _HOME[RIGHT]))
    return WorldState(
        arm_poses=arms, grips=(GRIP_OPEN, GRIP_OPEN), object_poses=tuple(poses),
        holders=(None,) * len(poses), task_id=task_id, rng_seed=int(seed),
    )


def _move_toward(cfg: Config, arm: int, current: Pose2D, target: tuple[float, ...]) -> Pose2D:
    """One step of ``current`` toward the (x, y, theta) ``target``."""
    tx, ty, tth = target
    step_lin = cfg.v_max * cfg.dt
    step_ang = cfg.omega_max * cfg.dt
    nx = current.x + min(step_lin, max(-step_lin, tx - current.x))
    ny = current.y + min(step_lin, max(-step_lin, ty - current.y))
    dth = wrap_angle(tth - current.theta)
    nth = current.theta + min(step_ang, max(-step_ang, dth))
    x_min, x_max, y_min, y_max = arm_reach(cfg, arm)
    return Pose2D(min(x_max, max(x_min, nx)), min(y_max, max(y_min, ny)), nth)


def step(cfg: Config, state: WorldState, row: tuple[float, ...]) -> WorldState:
    """Advance one timestep under an action row (see ACTION_DIM). Motion
    first, then grip-crossing resolution."""
    if len(row) != ACTION_DIM or not all(map(math.isfinite, row)):
        raise InputError(f"an action is a row of {ACTION_DIM} finite values, got {row!r}")

    new_arms = (_move_toward(cfg, LEFT, state.arm_poses[LEFT], row[0:3]),
                _move_toward(cfg, RIGHT, state.arm_poses[RIGHT], row[4:7]))
    old_grips, new_grips = state.grips, (row[3], row[7])

    # Open crossings release first: a dropped object keeps its pre-motion pose.
    holders = [
        None if arm is not None and old_grips[arm] >= CLOSE_THRESHOLD > new_grips[arm] else arm
        for arm in state.holders
    ]
    # Objects still held track their holder exactly.
    poses = [pose if arm is None else new_arms[arm] for pose, arm in zip(state.object_poses, holders)]

    # Close crossings attach the nearest unheld object inside grasp_radius,
    # ties to the later one.
    for arm in (LEFT, RIGHT):
        if old_grips[arm] < CLOSE_THRESHOLD <= new_grips[arm]:
            best, best_dist = None, cfg.grasp_radius
            for i, pose in enumerate(poses):
                if holders[i] is None:
                    d = pose.distance(new_arms[arm])
                    if d <= best_dist:
                        best, best_dist = i, d
            if best is not None:
                poses[best], holders[best] = new_arms[arm], arm

    return WorldState(new_arms, new_grips, tuple(poses), tuple(holders), state.task_id, state.rng_seed)


def observe(state: WorldState) -> np.ndarray:
    """Pure projection of state onto the policy-visible (OBS_DIM,) vector:
    absolute arm poses and grips, then per object slot a presence flag and the
    object pose relative to each gripper (invariant to moving the whole scene)."""
    vec: list[float] = []
    for arm in (LEFT, RIGHT):
        p = state.arm_poses[arm]
        vec.extend((p.x, p.y, p.theta, state.grips[arm]))
    for slot in range(NUM_OBJECT_SLOTS):
        if slot < len(state.object_poses):
            o = state.object_poses[slot]
            vec.append(1.0)
            for arm in (LEFT, RIGHT):
                g = state.arm_poses[arm]
                vec.extend((o.x - g.x, o.y - g.y, wrap_angle(o.theta - g.theta)))
        else:
            vec.extend([0.0] * OBJECT_FEAT_DIM)
    return np.array(vec)


def objective_satisfied(cfg: Config, state: WorldState, objective: Objective) -> bool:
    pose, holder = state.object_poses[objective.object_index], state.holders[objective.object_index]
    if objective.kind == "transfer":
        # Satisfied once the next arm holds the object, or the object rests
        # free inside the next arm's x-reach with margin for the grasp radius.
        # Height is left out: a resting object sits below the margin.
        next_arm = RIGHT if objective.arm == LEFT else LEFT
        if holder is not None:
            return holder == next_arm
        x_min, x_max, _, _ = arm_reach(cfg, next_arm)
        return x_min + cfg.grasp_radius <= pose.x <= x_max - cfg.grasp_radius
    return holder is None and pose.distance(objective.destination) <= cfg.goal_radius


def success_check(cfg: Config, state: WorldState) -> bool:
    """True iff every place objective of the state's task holds (objects
    resting at their goals)."""
    for objective in get_task(cfg, state.task_id).objectives:
        if objective.kind == "place" and not objective_satisfied(cfg, state, objective):
            return False
    return True
