"""Deterministic 2D planar bimanual manipulation world.

The plane is a side view: x is horizontal, y is height.  Two point
end-effectors (left and right arm) move kinematically toward absolute
targets, clamped per axis by v_max*dt and per step by omega_max*dt in
angle.  Grippers are binary-threshold devices: an object attaches when the
grip command crosses closed (>= 0.5) while the object lies within
grasp_radius, and detaches (staying frozen at its current pose) when the
grip crosses open.  There is no gravity and no contact force; state is a
value and ``step``/``observe`` are pure functions of it.

``WorldBatch`` holds many trials' worlds as arrays, and ``step_batch``,
``observe_batch`` and ``success_batch`` reproduce ``step``, ``observe`` and
``success_check`` on every row bit for bit, for lockstep evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

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


TAU = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap into (-pi, pi]."""
    wrapped = math.remainder(theta, TAU)
    if wrapped <= -math.pi:
        wrapped += TAU
    return wrapped


def wrap_angles(theta: np.ndarray) -> np.ndarray:
    """``wrap_angle`` of every element, bit for bit.

    Inside (-pi, pi) every element is its own wrap, as it is the
    remainder's, and the elements come back as a copy.  Within 3 pi,
    ``theta - TAU * rint(theta / TAU)`` is exact, and where the quotient
    rounds to the other side of a half the ``<= -pi`` fix-up mends it; a
    zero takes the sign of ``theta``, as the remainder's does.  Past 3 pi
    the elements go through ``math.remainder``.  (``np.remainder`` is a
    floor-mod.)
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size and np.abs(theta).max() < math.pi:
        return theta.copy()
    wrapped = theta - TAU * np.rint(theta / TAU)
    if np.count_nonzero(wrapped) < wrapped.size:
        wrapped = np.where(wrapped == 0.0, np.copysign(0.0, theta), wrapped)
    far = np.abs(theta) > 3.0 * math.pi
    if np.count_nonzero(far):
        wrapped[far] = [math.remainder(x, TAU) for x in theta[far].tolist()]
    low = wrapped <= -math.pi
    if np.count_nonzero(low):
        wrapped[low] += TAU
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


# ---------------------------------------------------------------------------
# many trials' worlds as arrays


@dataclass(frozen=True, eq=False)
class WorldBatch:
    """The worlds of N trials, one row each: arm poses (N, 2, 3) and grips
    (N, 2); object poses (N, NUM_OBJECT_SLOTS, 3), with ``present`` marking
    the slots a row's task fills and ``holders`` the holding arm, or -1; and
    the goals of each row's place objectives (see ``success_batch``).
    ``batch[k]`` is row k's ``WorldState``.  Batches share the arrays they
    have in common, and none is written once made."""

    arms: np.ndarray
    grips: np.ndarray
    objects: np.ndarray
    present: np.ndarray
    holders: np.ndarray
    goal_objects: np.ndarray  # (N, G) object index of each place objective
    goals: np.ndarray         # (N, G, 2) its destination's x and y
    goal_on: np.ndarray       # (N, G) false for padding
    task_ids: tuple[str, ...]
    rng_seeds: tuple[int, ...]

    @classmethod
    def of(cls, cfg: Config, states: Sequence[WorldState]) -> "WorldBatch":
        n = len(states)
        objects, present = np.zeros((n, NUM_OBJECT_SLOTS, 3)), np.zeros((n, NUM_OBJECT_SLOTS), dtype=bool)
        holders = np.full((n, NUM_OBJECT_SLOTS), -1)
        places = [[o for o in get_task(cfg, s.task_id).objectives if o.kind == "place"] for s in states]
        width = max([len(p) for p in places] + [1])
        goal_objects, goals = np.zeros((n, width), dtype=int), np.zeros((n, width, 2))
        goal_on = np.zeros((n, width), dtype=bool)
        for k, state in enumerate(states):
            m = len(state.object_poses)
            objects[k, :m] = [(p.x, p.y, p.theta) for p in state.object_poses]
            present[k, :m] = True
            holders[k, :m] = [-1 if h is None else h for h in state.holders]
            for j, objective in enumerate(places[k]):
                goal_objects[k, j] = objective.object_index
                goals[k, j] = objective.destination.x, objective.destination.y
                goal_on[k, j] = True
        return cls(
            arms=np.array([[(p.x, p.y, p.theta) for p in s.arm_poses] for s in states], dtype=float).reshape(n, 2, 3),
            grips=np.array([s.grips for s in states], dtype=float).reshape(n, 2),
            objects=objects, present=present, holders=holders, goal_objects=goal_objects, goals=goals,
            goal_on=goal_on, task_ids=tuple(s.task_id for s in states), rng_seeds=tuple(s.rng_seed for s in states),
        )

    def __len__(self) -> int:
        return len(self.task_ids)

    def __getitem__(self, k: int) -> WorldState:
        m = int(self.present[k].sum())
        return WorldState(
            arm_poses=tuple(Pose2D(*pose) for pose in self.arms[k].tolist()),
            grips=tuple(self.grips[k].tolist()),
            object_poses=tuple(Pose2D(*pose) for pose in self.objects[k, :m].tolist()),
            holders=tuple(None if h < 0 else h for h in self.holders[k, :m].tolist()),
            task_id=self.task_ids[k],
            rng_seed=self.rng_seeds[k],
        )

    def take(self, rows: Sequence[int]) -> "WorldBatch":
        """The batch of ``rows``, in that order."""
        idx = np.asarray(rows, dtype=int)
        return WorldBatch(
            self.arms[idx], self.grips[idx], self.objects[idx], self.present[idx], self.holders[idx],
            self.goal_objects[idx], self.goals[idx], self.goal_on[idx],
            tuple(self.task_ids[k] for k in rows), tuple(self.rng_seeds[k] for k in rows),
        )


@lru_cache(maxsize=8)
def _motion_limits(step_lin: float, step_ang: float, left: tuple[float, ...],
                   right: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """For these step bounds and (x_min, x_max, y_min, y_max) arm reaches:
    -step and step per axis (x, y, theta), then each arm's lowest and
    highest pose, theta free; as read-only arrays."""
    step = np.array([step_lin, step_lin, step_ang])
    limits = (-step, step, np.array([(x0, y0, -np.inf) for x0, _, y0, _ in (left, right)]),
              np.array([(x1, y1, np.inf) for _, x1, _, y1 in (left, right)]))
    for array in limits:
        array.flags.writeable = False
    return limits


def _clamp(v: np.ndarray, lo, hi) -> None:
    """``min(hi, max(lo, v))`` per element of ``v``, in place, with Python's
    choice among equals (``np.maximum``, ``np.minimum`` and ``np.clip`` can
    keep the other of two signed zeros)."""
    np.copyto(v, lo, where=v <= lo)
    np.copyto(v, hi, where=v >= hi)


def _within(dx: np.ndarray, dy: np.ndarray, radius) -> np.ndarray:
    """``math.hypot(dx, dy) <= radius`` per element.  ``np.hypot`` differs
    from ``math.hypot`` in the last bit for some inputs, so distances within
    a few ulps of the radius are measured again with ``math.hypot``."""
    dist = np.hypot(dx, dy)
    inside = dist <= radius
    close = np.abs(dist - radius) <= 8.0 * np.spacing(radius)
    if np.count_nonzero(close):
        radius = np.broadcast_to(radius, dist.shape)
        inside[close] = [math.hypot(x, y) <= r for x, y, r in
                         zip(dx[close].tolist(), dy[close].tolist(), radius[close].tolist())]
    return inside


def wrap_angles_in_place(theta: np.ndarray) -> None:
    """``theta[...] = wrap_angles(theta)``, skipped when every element lies
    in (-pi, pi) and so is its own wrap."""
    if theta.size and not np.abs(theta).max() < math.pi:
        theta[...] = wrap_angles(theta)


def step_batch(cfg: Config, batch: WorldBatch, rows: Sequence[Sequence[float]]) -> WorldBatch:
    """``step`` of every row of ``batch`` under its action row."""
    n = len(batch)
    try:
        actions = np.asarray(rows, dtype=float).reshape(n, ACTION_DIM)
        finite = np.isfinite(actions).all()
    except (TypeError, ValueError):  # ragged rows, or rows of another length
        finite = False
    if not finite:
        raise InputError(f"an action is a row of {ACTION_DIM} finite values, got {rows!r}")
    targets = actions.reshape(n, 2, 4)
    fall, rise, low, high = _motion_limits(cfg.v_max * cfg.dt, cfg.omega_max * cfg.dt, arm_reach(cfg, LEFT),
                                           arm_reach(cfg, RIGHT))
    # Every step bound is positive, so np.maximum and np.minimum clamp to it
    # as _clamp does; a reach edge may be zero, where they can differ.
    move = targets[..., :3] - batch.arms
    wrap_angles_in_place(move[..., 2])
    np.maximum(move, fall, out=move)
    np.minimum(move, rise, out=move)
    arms = batch.arms + move
    _clamp(arms, low, high)
    wrap_angles_in_place(arms[..., 2])
    grips = targets[..., 3].copy()
    was, now = batch.grips >= CLOSE_THRESHOLD, grips >= CLOSE_THRESHOLD

    # Open crossings release first; objects still held track their holder.
    holders, objects = batch.holders, batch.objects
    held = holders >= 0
    if held.any():
        each, arm = np.arange(n)[:, None], np.maximum(holders, 0)
        opened = was > now
        if opened.any():
            held &= ~opened[each, arm]
            holders = np.where(held, holders, -1)
        objects = np.where(held[..., None], arms[each, arm], objects)

    # Close crossings attach the nearest unheld object inside grasp_radius,
    # ties to the later one, left arm first: few rows, so one by one.
    closed = now > was
    if closed.any():
        objects, holders = objects.copy(), holders.copy()
        for k in np.flatnonzero(closed.any(axis=1)).tolist():
            for arm in (LEFT, RIGHT):
                if not closed[k, arm]:
                    continue
                ax, ay, _ = arms[k, arm].tolist()
                best, best_dist = None, cfg.grasp_radius
                for i in np.flatnonzero(batch.present[k] & (holders[k] < 0)).tolist():
                    ox, oy, _ = objects[k, i].tolist()
                    d = math.hypot(ox - ax, oy - ay)
                    if d <= best_dist:
                        best, best_dist = i, d
                if best is not None:
                    objects[k, best], holders[k, best] = arms[k, arm], arm

    return WorldBatch(arms, grips, objects, batch.present, holders, batch.goal_objects, batch.goals,
                      batch.goal_on, batch.task_ids, batch.rng_seeds)


def observe_batch(batch: WorldBatch) -> np.ndarray:
    """``observe`` of every row, as an (N, OBS_DIM) array."""
    n = len(batch)
    proprio = np.concatenate([batch.arms, batch.grips[..., None]], axis=2)  # (N, arm, 4)
    rel = batch.objects[:, :, None, :] - batch.arms[:, None, :, :]  # (N, slot, arm, 3)
    rel[..., 2] = wrap_angles(rel[..., 2])
    present = batch.present[..., None]
    slots = np.concatenate([present, np.where(present, rel.reshape(n, NUM_OBJECT_SLOTS, 6), 0.0)], axis=2)
    return np.concatenate([proprio.reshape(n, PROPRIO_DIM), slots.reshape(n, NUM_OBJECT_SLOTS * OBJECT_FEAT_DIM)],
                          axis=1)


def success_batch(cfg: Config, batch: WorldBatch) -> np.ndarray:
    """``success_check`` of every row, as an (N,) bool array."""
    each = np.arange(len(batch))[:, None]
    pose = batch.objects[each, batch.goal_objects]
    resting = batch.holders[each, batch.goal_objects] < 0
    near = _within(pose[..., 0] - batch.goals[..., 0], pose[..., 1] - batch.goals[..., 1], cfg.goal_radius)
    return np.all(~batch.goal_on | (resting & near), axis=1)


def free_objects_within(batch: WorldBatch, radius: np.ndarray) -> np.ndarray:
    """(N, 2, NUM_OBJECT_SLOTS) mask: object i of row k rests unheld within
    ``radius[k]`` of the arm, by ``Pose2D.distance``."""
    dx = batch.objects[:, None, :, 0] - batch.arms[:, :, None, 0]
    dy = batch.objects[:, None, :, 1] - batch.arms[:, :, None, 1]
    free = (batch.present & (batch.holders < 0))[:, None, :]
    return free & _within(dx, dy, np.asarray(radius, dtype=float)[:, None, None])
