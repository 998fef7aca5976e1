"""Interception-based error injection and paired failure-recovery generation.

Four deterministic overrides can be spliced into a running episode:

  E1 premature_close        grip forced closed during approach
  E2 grasp_slip             grip forced open during lift (30-frame window)
  E3 position_offset        per-axis uniform offset added to grasp targets
  E4 orientation_mismatch   large rotation plus lateral offset on grasp targets

Windows are half-open [t_start, t_start + length): the slip window covers
exactly 30 frames.  Random draws (offsets, rotation) happen exactly once per
run, from the trial's seed, when its trigger fires and the run resolves the
``Injection``, so every in-window action sees the same perturbation.  Recovery scoring elsewhere is gated on
``verify_adverse``: the error must have left its physical signature.
``PlannerActor`` follows a plan closed-loop: the expert demonstrations, and
the corrective rollouts from verified adverse states.

``run_trials`` is the one episode loop: it steps a list of trials and
hands back each ended trial, and ``run_episodes`` builds their episodes.
Expert demonstrations, interception, policy rollouts and policy-induced
collection differ only in the ``Trial``: the actor, the error to inject
and the takeover they hand it.  Trials that need no per-frame Python and
whose actors share one ``Actor.Batch`` step together as one
``world.WorldBatch``; any other trial steps alone on its ``WorldState``.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import Config
from .errors import ConfigError, InputError, InsufficientData, PlanningError, SequencingError, UnrecoverableState
from .planner import (
    CORRECTIVE_PHASES,
    Completion,
    PlanPhase,
    PlanStep,
    plan_nominal,
    plan_recovery,
)
from .store import Episode, EpisodeKind, Frames, PhaseTag, check_verdict
from .world import (
    ACTION_DIM,
    ARM_NAMES,
    CLOSE_THRESHOLD,
    EnvMode,
    GRIP_CLOSED,
    GRIP_OPEN,
    LEFT,
    NUM_OBJECT_SLOTS,
    OBS_DIM,
    PROPRIO_DIM,
    WorldBatch,
    WorldState,
    free_objects_within,
    get_task,
    objective_satisfied,
    observe,
    observe_batch,
    reset,
    step,
    step_batch,
    success_batch,
    success_check,
    wrap_angle,
    wrap_angles,
)


class ErrorKind(Enum):
    E1_PREMATURE_CLOSE = "E1"
    E2_GRASP_SLIP = "E2"
    E3_POSITION_OFFSET = "E3"
    E4_ORIENTATION_MISMATCH = "E4"


@dataclass(frozen=True)
class ErrorType:
    """An error kind plus its numeric parameters."""

    kind: ErrorKind
    window_steps: int = 0      # override window length (E1: the forced-close hold)
    offset_max: float = 0.0    # E3: per-axis bound d of U(-d, d)
    dtheta_max: float = 0.0    # E4: rotation bound (draw magnitude in [max/2, max])
    lat_max: float = 0.0       # E4: lateral offset bound (same half-to-full rule)


TRIGGER_PHASE = {
    ErrorKind.E1_PREMATURE_CLOSE: PlanPhase.APPROACH,
    ErrorKind.E2_GRASP_SLIP: PlanPhase.LIFT,
    ErrorKind.E3_POSITION_OFFSET: PlanPhase.GRASP,
    ErrorKind.E4_ORIENTATION_MISMATCH: PlanPhase.GRASP,
}


def error_from_config(cfg: Config, kind: ErrorKind | str) -> ErrorType:
    """The error of ``kind`` (an ``ErrorKind`` or its value, such as "E2")
    with its parameters from ``cfg``; ConfigError for an unknown kind."""
    if isinstance(kind, str):
        try:
            kind = ErrorKind(kind)
        except ValueError:
            raise ConfigError(f"unknown error kind {kind!r}; known: {[k.value for k in ErrorKind]}") from None
    if kind is ErrorKind.E1_PREMATURE_CLOSE:
        return ErrorType(kind, window_steps=int(cfg.e1_hold_steps))
    if kind is ErrorKind.E2_GRASP_SLIP:
        return ErrorType(kind, window_steps=int(cfg.e2_window_steps))
    if kind is ErrorKind.E3_POSITION_OFFSET:
        return ErrorType(kind, window_steps=int(cfg.e3_window_steps), offset_max=float(cfg.e3_offset_max))
    return ErrorType(
        kind,
        window_steps=int(cfg.e4_window_steps),
        dtheta_max=float(cfg.e4_dtheta_max),
        lat_max=float(cfg.e4_lat_max),
    )


@dataclass(frozen=True)
class Injection:
    """What a trial's injection resolved to when its trigger fired: the
    window [t_start, t_end), the designated arm and object, and the draws
    (dx, dy, dtheta), made once from the trial's seed (see
    ``TrialRun.resolve``).  E3 offsets by (dx, dy); E4 by (dx, dy) with
    dy = 0, perpendicular to the vertical approach, and turns by dtheta; E1
    and E2 draw nothing, all zeros."""

    error: ErrorType
    t_start: int
    t_end: int
    arm: int
    object_index: int | None
    draws: tuple[float, float, float]

    def in_window(self, t: int) -> bool:
        return self.t_start <= t < self.t_end


# Provenance entries of a rollout whose injection never fired, or that had none.
UNTRIGGERED = {"adverse_verified": False, "triggered": False}


_KINDS = list(ErrorKind)


def _geometric_hits(cfg: Config, batch: WorldBatch, unresolved: np.ndarray,
                    kind: np.ndarray) -> list[tuple[int, tuple[int, int]]]:
    """(row, (arm, object index)) of each batch row marked ``unresolved``
    whose geometric trigger fires, for row k's error ``_KINDS[kind[k]]``,
    from one array expression over the batch.

    E2 fires on the first frame an object is held (lift beginning), at the
    first held object; E3/E4 on first entry within grasp_radius (grasp
    initiation); E1 on entry within the approach standoff, early enough that
    the forced close precedes contact.  Entries hit the first free object in
    reach of the left arm, else of the right.
    """
    held = batch.holders >= 0
    slip = kind == 1  # E2
    if slip.all():  # no entry to measure
        fires = unresolved & held.any(axis=1)
    else:
        radius = np.where(kind == 0, cfg.approach_standoff, cfg.grasp_radius)  # E1's standoff
        near = free_objects_within(batch, radius).reshape(len(batch), -1)  # arm-major: the (arm, object) order
        fires = unresolved & np.where(slip, held.any(axis=1), near.any(axis=1))
    hits = []
    for k in fires.nonzero()[0].tolist():
        if slip[k]:
            i = int(held[k].argmax())
            hits.append((k, (int(batch.holders[k, i]), i)))
        else:
            hits.append((k, divmod(int(near[k].argmax()), NUM_OBJECT_SLOTS)))
    return hits


def inject(row: tuple[float, ...], t: int, injection: Injection) -> tuple[float, ...]:
    """Apply the injection's error override to the designated arm's half of
    an action row inside its window.

    Outside the window the row is returned untouched (the same object).
    """
    if not injection.in_window(t):
        return row
    o = 4 * injection.arm  # the arm's x, y, theta, grip
    out = list(row)
    kind = injection.error.kind
    if kind is ErrorKind.E1_PREMATURE_CLOSE:
        out[o + 3] = GRIP_CLOSED
    elif kind is ErrorKind.E2_GRASP_SLIP:
        out[o + 3] = GRIP_OPEN
    else:
        dx, dy, dth = injection.draws
        out[o] += dx
        out[o + 1] += dy
        if kind is ErrorKind.E4_ORIENTATION_MISMATCH:
            out[o + 2] = wrap_angle(out[o + 2] + dth)
    return tuple(out)


def verify_adverse(cfg: Config, state: WorldState, injection: Injection) -> bool:
    """True iff the injection's error left its physical signature on the state.

    E1/E3/E4: the designated object is not held by the designated arm after
    the grasp attempt.  E2: the object is detached and below carry height.
    """
    i = injection.object_index or 0
    if injection.error.kind is ErrorKind.E2_GRASP_SLIP:
        return state.holders[i] is None and state.object_poses[i].y < cfg.lift_y - cfg.pos_tol
    return state.holders[i] != injection.arm


def max_nominal_duration(episodes: Iterable[Episode]) -> int:
    """Timeout budget: the maximum duration among successful nominal episodes."""
    durations = [len(ep.frames) for ep in episodes if ep.kind is EpisodeKind.NOMINAL_SUCCESS]
    if not durations:
        raise InsufficientData("no successful nominal episodes to derive a timeout from")
    return max(durations)


def detect_failure(t: int, t_max: int) -> bool:
    """Timeout failure indicator: strictly t > t_max."""
    if t_max <= 0:
        raise InputError(f"t_max must be positive, got {t_max}")
    return t > t_max


# ---------------------------------------------------------------------------
# episode engine


class ActorBatch:
    """The actors of one lockstep batch, of one class and one ``key``, made
    once from the actors just begun as the ``Batch`` their class names.
    Row k of a tick's arrays is the k-th live actor's, and ``keep`` drops
    ended rows.  A ``polled`` batch's live actors are asked ``exhausted``
    and ``stalled`` just after they act.  This one acts one by one."""

    polled = True

    def __init__(self, cfg: Config, actors: list[Actor]):
        self.actors = actors

    @staticmethod
    def key(actor: Actor) -> object:
        """Equal for actors of one class that may share a batch."""
        return None

    def act(self, states: WorldBatch, obs: np.ndarray) -> np.ndarray:
        """A new (M, ACTION_DIM) array of the live actors' action rows for
        the worlds ``states``, each built as it is read, and rows ``obs``."""
        rows = [actor.act(s, o) for actor, s, o in zip(self.actors, states, obs)]
        try:
            return np.array(rows, dtype=float).reshape(len(rows), ACTION_DIM)
        except ValueError:  # ragged rows, or rows of another length
            raise InputError(f"an action is a row of {ACTION_DIM} values, got {rows!r}") from None

    def applied(self, actions: np.ndarray) -> np.ndarray:
        """The rows the arms execute for the recorded ``actions``."""
        return actions

    def keep(self, kept: list[int]) -> None:
        """Keep only the live rows ``kept``, in that order."""
        self.actors = [self.actors[k] for k in kept]


class Actor:
    """Closed-loop controller driven by ``run_trials``.

    An actor that runs out of actions sets ``exhausted`` and holds pose, and
    the episode ends at once, unless an injection window is still open: then
    it holds until the window closes and the injection is verified.  One that
    reports ``stalled`` ends the episode at once.  Both endings are failures.

    In a lockstep batch the actors act through one ``Batch`` of their class.
    The verdict reads ``corrective_acts`` once, after the trial has ended.
    """

    exhausted = False
    stalled = False
    Batch = ActorBatch

    def begin(self, cfg: Config, state: WorldState) -> None:
        raise NotImplementedError

    def act(self, state: WorldState, obs: np.ndarray) -> tuple[float, ...]:
        """The action row (see ``world.ACTION_DIM``) for the live state."""
        raise NotImplementedError

    def applied(self, action: tuple[float, ...]) -> tuple[float, ...]:
        """The action the arms execute; ``action`` itself is what is
        recorded.  A class that overrides it names a ``Batch`` whose
        ``applied`` does the same for a batch's rows."""
        return action

    def corrective_acts(self) -> int | None:
        """How many of the acts since ``begin`` came before the actor's
        first non-corrective one, or None when all of them were corrective.
        A trial's frames that recover under the actor are Recovery up to
        there and Nominal after it (see ``TrialRun.verdict``)."""
        return None


# Expert action noise per arm: x and y at the noise scale, theta at twice it.
_NOISE_SCALES = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0])
# Frames of action noise drawn at once.  Draws of one stream in a block
# equal the per-frame draws value for value; the RNG is the trial's own, so
# values drawn past the episode's end change nothing.
_NOISE_BLOCK = 64


class PlannerBatch(ActorBatch):
    """Reads a tick's proprio rows and holders once.  Noisy and noise-free
    planners batch apart (``key``), so a noisy batch adds noise to every
    executed row, as arrays."""

    @staticmethod
    def key(actor):
        return actor.action_noise > 0

    def act(self, states, obs):
        proprio, holders = obs[:, :PROPRIO_DIM].tolist(), states.holders.tolist()
        rows = [actor._act(p, h) for actor, p, h in zip(self.actors, proprio, holders)]
        return np.array(rows, dtype=float).reshape(len(rows), ACTION_DIM)

    def applied(self, actions):
        if not self.key(self.actors[0]):  # the batch's actors share one key
            return actions
        rows = actions.copy()
        noise = chain.from_iterable(actor._next_noise() for actor in self.actors)
        # ``applied``'s sums, then its wraps of the theta columns (2 and 6) by ``wrap_angles``.
        rows.reshape(-1, 2, 4)[..., :3] += np.fromiter(noise, float, 6 * len(rows)).reshape(-1, 2, 3)
        rows[:, 2::4] = wrap_angles(rows[:, 2::4])
        return rows


class PlannerActor(Actor):
    """Follows a plan closed-loop (the nominal plan when none is given),
    advancing a step once its completion predicate holds against the live
    state, and holds pose once the plan is exhausted.  ``step`` is the plan
    step it last acted on, None once exhausted.

    Alone or in a batch it reads the live world as plain row values:
    ``proprio``, whose first values are the x, y, theta and grip of each arm
    in the layout of an action row (an observation row's ``PROPRIO_DIM``
    values come first), and ``holders``, each object's holding arm (None or
    -1 for none).  ``action_noise`` perturbs the executed targets while the
    clean command is recorded, so demonstrations cover a corrective tube
    around the nominal path instead of a single trajectory.
    """

    Batch = PlannerBatch

    def __init__(self, plan: tuple[PlanStep, ...] | None = None, action_noise: float = 0.0):
        self.plan = plan
        self.action_noise = action_noise

    def begin(self, cfg, state):
        plan = self.plan if self.plan is not None else plan_nominal(cfg, state)
        # Corrective steps lead a plan, as only its first objective can be
        # corrective (see ``plan_task_from_state``).  ``resumed_at``: the act
        # count at which the step after them became active; None before, and
        # for a plan without them, such as one that starts mid-carry.
        resume = next((k for k, step in enumerate(plan) if step.phase not in CORRECTIVE_PHASES), len(plan))
        if any(step.phase in CORRECTIVE_PHASES for step in plan[resume:]):
            raise InputError("a plan's corrective steps come before its other steps")
        self.cfg, self._steps, self.index, self.steps_in_phase = cfg, plan, 0, 0
        self._resume, self._acts_done, self.resumed_at = resume or None, 0, None
        self.step: PlanStep | None = None
        self.exhausted = False
        if self.action_noise > 0:
            self._rng = np.random.default_rng([state.rng_seed & 0xFFFFFFFFFFFFFFF, 0x401])
            self._noise: Iterator[list[float]] = iter(())

    def _complete(self, step: PlanStep, proprio: Sequence[float], holders: Sequence) -> bool:
        if step.completion is Completion.REACH:
            # The arm's distance to the target and the wrapped angle between them.
            o, target = 4 * step.arm, step.target
            return (math.hypot(proprio[o] - target.x, proprio[o + 1] - target.y) <= self.cfg.pos_tol
                    and abs(wrap_angle(proprio[o + 2] - target.theta)) <= self.cfg.ang_tol)
        if step.completion is Completion.HOLDING:
            return holders[step.object_index] == step.arm
        if step.completion is Completion.RELEASED:
            return step.arm not in holders
        if step.completion is Completion.GRIP_OPEN:
            return proprio[4 * step.arm + 3] < CLOSE_THRESHOLD
        if step.completion is Completion.ONE_STEP:
            return self.steps_in_phase >= 1
        raise AssertionError(step.completion)

    def _act(self, proprio: list[float], holders: Sequence) -> tuple[float, ...]:
        """Skip the completed steps and return the active one's action row
        for the live row values; with no step left, hold pose."""
        while self.index < len(self._steps):
            step = self._steps[self.index]
            if not self._complete(step, proprio, holders):
                break
            self.index += 1
            self._acts_done += self.steps_in_phase
            self.steps_in_phase = 0
            if self.index == self._resume:
                self.resumed_at = self._acts_done
        else:
            self.step, self.exhausted = None, True
            return tuple(proprio[:PROPRIO_DIM])
        self.step, grip = step, step.grip
        if step.completion is Completion.HOLDING and self.steps_in_phase < self.cfg.grasp_settle_steps:
            # Dwell open so the close happens at the commanded grasp target,
            # not wherever the approach happened to end.
            grip = GRIP_OPEN
        self.steps_in_phase += 1
        # The idle arm holds pose and grip so no accidental crossing occurs.
        p, target = proprio, step.target
        if step.arm == LEFT:
            return target.x, target.y, target.theta, grip, p[4], p[5], p[6], p[7]
        return p[0], p[1], p[2], p[3], target.x, target.y, target.theta, grip

    def act(self, state, obs):
        return self._act(obs.tolist(), state.holders)

    @property
    def stalled(self) -> bool:
        return self.steps_in_phase > self.cfg.phase_stall_limit

    def _next_noise(self) -> list[float]:
        """This frame's noise: dx, dy, dtheta of each arm."""
        noise = next(self._noise, None)
        if noise is None:
            block = self._rng.normal(0.0, self.action_noise, size=(_NOISE_BLOCK, 6)) * _NOISE_SCALES
            self._noise = iter(block.tolist())
            noise = next(self._noise)
        return noise

    def applied(self, action):
        if self.action_noise <= 0:
            return action
        row = list(action)
        # x, y, theta per arm in that order; a product by 2 is exact, so theta's
        # value equals a draw at twice the noise.
        noise = self._next_noise()
        for o, (dx, dy, dth) in ((0, noise[:3]), (4, noise[3:])):
            row[o:o + 3] = row[o] + dx, row[o + 1] + dy, wrap_angle(row[o + 2] + dth)
        return tuple(row)

    def corrective_acts(self):
        return self.resumed_at  # None, all Recovery, for a plan that starts mid-carry


class Takeover:
    """Hands control to the recovery planner at a verified adverse state.

    With ``recover=False``, or when no recovery plan exists, the episode ends
    there instead, as a pure failure.
    """

    def __init__(self, recover: bool = True):
        self.recover = recover
        self.handed_over = False
        self.failure: str | None = None

    def timeout_onset(self, n_frames: int) -> int | None:
        """Error onset of a takeover at the timeout; None ends the episode."""
        return None

    def watch(self, cfg: Config, t: int, before: WorldState, after: WorldState) -> None:
        """Observe one step of the actor before any takeover."""

    def hand_over(self, cfg: Config, state: WorldState) -> Actor | None:
        if not self.recover:
            return None
        try:
            plan = plan_recovery(cfg, state)
        except (UnrecoverableState, PlanningError) as exc:
            self.failure = str(exc)
            return None
        self.handed_over = True
        return PlannerActor(plan)

    def provenance(self, t_rec: int | None) -> dict:
        return {} if self.failure is None else {"recovery_failed": self.failure}


class TimeoutTakeover(Takeover):
    """Hands control to the recovery planner when the actor times out; the
    planner then has until ``episode_max_steps``.

    The Error onset is the first anomaly, a drop that leaves the object short
    of every objective it serves, or else the step after the last change in
    grasp state.
    """

    def __init__(self):
        super().__init__()
        self.anomaly_at: int | None = None
        self.last_progress = 0

    def timeout_onset(self, n_frames):
        return self.anomaly_at if self.anomaly_at is not None else min(self.last_progress + 1, n_frames - 1)

    def watch(self, cfg, t, before, after):
        for j, (was, now) in enumerate(zip(before.holders, after.holders)):
            if was == now:
                continue
            self.last_progress = t
            if self.anomaly_at is None and was is not None and now is None:
                objectives = [o for o in get_task(cfg, after.task_id).objectives if o.object_index == j]
                if not any(objective_satisfied(cfg, after, o) for o in objectives):
                    self.anomaly_at = t

    def provenance(self, t_rec):
        if self.failure is not None:
            return {"takeover": "unrecoverable"}
        if t_rec is not None:
            return {"takeover_at": t_rec, "anomaly_at": self.anomaly_at}
        return {"takeover": "failed"} if self.handed_over else {}


@dataclass
class Trial:
    """One episode for ``run_trials``: Nominal, then Error from an injected
    or drifting adverse state, then Recovery by a corrective actor, then a
    verdict.

    The episode ends at success, the timeout (``t > t_max``, and always at
    ``episode_max_steps``), a stall, or once the actor runs out of actions
    with no injection window open.  A trial with an ``error`` injects it
    when its trigger fires: for a ``PlannerActor``, on the first frame it
    acts on a step of the error's ``TRIGGER_PHASE``; for any other actor, at
    scene geometry (``_geometric_hits``).  Its draws come from ``seed``.
    The adverse state is verified when the window closes; a verified one
    starts recovery, by the takeover when given and otherwise by the actor
    itself.  An injection that never verified, at the close or because the
    episode ended first, leaves its frames Nominal.  A takeover may also
    take over at the timeout.  ``label`` names the episode id and
    ``provenance`` holds the caller's entries; the injection and takeover
    add theirs.  A trial is a description: each run resolves its own
    injection (``TrialRun``), so one trial may run again and gives the
    same episode.
    """

    actor: Actor
    task_id: str
    env_mode: EnvMode
    seed: int
    label: str
    provenance: dict
    t_max: int | None = None
    error: ErrorType | None = None
    takeover: Takeover | None = None


_NOMINAL, _ERROR, _RECOVERY = (tag.value for tag in (PhaseTag.NOMINAL, PhaseTag.ERROR, PhaseTag.RECOVERY))


class TrialRun:
    """One trial of ``run_trials``: its current actor, its deadline, and
    what its verdict needs.  ``t`` counts its frames (a lockstep run sets it
    only at the trial's events), and once the trial has ended ``frames``
    holds them, a (t, OBS_DIM + ACTION_DIM) array of observation and action
    rows.

    Besides its frames a trial records only its Error onset, its recovery
    start ``t_rec``, the frame ``began`` its current actor began on, the
    ``Injection`` its trigger resolved to, and ``verified``, the verdict on
    the adverse state it left (None until its window closes); ``verdict``
    derives every frame's tag.  ``plan_phase`` is the phase that fires a
    planner trial's trigger, and None for a geometric trigger or no error.
    The methods are the events both engines share.  A trial that steps
    alone (``_run_alone``) calls ``acted`` and ``settle`` every frame; a
    lockstep tick calls ``resolve`` and ``settle`` only when the trial has
    that event, and ``acted`` every tick only when its actor can run out or
    stall.
    """

    def __init__(self, cfg: Config, index: int, trial: Trial):
        self.index, self.trial = index, trial
        self.actor = trial.actor
        # The frame count at which the episode times out: the first t that
        # detect_failure(t, t_max) calls a failure, t_max + 1, and at the
        # latest episode_max_steps.
        self.deadline = int(cfg.episode_max_steps)
        if trial.t_max is not None:
            detect_failure(0, trial.t_max)  # InputError for a t_max that is not positive
            self.deadline = min(trial.t_max + 1, self.deadline)
        self.plan_phase = (TRIGGER_PHASE[trial.error.kind]
                           if trial.error is not None and isinstance(trial.actor, PlannerActor) else None)
        self.injection: Injection | None = None
        self.verified: bool | None = None
        self.t = 0
        self.onset: int | None = None
        self.t_rec: int | None = None
        self.done = self.succeeded = False
        self.frames: np.ndarray | None = None

    def begin(self, cfg: Config) -> WorldState:
        """The trial's first world, once its actor has begun on it."""
        trial = self.trial
        state = reset(cfg, trial.task_id, trial.env_mode, trial.seed)
        self._take(cfg, state, trial.actor)
        return state

    def _take(self, cfg: Config, state: WorldState, actor: Actor) -> None:
        """Begin ``actor`` on this frame."""
        actor.begin(cfg, state)
        self.actor, self.began = actor, self.t

    @property
    def episode_id(self) -> str:
        trial = self.trial
        return f"{trial.task_id}-{trial.env_mode.value.lower()}-{trial.label}-s{trial.seed:06d}"

    def resolve(self, hit: tuple[int, int | None]) -> Injection:
        """The trigger fires on this frame, at the arm and object ``hit``:
        the injection it resolves to, drawn once from the trial's seed."""
        error, t = self.trial.error, self.t
        rng = np.random.default_rng([self.trial.seed & 0xFFFFFFFFFFFFFFF, 0xE44])
        draws = (0.0, 0.0, 0.0)
        if error.kind is ErrorKind.E3_POSITION_OFFSET:
            dx, dy = rng.uniform(-error.offset_max, error.offset_max, size=2).tolist()
            draws = (dx, dy, 0.0)
        elif error.kind is ErrorKind.E4_ORIENTATION_MISMATCH:
            # Rotation magnitude in [max/2, max] guarantees a large mismatch.
            dth = float(rng.uniform(error.dtheta_max / 2.0, error.dtheta_max))
            dth *= 1.0 if rng.uniform() < 0.5 else -1.0
            lat = float(rng.uniform(error.lat_max / 2.0, error.lat_max))
            lat *= 1.0 if rng.uniform() < 0.5 else -1.0
            draws = (lat, 0.0, dth)
        self.injection = Injection(error, t, t + error.window_steps, *hit, draws)
        self.onset = t
        return self.injection

    def acted(self) -> bool:
        """After the actor acts: False, and the trial ends unrecorded, when
        the actor has run out with no injection pending verification."""
        if self.actor.exhausted and not (self.injection is not None and self.verified is None):
            self.done = True
            return False
        return True

    def _hand_over(self, cfg: Config, state: WorldState) -> bool:
        """Give control to the takeover's actor; False when it has none."""
        actor = self.trial.takeover.hand_over(cfg, state)
        if actor is None:
            return False
        self._take(cfg, state, actor)
        return True

    def settle(self, cfg: Config, state: WorldState | None, succeeded: bool) -> None:
        """After the step to ``state``, whose success is ``succeeded``: a
        stall, the verdict on the injection when its window closes, and
        success.  Only the verdict and a hand-over read ``state``, so a
        lockstep tick, whose trials have no takeover, passes None on frames
        where no window closes."""
        t, injection, takeover = self.t, self.injection, self.trial.takeover
        if self.actor.stalled:
            self.done = True
            return
        if injection is not None and t == injection.t_end:
            self.verified = verify_adverse(cfg, state, injection)
            if self.verified:
                self.t_rec = t
                if takeover is not None and not self._hand_over(cfg, state):
                    self.done = True
                    return
        if succeeded:
            self.succeeded = self.done = True

    def verdict(self) -> tuple[EpisodeKind, int | None, list[str]]:
        """The kind, recovery start and frame tags (``PhaseTag``
        values) of the ended trial.  A success with frames from ``t_rec`` on
        is a failure-recovery episode: Nominal before the onset, Error up to
        ``t_rec``, then Recovery for the frames the actor acted on before its
        first non-corrective act (all of them when ``corrective_acts`` is
        None), and Nominal after.  Any other success is a nominal episode,
        all Nominal, and a failure is a pure failure, Error from the onset.
        An injection that never verified leaves no onset."""
        t, t_rec = self.t, self.t_rec
        onset = None if self.trial.error is not None and not self.verified else self.onset
        if self.succeeded and t_rec is not None and t > t_rec:
            # The actor's act on frame t_rec is its act number t_rec - began.
            n, acts = t - t_rec, self.actor.corrective_acts()
            r = n if acts is None else min(max(acts - (t_rec - self.began), 0), n)
            tags = [_NOMINAL] * onset + [_ERROR] * (t_rec - onset) + [_RECOVERY] * r + [_NOMINAL] * (n - r)
            return EpisodeKind.FAILURE_RECOVERY, t_rec, tags
        if self.succeeded:
            return EpisodeKind.NOMINAL_SUCCESS, None, [_NOMINAL] * t
        onset = t if onset is None else onset
        return EpisodeKind.PURE_FAILURE, None, [_NOMINAL] * onset + [_ERROR] * (t - onset)

    def checked_verdict(self) -> tuple[EpisodeKind, int | None, list[str]]:
        """The verdict, once ``store.check_verdict`` has checked it and the
        trial's action rows, as building its ``Episode`` would; for callers
        that keep no episode."""
        kind, t_rec, tags = verdict = self.verdict()
        check_verdict(self.episode_id, self.frames[:, OBS_DIM:], tags, kind, t_rec)
        return verdict

    def _injection_provenance(self) -> dict:
        """The provenance entries of the ended trial's injection: the
        ``schedule`` it resolved to and ``adverse_verified``, and for a
        geometric trigger whether its window closed (``UNTRIGGERED`` when it
        never fired), for a plan-phase one the phase."""
        injection = self.injection
        if injection is None and self.plan_phase is None:
            return dict(UNTRIGGERED)
        schedule = {"window": None, "designated_arm": None, "object_index": None, "draws": {}}
        if injection is not None:
            kind, (dx, dy, dth) = injection.error.kind, injection.draws
            schedule = {
                "window": [injection.t_start, injection.t_end],
                "designated_arm": ARM_NAMES[injection.arm],
                "object_index": injection.object_index,
                "draws": ({"dp": (dx, dy)} if kind is ErrorKind.E3_POSITION_OFFSET
                          else {"dtheta": dth, "lat": (dx, dy)} if kind is ErrorKind.E4_ORIENTATION_MISMATCH
                          else {}),
            }
        entries = {"adverse_verified": bool(self.verified), "schedule": schedule}
        if self.plan_phase is None:
            entries["window_closed"] = self.t >= injection.t_end
        else:
            schedule["trigger_phase"] = self.plan_phase.value
        return entries

    def episode(self, cfg: Config) -> Episode:
        """The episode of the ended trial, with its verdict."""
        trial = self.trial
        kind, t_rec, tags = self.verdict()
        provenance = dict(trial.provenance)
        if trial.error is not None:
            provenance.update(self._injection_provenance())
        if trial.takeover is not None:
            provenance.update(trial.takeover.provenance(t_rec))
        return Episode(
            episode_id=self.episode_id,
            task_id=trial.task_id,
            instruction_id=get_task(cfg, trial.task_id).instruction_id,
            env_mode=trial.env_mode,
            seed=trial.seed,
            error_type=trial.error.kind.value if trial.error is not None else None,
            t_rec=t_rec,
            kind=kind,
            frames=Frames(self.frames[:, :OBS_DIM], self.frames[:, OBS_DIM:], tags,
                          np.full(self.t, np.nan)),
            provenance=provenance,
        )


# The values of one frame: its observation vector, then its action row.
_FRAME = OBS_DIM + ACTION_DIM


def _inject_rows(actions: np.ndarray, rows: np.ndarray, arm: np.ndarray, kind: np.ndarray,
                 draws: np.ndarray) -> None:
    """``inject`` of action rows ``rows`` in place, inside their windows:
    row k's injection has its designated ``arm[k]``, its kind
    ``_KINDS[kind[k]]`` and its draws (dx, dy, dtheta) ``draws[k]``."""
    cols = 4 * arm  # the arm's x, y, theta, grip
    grip = kind < 2  # E1 and E2 force the grip
    actions[rows[grip], cols[grip] + 3] = np.where(kind[grip] == 0, GRIP_CLOSED, GRIP_OPEN)
    rows, cols, draws, turn = rows[~grip], cols[~grip], draws[~grip], kind[~grip] == 3
    actions[rows, cols] += draws[:, 0]
    actions[rows, cols + 1] += draws[:, 1]
    rows, cols = rows[turn], cols[turn] + 2
    actions[rows, cols] = wrap_angles(actions[rows, cols] + draws[turn, 2])


class _Lockstep:
    """Two or more trials whose actors share one ``Actor.Batch``, stepped as
    one ``WorldBatch`` whose rows are the live trials in trial order.

    Its trials have no takeover and no planner with an error (see
    ``run_trials``), so a tick runs a trial's Python only at its
    events: its geometric trigger fires, its window closes, it succeeds or
    it reaches its deadline, and, for a batch that polls its actors, it runs
    out or stalls.  What a tick reads of every trial is kept in arrays over
    the live rows, which drop an ended trial's row, as the actors' batch
    does: deadlines, error kinds, unresolved triggers, and the windows, arms
    and draws of resolved ones.  Success is checked only after steps that
    can bring it (see ``_succeeded``).
    """

    def __init__(self, cfg: Config, runs: list[TrialRun], states: list[WorldState]):
        n = len(runs)
        self.cfg, self.live, self.t = cfg, runs, 0
        self.batch = type(runs[0].actor).Batch(cfg, [run.actor for run in runs])
        self.ids = np.arange(n)  # each live row's place in ``runs``
        self.world = WorldBatch.of(cfg, states)
        self.obs = observe_batch(self.world)
        errors = [run.trial.error for run in runs]
        self.deadline = np.array([run.deadline for run in runs])
        self.horizon = int(self.deadline.max())  # the largest live deadline
        self.frames = np.empty((n, self.horizon, _FRAME))  # trial k's frame t at [k, t]
        self.geometric = np.array([e is not None for e in errors])  # unresolved
        self.triggered = bool(self.geometric.any())  # else a tick skips the trigger arrays
        self.kind = np.array([0 if e is None else _KINDS.index(e.kind) for e in errors])
        self.t_end = np.full(n, -1)  # -1: no window; a resolved row's window opened at or before this tick
        self.arm, self.draws = np.zeros(n, dtype=int), np.zeros((n, 3))

    def _hooks(self, t: int) -> list[int]:
        """The live rows whose actor ran out or stalled on frame ``t``, asked
        just after the actors acted; a trial whose actor ran out ends there,
        unrecorded (see ``TrialRun.acted``)."""
        events = []
        for k, run in enumerate(self.live):
            if not run.acted():
                run.t = t
                events.append(k)
            elif run.actor.stalled:
                events.append(k)
        return events

    def _fire(self, t: int) -> None:
        """Resolve the unresolved geometric triggers whose condition holds
        before frame ``t``, and note their windows, arms and draws."""
        if not self.geometric.any():
            return
        for k, hit in _geometric_hits(self.cfg, self.world, self.geometric, self.kind):
            run = self.live[k]
            run.t = t
            injection = run.resolve(hit)
            self.geometric[k] = False
            self.t_end[k], self.arm[k], self.draws[k] = injection.t_end, injection.arm, injection.draws

    def _due(self, t: int) -> np.ndarray:
        """Which live trials reach their deadline at frame count ``t``."""
        return self.deadline <= t

    def _succeeded(self, before: WorldBatch, world: WorldBatch) -> np.ndarray:
        """``success_batch`` of the live rows of ``world``, stepped from
        ``before``.  A live row has not succeeded yet, and an unheld object
        never moves, so only an object that a step let go can make a row
        succeed.  A released object's holder falls to -1, below either arm,
        so after a step other than the first where no holder fell, no row
        has succeeded."""
        if self.t == 1 or np.any(world.holders < before.holders):
            return success_batch(self.cfg, world)
        return np.zeros(len(world), dtype=bool)

    def tick(self) -> list[TrialRun]:
        """Step the live trials once; returns those that ended."""
        cfg, t, live, ids = self.cfg, self.t, self.live, self.ids
        if self.triggered:
            self._fire(t)
        actions = self.batch.act(self.world, self.obs)
        hooked = self._hooks(t) if self.batch.polled else []
        if self.triggered:
            inside = t < self.t_end
            if inside.any():
                w = inside.nonzero()[0]
                _inject_rows(actions, w, self.arm[w], self.kind[w], self.draws[w])
        rows = slice(None) if len(ids) == len(self.frames) else ids
        self.frames[rows, t, :OBS_DIM] = self.obs
        self.frames[rows, t, OBS_DIM:] = actions
        before = self.world
        self.world = world = step_batch(cfg, before, self.batch.applied(actions))
        self.t = t = t + 1

        # A trial that ran out is over.  The rest: a stall, the window's
        # close and success (``settle``), then the deadline.
        succeeded, due = self._succeeded(before, world), self._due(t)
        events = succeeded | due
        if self.triggered:
            events |= self.t_end == t
        if hooked:
            events[hooked] = True
        ended = []
        for k in events.nonzero()[0].tolist():
            run = live[k]
            if not run.done:
                run.t = t
                run.settle(cfg, world[k] if self.triggered and self.t_end[k] == t else None, bool(succeeded[k]))
                run.done = run.done or bool(due[k])  # no takeover runs past it here
            if run.done:
                run.frames = self.frames[ids[k], :run.t].copy()  # a view would hold the batch's array
                ended.append(run)
        if ended:
            kept = [k for k, run in enumerate(live) if not run.done]
            self.live, self.ids, self.world = [live[k] for k in kept], ids[kept], world.take(kept)
            self.deadline, self.geometric, self.kind = self.deadline[kept], self.geometric[kept], self.kind[kept]
            if self.triggered:
                self.t_end, self.arm, self.draws = self.t_end[kept], self.arm[kept], self.draws[kept]
            if kept:
                self.horizon = int(self.deadline.max())
                self.batch.keep(kept)
        if self.live:
            if t >= self.horizon:
                raise SequencingError(f"lockstep tick {t} is past every live trial's deadline")
            self.obs = observe_batch(self.world)
        return ended


_ACTION_BYTES = struct.Struct(f"{ACTION_DIM}d")


def _run_alone(cfg: Config, run: TrialRun, state: WorldState) -> None:
    """Step one trial from its first world ``state`` to its end on the
    ``WorldState`` under ``Actor.act``'s action tuple, which costs less than a
    batch of one; both worlds give the same values bit for bit.  Each frame
    appends the float64 bytes of its observation and action to one flat
    array, ``run.frames`` at the end.  A frame: at the deadline, a takeover at
    the timeout takes over until ``episode_max_steps``, or the trial ends.  An
    unresolved geometric trigger fires at its condition (``_geometric_hits``
    of a one-row batch).  The actor acts, and an unresolved plan-phase
    trigger fires when the planner's ``step`` is in its phase.  The in-window
    action is injected and recorded, and the world steps.  Until recovery
    starts, the takeover watches the step; then ``settle``."""
    t, error, takeover, phase = run.t, run.trial.error, run.trial.takeover, run.plan_phase
    injection = None
    obs, values = observe(state), array("d")
    while True:
        if t >= run.deadline:
            if takeover is None or run.t_rec is not None:
                break
            run.onset = takeover.timeout_onset(t)
            if run.onset is None or not run._hand_over(cfg, state):
                break
            run.t_rec, run.deadline = t, int(cfg.episode_max_steps)
            if t >= run.deadline:
                break
        if error is not None and injection is None and phase is None:
            hits = _geometric_hits(cfg, WorldBatch.of(cfg, [state]), np.ones(1, dtype=bool),
                                   np.array([_KINDS.index(error.kind)]))
            if hits:
                injection = run.resolve(hits[0][1])
        action = run.actor.act(state, obs)
        if not run.acted():
            break
        if error is not None:
            if injection is None and phase is not None:
                current = run.actor.step  # a planner that has not run out acted on it
                if current.phase is phase:
                    injection = run.resolve((current.arm, current.object_index))
            if injection is not None and injection.in_window(t):
                action = inject(action, t, injection)
        values.frombytes(obs.tobytes() + _ACTION_BYTES.pack(*action))
        before, state = state, step(cfg, state, run.actor.applied(action))
        if takeover is not None and run.t_rec is None:
            takeover.watch(cfg, t, before, state)
        run.t = t = t + 1
        run.settle(cfg, state, success_check(cfg, state))
        if run.done:
            break
        obs = observe(state)
    run.done = True
    run.frames = np.frombuffer(values).reshape(t, _FRAME)


def run_trials(cfg: Config, trials: list[Trial]) -> Iterator[tuple[int, TrialRun]]:
    """Run ``trials`` and yield ``(index in trials, ended trial)`` as each
    ends; see ``Trial`` for the rules of a trial.

    A trial with a takeover, or a planner trial with an error, steps alone
    on its ``WorldState`` (``_run_alone``).  Two or more of the others whose
    actors are of one class and one ``Actor.Batch.key`` step in lockstep as
    one ``WorldBatch`` (``_Lockstep``); a lone one steps alone.  The lone
    trials run first, one after another in trial order, then the batches in
    the order of their first trials.  A batch yields its trials as they
    end, those that end on one tick in trial order.

    Every trial starts at tick 0 and records one frame a tick, so its frame
    count is the tick.  A batch tick is arrays from end to end: it fires
    the geometric triggers whose condition holds, hands the batch's
    observation rows to its actors' one ``Actor.Batch``, injects the
    in-window rows of the (M, ACTION_DIM) array it returns, records the
    tick's frames and steps the world once under the rows that batch
    executes; then it checks success, the windows that close and the
    deadlines.  Per-trial Python runs only for a trial's events, what the
    actors' batch runs and, for a polled batch, one question a tick; a
    trial's ``WorldState`` is built from its row only where an event reads
    one.  An ended trial leaves the batch at once.  Trials share no state:
    each keeps its own world, actor and RNGs.
    """
    for trial in trials:
        if trial.error is not None and isinstance(trial.takeover, TimeoutTakeover):
            raise InputError("a trial with an error cannot have a TimeoutTakeover: no tag rule covers both")
    runs = [TrialRun(cfg, i, trial) for i, trial in enumerate(trials)]
    states = [run.begin(cfg) for run in runs]
    keys: dict[tuple[type, object], list[int]] = {}
    for run in runs:
        trial, cls = run.trial, type(run.actor)
        if trial.takeover is None and run.plan_phase is None:
            keys.setdefault((cls, cls.Batch.key(run.actor)), []).append(run.index)
    groups = [ks for ks in keys.values() if len(ks) > 1]
    batches = [_Lockstep(cfg, [runs[k] for k in ks], [states[k] for k in ks]) for ks in groups]
    batched = set(chain.from_iterable(groups))
    lone = [(run, state) for run, state in zip(runs, states) if run.index not in batched]
    del runs, states  # ``lone`` and the batches hold the live trials
    for run, state in lone:
        _run_alone(cfg, run, state)
        yield run.index, run
    for batch in batches:
        while batch.live:
            for run in batch.tick():
                yield run.index, run


def run_episodes(cfg: Config, trials: list[Trial]) -> Iterator[tuple[int, Episode]]:
    """``run_trials``, yielding ``(index in trials, episode)`` as each
    trial ends."""
    for i, run in run_trials(cfg, trials):
        yield i, run.episode(cfg)


def nominal_trial(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    seed: int,
    t_max: int | None = None,
    action_noise: float = 0.0,
) -> Trial:
    """The trial of a nominal run, its plan made: PlanningError here when
    the seed's world has none."""
    plan = plan_nominal(cfg, reset(cfg, task_id, env_mode, seed))
    return Trial(PlannerActor(plan, action_noise), task_id, env_mode, seed, "nom",
                 {"generator": "nominal", "action_noise": action_noise}, t_max)


def run_nominal(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    seed: int,
    t_max: int | None = None,
    action_noise: float = 0.0,
) -> Episode:
    """Execute the expert plan with no injection; all frames tagged Nominal.

    ``action_noise`` perturbs the executed targets (see PlannerActor).
    """
    (_, episode), = run_episodes(cfg, [nominal_trial(cfg, task_id, env_mode, seed, t_max, action_noise)])
    return episode


def interception_trial(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    error: ErrorType,
    seed: int,
    t_max: int | None = None,
    recover: bool = True,
) -> Trial:
    """The trial of a five-step interception (plan, monitor, override,
    verify, recover), its nominal plan made: PlanningError here when the
    seed's world has none.

    The nominal plan executes until the planner acts on a step of the
    error's ``TRIGGER_PHASE`` and the run resolves its ``Injection``;
    in-window actions pass through ``inject``.  When the window closes,
    ``verify_adverse`` decides the episode's fate: verified states hand
    control to the recovery planner (frames tagged Recovery until the
    corrective phases finish, Nominal afterwards).  An injection that
    never verifies, at the close or because a timeout or stall came first,
    leaves an all-Nominal run flagged in provenance.  With ``recover=False``,
    or when recovery is impossible or times out, the episode is finalized as
    a pure failure with no Recovery tags.
    """
    plan = plan_nominal(cfg, reset(cfg, task_id, env_mode, seed))
    return Trial(PlannerActor(plan), task_id, env_mode, seed,
                 error.kind.value if recover else error.kind.value + "-pf",
                 {"generator": "interception", "e3_sampling": "per-axis-uniform"},
                 t_max, error, Takeover(recover))


def run_interception(cfg: Config, task_id: str, env_mode: EnvMode, error: ErrorType, seed: int,
                     t_max: int | None = None, recover: bool = True) -> Episode:
    """The episode of ``interception_trial``."""
    (_, episode), = run_episodes(cfg, [interception_trial(cfg, task_id, env_mode, error, seed, t_max, recover)])
    return episode
