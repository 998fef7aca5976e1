"""Interception-based error injection and paired failure-recovery generation.

Four deterministic overrides can be spliced into a running episode:

  E1 premature_close        grip forced closed during approach
  E2 grasp_slip             grip forced open during lift (30-frame window)
  E3 position_offset        per-axis uniform offset added to grasp targets
  E4 orientation_mismatch   large rotation plus lateral offset on grasp targets

Windows are half-open [t_start, t_start + length): the slip window covers
exactly 30 frames.  Random draws (offsets, rotation) happen exactly once per
episode when the schedule resolves at its trigger phase, so every in-window
action sees the same perturbation.  Recovery scoring elsewhere is gated on
``verify_adverse``: the error must have left its physical signature.

``run_trials`` is the one episode loop: it steps a list of trials and
hands back each ended trial, and ``run_episodes`` builds their episodes.
Expert demonstrations, interception, policy rollouts and policy-induced
collection differ only in the ``Trial``: the actor, the injection trigger
and the takeover they hand it.  Trials that need no per-frame Python and
whose actors are of one class step together as one ``world.WorldBatch``;
any other trial steps alone on its ``WorldState``.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import Config
from .errors import InputError, InsufficientData, PlanningError, PlanExhausted, SequencingError, UnrecoverableState
from .planner import (
    PlanExecutor,
    PlanPhase,
    PlanStep,
    plan_nominal,
    plan_recovery,
)
from .store import Episode, EpisodeKind, Frames, PhaseTag, check_verdict
from .world import (
    ACTION_DIM,
    ARM_NAMES,
    EnvMode,
    GRIP_CLOSED,
    GRIP_OPEN,
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
    kind = ErrorKind(kind) if isinstance(kind, str) else kind
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


@dataclass
class InjectionSchedule:
    """An injection's trigger, its window and draws resolved once per
    episode, and the verdict on the adverse state it left.

    The trigger is the plan phase ``trigger_phase`` of a planner actor or,
    when that is None, scene geometry, for actors without plan phases (see
    ``_geometric_hits``).
    """

    error: ErrorType
    trigger_phase: PlanPhase | None
    rng_seed: int
    t_start: int | None = None
    t_end: int | None = None
    arm: int | None = None
    object_index: int | None = None
    draws: dict = field(default_factory=dict)
    verified: bool | None = None

    @property
    def resolved(self) -> bool:
        return self.t_start is not None

    def resolve(self, t: int, arm: int, object_index: int | None) -> None:
        if self.resolved:
            raise SequencingError("injection schedule already resolved")
        self.t_start = t
        self.t_end = t + self.error.window_steps
        self.arm = arm
        self.object_index = object_index
        rng = np.random.default_rng([self.rng_seed & 0xFFFFFFFFFFFFFFF, 0xE44])
        kind = self.error.kind
        if kind is ErrorKind.E3_POSITION_OFFSET:
            d = self.error.offset_max
            dp = rng.uniform(-d, d, size=2)
            self.draws = {"dp": (float(dp[0]), float(dp[1]))}
        elif kind is ErrorKind.E4_ORIENTATION_MISMATCH:
            # Rotation magnitude in [max/2, max] guarantees a large mismatch;
            # lateral offset is perpendicular to the (vertical) approach.
            dth = float(rng.uniform(self.error.dtheta_max / 2.0, self.error.dtheta_max))
            dth *= 1.0 if rng.uniform() < 0.5 else -1.0
            lat = float(rng.uniform(self.error.lat_max / 2.0, self.error.lat_max))
            lat *= 1.0 if rng.uniform() < 0.5 else -1.0
            self.draws = {"dtheta": dth, "lat": (lat, 0.0)}

    def in_window(self, t: int) -> bool:
        return self.t_start is not None and self.t_start <= t < self.t_end

    @property
    def pending(self) -> bool:
        """Resolved, with the adverse state not yet verified."""
        return self.resolved and self.verified is None

    def provenance(self, n_frames: int) -> dict:
        if self.trigger_phase is None and not self.resolved:
            return dict(UNTRIGGERED)
        schedule = {
            "window": [self.t_start, self.t_end] if self.resolved else None,
            "designated_arm": ARM_NAMES[self.arm] if self.arm is not None else None,
            "object_index": self.object_index,
            "draws": self.draws,
        }
        entries = {"adverse_verified": bool(self.verified), "schedule": schedule}
        if self.trigger_phase is None:
            entries["window_closed"] = n_frames >= self.t_end
        else:
            schedule["trigger_phase"] = self.trigger_phase.value
        return entries


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


def inject(row: tuple[float, ...], t: int, schedule: InjectionSchedule) -> tuple[float, ...]:
    """Apply the schedule's error override to the designated arm's half of
    an action row inside the active window.

    Outside the window the row is returned untouched (the same object).
    """
    if not schedule.resolved:
        raise SequencingError("inject called before the schedule resolved")
    if not schedule.in_window(t):
        return row
    o = 4 * schedule.arm  # the arm's x, y, theta, grip
    out = list(row)
    kind = schedule.error.kind
    if kind is ErrorKind.E1_PREMATURE_CLOSE:
        out[o + 3] = GRIP_CLOSED
    elif kind is ErrorKind.E2_GRASP_SLIP:
        out[o + 3] = GRIP_OPEN
    elif kind is ErrorKind.E3_POSITION_OFFSET:
        dx, dy = schedule.draws["dp"]
        out[o] += dx
        out[o + 1] += dy
    else:
        lx, ly = schedule.draws["lat"]
        out[o] += lx
        out[o + 1] += ly
        out[o + 2] = wrap_angle(out[o + 2] + schedule.draws["dtheta"])
    return tuple(out)


def verify_adverse(cfg: Config, state: WorldState, schedule: InjectionSchedule) -> bool:
    """True iff the schedule's error left its physical signature on the state.

    E1/E3/E4: the designated object is not held by the designated arm after
    the grasp attempt.  E2: the object is detached and below carry height.
    """
    if not schedule.resolved:
        return False
    i = schedule.object_index or 0
    if schedule.error.kind is ErrorKind.E2_GRASP_SLIP:
        return state.holders[i] is None and state.object_poses[i].y < cfg.lift_y - cfg.pos_tol
    return state.holders[i] != schedule.arm


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


class Actor:
    """Closed-loop controller driven by ``run_trials``.

    An actor that runs out of actions sets ``exhausted`` and holds pose, and
    the episode ends at once, unless an injection window is still open: then
    it holds until the window closes and the injection is verified.  One that
    reports ``stalled`` ends the episode at once.  Both endings are failures.

    A lockstep batch holds actors of one class and reads the per-frame
    hooks, as tick events, only if they have them: the executed rows
    (``applied_all``, for a class that overrides ``applied``), and
    ``exhausted`` and ``stalled`` (for a class that overrides either, or an
    actor that sets ``exhausted`` in ``begin``).  The verdict reads
    ``corrective_acts`` once, after the trial has ended.
    """

    exhausted = False
    stalled = False

    def begin(self, cfg: Config, state: WorldState) -> None:
        raise NotImplementedError

    def act(self, state: WorldState, obs: np.ndarray) -> tuple[float, ...]:
        """The action row (see ``world.ACTION_DIM``) for the live state."""
        raise NotImplementedError

    @classmethod
    def act_all(cls, actors: list[Actor], states: Sequence[WorldState], obs: np.ndarray) -> np.ndarray:
        """The action rows of a lockstep batch's M actors, all of this class,
        in one tick, as a new (M, ACTION_DIM) array that the caller may write
        to; row k of ``states``, the batch's ``WorldBatch``, and of ``obs`` is
        actor k's.  Subclasses that can act together override it; this one
        acts one by one, and the batch builds a row's state as it is read."""
        rows = [actor.act(s, o) for actor, s, o in zip(actors, states, obs)]
        try:
            return np.array(rows, dtype=float).reshape(len(actors), ACTION_DIM)
        except ValueError:  # ragged rows, or rows of another length
            raise InputError(f"an action is a row of {ACTION_DIM} values, got {rows!r}") from None

    def applied(self, action: tuple[float, ...]) -> tuple[float, ...]:
        """The action the arms execute; ``action`` itself is what is
        recorded."""
        return action

    @classmethod
    def applied_all(cls, actors: list[Actor], actions: np.ndarray) -> np.ndarray:
        """``applied`` of M actors of this class for their recorded
        (M, ACTION_DIM) rows ``actions``: a new array, or ``actions``."""
        return np.array([actor.applied(tuple(row)) for actor, row in zip(actors, actions.tolist())], dtype=float)

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


class PlannerActor(Actor):
    """Follows a plan closed-loop (the nominal plan when none is given) and
    holds pose once the plan is exhausted.

    ``action_noise`` perturbs the executed targets while the clean command is
    recorded, so demonstrations cover a corrective tube around the nominal
    path instead of a single trajectory.  Alone or in a batch, its executor
    reads each frame's proprio row and holders as plain values (see
    ``PlanExecutor``); ``act_all`` reads a batch's rows once per tick.
    """

    def __init__(self, plan: tuple[PlanStep, ...] | None = None, action_noise: float = 0.0):
        self.plan = plan
        self.action_noise = action_noise

    def begin(self, cfg, state):
        plan = self.plan if self.plan is not None else plan_nominal(cfg, state)
        self.executor = PlanExecutor(cfg, plan)
        self.exhausted = False
        if self.action_noise > 0:
            self._rng = np.random.default_rng([state.rng_seed & 0xFFFFFFFFFFFFFFF, 0x401])
            self._noise: Iterator[list[float]] = iter(())

    def _act(self, proprio: list[float], holders: Sequence) -> tuple[float, ...]:
        try:
            return self.executor.next_action(proprio, holders)
        except PlanExhausted:
            self.exhausted = True
            return tuple(proprio[:PROPRIO_DIM])

    def act(self, state, obs):
        return self._act(obs.tolist(), state.holders)

    @classmethod
    def act_all(cls, actors, states, obs):
        proprio, holders = obs[:, :PROPRIO_DIM].tolist(), states.holders.tolist()
        rows = [actor._act(p, h) for actor, p, h in zip(actors, proprio, holders)]
        return np.array(rows, dtype=float).reshape(len(actors), ACTION_DIM)

    @property
    def stalled(self) -> bool:
        return self.executor.steps_in_phase > self.executor.cfg.phase_stall_limit

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

    @classmethod
    def applied_all(cls, actors, actions):
        noisy = [k for k, actor in enumerate(actors) if actor.action_noise > 0]
        if not noisy:
            return actions
        every = len(noisy) == len(actors)
        rows = actions.copy() if every else actions[noisy]
        noise = chain.from_iterable(actors[k]._next_noise() for k in noisy)
        # ``applied``'s sums, then its wraps of the theta columns (2 and 6) by ``wrap_angles``.
        rows.reshape(-1, 2, 4)[..., :3] += np.fromiter(noise, float, 6 * len(noisy)).reshape(-1, 2, 3)
        rows[:, 2::4] = wrap_angles(rows[:, 2::4])
        if every:
            return rows
        executed = actions.copy()
        executed[noisy] = rows
        return executed

    def corrective_acts(self):
        return self.executor.resumed_at  # None, all Recovery, for a plan that starts mid-carry


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
    with no injection window open.  A trigger injects its error and verifies
    the adverse state when the window closes; a verified one starts recovery,
    by the takeover when given and otherwise by the actor itself.  An
    injection that never verified, at the close or because the episode ended
    first, leaves its frames Nominal.  A takeover may also take over at the
    timeout.  ``label`` names the episode id and ``provenance`` holds the
    caller's entries; the trigger and takeover add theirs.
    """

    actor: Actor
    task_id: str
    env_mode: EnvMode
    seed: int
    label: str
    provenance: dict
    t_max: int | None = None
    trigger: InjectionSchedule | None = None
    takeover: Takeover | None = None


_NOMINAL, _ERROR, _RECOVERY = (tag.value for tag in (PhaseTag.NOMINAL, PhaseTag.ERROR, PhaseTag.RECOVERY))


def _overrides(obj, base: type, name: str) -> bool:
    return getattr(type(obj), name) is not getattr(base, name)


class TrialRun:
    """One trial of ``run_trials``: its current actor, its deadline, and
    what its verdict needs.  ``t`` counts its frames (a lockstep run sets it
    only at the trial's events), and once the trial has ended ``frames``
    holds them, a (t, OBS_DIM + ACTION_DIM) array of observation and action
    rows.

    Besides its frames a trial records only its Error onset, its recovery
    start ``t_rec`` and the frame ``began`` its current actor began on;
    ``verdict`` derives every frame's tag.  The methods are the events both
    engines share.  A trial that steps alone (``_run_alone``) calls
    ``acted`` and ``settle`` every frame; a lockstep tick calls ``resolve``
    and ``settle`` only when the trial has that event, and ``acted`` every
    tick only when its actor can run out or stall.
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

    @property
    def adverse_verified(self) -> bool:
        trigger = self.trial.trigger
        return trigger is not None and bool(trigger.verified)

    def resolve(self, hit: tuple[int, int | None]) -> None:
        """The trigger fires on this frame, at the arm and object ``hit``."""
        self.trial.trigger.resolve(self.t, *hit)
        self.onset = self.t

    def acted(self) -> bool:
        """After the actor acts: False, and the trial ends unrecorded, when
        the actor has run out with no injection pending."""
        trigger = self.trial.trigger
        if self.actor.exhausted and not (trigger is not None and trigger.pending):
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
        trial, t = self.trial, self.t
        trigger, takeover = trial.trigger, trial.takeover
        if self.actor.stalled:
            self.done = True
            return
        if trigger is not None and t == trigger.t_end:
            trigger.verified = verify_adverse(cfg, state, trigger)
            if trigger.verified:
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
        A trigger that never verified leaves no onset."""
        t, t_rec, trigger = self.t, self.t_rec, self.trial.trigger
        onset = None if trigger is not None and not trigger.verified else self.onset
        if self.succeeded and t_rec is not None and t > t_rec:
            onset = t_rec if onset is None else onset  # a timeout takeover past an unverified trigger
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

    def episode(self, cfg: Config) -> Episode:
        """The episode of the ended trial, with its verdict."""
        trial, trigger = self.trial, self.trial.trigger
        kind, t_rec, tags = self.verdict()
        provenance = dict(trial.provenance)
        if trigger is not None:
            provenance.update(trigger.provenance(self.t))
        if trial.takeover is not None:
            provenance.update(trial.takeover.provenance(t_rec))
        return Episode(
            episode_id=self.episode_id,
            task_id=trial.task_id,
            instruction_id=get_task(cfg, trial.task_id).instruction_id,
            env_mode=trial.env_mode,
            seed=trial.seed,
            error_type=trigger.error.kind.value if trigger is not None else None,
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
    row k's schedule has its designated ``arm[k]``, its kind
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
    """Two or more trials whose actors are of one class, stepped as one
    ``WorldBatch`` whose rows are the live trials in trial order.

    Its trials have no takeover and no plan-phase trigger (see
    ``run_trials``), so a tick runs a trial's Python only at its
    events: its geometric trigger fires, its window closes, it succeeds or
    it reaches its deadline, and, for actors with those hooks, it runs out
    or stalls.  What a tick reads of every trial is kept in arrays over the
    live rows, which drop an ended trial's row: deadlines, error kinds,
    unresolved triggers, and the windows, arms and draws of resolved ones.
    Success is checked only after steps that can bring it (see
    ``_succeeded``).  A tick acts
    with one ``act_all`` call of the class and, for a class that overrides
    ``applied``, executes the rows of one ``applied_all`` call.
    """

    def __init__(self, cfg: Config, runs: list[TrialRun], states: list[WorldState]):
        n = len(runs)
        self.cfg, self.live, self.t = cfg, runs, 0
        self.actors = actors = [run.actor for run in runs]
        self.cls = type(actors[0])
        self.ids = np.arange(n)  # each live row's place in ``runs``
        self.world = WorldBatch.of(cfg, states)
        self.obs = observe_batch(self.world)
        triggers = [run.trial.trigger for run in runs]
        self.deadline = np.array([run.deadline for run in runs])
        self.horizon = int(self.deadline.max())  # the largest live deadline
        self.frames = np.empty((n, self.horizon, _FRAME))  # trial k's frame t at [k, t]
        self.geometric = np.array([s is not None for s in triggers])  # unresolved
        self.triggered = bool(self.geometric.any())  # else a tick skips the trigger arrays
        self.kind = np.array([0 if s is None else _KINDS.index(s.error.kind) for s in triggers])
        self.t_end = np.full(n, -1)  # -1: no window; a resolved row's window opened at or before this tick
        self.arm, self.draws = np.zeros(n, dtype=int), np.zeros((n, 3))
        self.hooked = (_overrides(actors[0], Actor, "stalled") or _overrides(actors[0], Actor, "exhausted")
                       or any("exhausted" in vars(actor) for actor in actors))
        self.applies = _overrides(actors[0], Actor, "applied")

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
            trigger = run.trial.trigger
            run.t = t
            run.resolve(hit)
            self.geometric[k] = False
            self.t_end[k], self.arm[k] = trigger.t_end, trigger.arm
            dx, dy = trigger.draws.get("dp", trigger.draws.get("lat", (0.0, 0.0)))
            self.draws[k] = dx, dy, trigger.draws.get("dtheta", 0.0)

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
        actions = self.cls.act_all(self.actors, self.world, self.obs)
        hooked = self._hooks(t) if self.hooked else []
        if self.triggered:
            inside = t < self.t_end
            if inside.any():
                w = inside.nonzero()[0]
                _inject_rows(actions, w, self.arm[w], self.kind[w], self.draws[w])
        rows = slice(None) if len(ids) == len(self.frames) else ids
        self.frames[rows, t, :OBS_DIM] = self.obs
        self.frames[rows, t, OBS_DIM:] = actions
        if self.applies:
            actions = self.cls.applied_all(self.actors, actions)
        before = self.world
        self.world = world = step_batch(cfg, before, actions)
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
                self.actors = [run.actor for run in self.live]
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
    unresolved trigger fires at its plan phase or its geometric condition
    (``_geometric_hits`` of a one-row batch).  The actor acts, the in-window
    action is injected and recorded, and the world steps.  Until recovery
    starts, the takeover watches the step; then ``settle``."""
    t, trigger, takeover = run.t, run.trial.trigger, run.trial.takeover
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
        if trigger is not None and not trigger.resolved:
            if trigger.trigger_phase is None:
                hits = _geometric_hits(cfg, WorldBatch.of(cfg, [state]), np.ones(1, dtype=bool),
                                       np.array([_KINDS.index(trigger.error.kind)]))
                hit = hits[0][1] if hits else None
            else:
                try:
                    current = run.actor.executor.current_step(obs.tolist(), state.holders)
                    hit = (current.arm, current.object_index) if current.phase is trigger.trigger_phase else None
                except PlanExhausted:
                    hit = None
            if hit is not None:
                run.resolve(hit)
        action = run.actor.act(state, obs)
        if not run.acted():
            break
        if trigger is not None and trigger.in_window(t):
            action = inject(action, t, trigger)
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

    A trial with a takeover or a plan-phase trigger steps alone on its
    ``WorldState`` (``_run_alone``).  Two or more of the others whose
    actors are of one class step in lockstep as one ``WorldBatch``
    (``_Lockstep``), and a class's one trial steps alone.  The lone trials
    run first, one after another in trial order, then the class batches in
    the order of their first trials.  A batch yields its trials as they
    end, those that end on one tick in trial order.

    Every trial starts at tick 0 and records one frame a tick, so its frame
    count is the tick.  A batch tick is arrays from end to end: it fires
    the geometric triggers whose condition holds, hands the batch's
    observation rows to one ``Actor.act_all`` call of its class, injects
    the in-window rows of the (M, ACTION_DIM) array it returns, records the
    tick's frames and steps the world once under the executed rows (see
    ``Actor.applied_all``); then it checks success, the windows that close
    and the deadlines.  Per-trial Python runs only for a trial's events, an
    actor's ``act_all`` and, for actors that can run out or stall, one
    question a tick; a trial's ``WorldState`` is built from its row only
    where an event reads one.  An ended trial leaves the batch at once.
    Trials share no state: each keeps its own world, actor and RNGs.
    """
    for trial in trials:
        if trial.trigger is not None and isinstance(trial.takeover, TimeoutTakeover):
            raise InputError("a trial with a trigger cannot have a TimeoutTakeover: no tag rule covers both")
    runs = [TrialRun(cfg, i, trial) for i, trial in enumerate(trials)]
    states = [run.begin(cfg) for run in runs]
    classes: dict[type, list[int]] = {}
    for run in runs:
        trial = run.trial
        if trial.takeover is None and (trial.trigger is None or trial.trigger.trigger_phase is None):
            classes.setdefault(type(run.actor), []).append(run.index)
    groups = [ks for ks in classes.values() if len(ks) > 1]
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

    The nominal plan executes until the error's trigger phase resolves the
    injection window; in-window actions pass through ``inject``.  When the
    window closes, ``verify_adverse`` decides the episode's fate: verified
    states hand control to the recovery planner (frames tagged Recovery until
    the corrective phases finish, Nominal afterwards).  An injection that
    never verifies, at the close or because a timeout or stall came first,
    leaves an all-Nominal run flagged in provenance.  With ``recover=False``,
    or when recovery is impossible or times out, the episode is finalized as
    a pure failure with no Recovery tags.
    """
    plan = plan_nominal(cfg, reset(cfg, task_id, env_mode, seed))
    return Trial(PlannerActor(plan), task_id, env_mode, seed,
                 error.kind.value if recover else error.kind.value + "-pf",
                 {"generator": "interception", "e3_sampling": "per-axis-uniform"},
                 t_max, InjectionSchedule(error, TRIGGER_PHASE[error.kind], seed), Takeover(recover))


def run_interception(cfg: Config, task_id: str, env_mode: EnvMode, error: ErrorType, seed: int,
                     t_max: int | None = None, recover: bool = True) -> Episode:
    """The episode of ``interception_trial``."""
    (_, episode), = run_episodes(cfg, [interception_trial(cfg, task_id, env_mode, error, seed, t_max, recover)])
    return episode
