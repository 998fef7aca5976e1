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

``run_episodes`` is the one episode loop: it steps a list of trials in
lockstep, and ``run_episode`` is its one-trial call.  Expert demonstrations,
interception, policy rollouts and policy-induced collection differ only in
the actor, the injection trigger and the takeover they hand it.  Many trials
step as one ``world.WorldBatch``; a single trial steps its ``WorldState``.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import Config
from .errors import InputError, InsufficientData, PlanningError, PlanExhausted, SequencingError, UnrecoverableState
from .planner import (
    CORRECTIVE_PHASES,
    PlanExecutor,
    PlanPhase,
    PlanStep,
    plan_nominal,
    plan_recovery,
)
from .store import Episode, EpisodeKind, Frames, Outcome, PhaseTag, validate_episode
from .world import (
    ACTION_DIM,
    ARM_NAMES,
    EnvMode,
    GRIP_CLOSED,
    GRIP_OPEN,
    LEFT,
    NUM_OBJECT_SLOTS,
    OBS_DIM,
    RIGHT,
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
    ``_geometric_trigger``).
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

    def hit(self, cfg: Config, state: WorldState, actor: Actor) -> tuple[int, int | None] | None:
        """(arm, object index) to resolve at once the trigger condition holds."""
        if self.trigger_phase is None:
            return _geometric_trigger(cfg, state, self.error.kind)
        try:
            current = actor.executor.current_step(state)
        except PlanExhausted:
            return None
        return (current.arm, current.object_index) if current.phase is self.trigger_phase else None

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


def _geometric_trigger(cfg: Config, state: WorldState, kind: ErrorKind) -> tuple[int, int] | None:
    """(arm, object index) once scene geometry calls for the injection.

    E2 fires on the first frame an object is held (lift beginning); E3/E4 on
    first entry within grasp_radius (grasp initiation); E1 on entry within the
    approach standoff, early enough that the forced close precedes contact.
    """
    if kind is ErrorKind.E2_GRASP_SLIP:
        for i, holder in enumerate(state.holders):
            if holder is not None:
                return holder, i
        return None
    radius = cfg.approach_standoff if kind is ErrorKind.E1_PREMATURE_CLOSE else cfg.grasp_radius
    for arm in (LEFT, RIGHT):
        for i, (pose, holder) in enumerate(zip(state.object_poses, state.holders)):
            if holder is None and pose.distance(state.arm_poses[arm]) <= radius:
                return arm, i
    return None


def _geometric_hits(cfg: Config, batch: WorldBatch, runs: list[_Run]) -> dict[int, tuple[int, int] | None]:
    """``_geometric_trigger`` by batch row of every run whose geometric
    schedule is unresolved, from one array expression over the batch."""
    kinds = {}
    for run in runs:
        trigger = run.trial.trigger
        if trigger is not None and trigger.trigger_phase is None and not trigger.resolved:
            kinds[run.row] = trigger.error.kind
    if not kinds:
        return {}
    radius = np.full(len(batch), cfg.grasp_radius)
    radius[[row for row, kind in kinds.items() if kind is ErrorKind.E1_PREMATURE_CLOSE]] = cfg.approach_standoff
    near = free_objects_within(batch, radius).reshape(len(batch), -1)  # arm-major: the (arm, object) order
    first_near, any_near = near.argmax(axis=1).tolist(), near.any(axis=1).tolist()
    held = batch.holders >= 0
    first_held, any_held = held.argmax(axis=1).tolist(), held.any(axis=1).tolist()
    hits = {}
    for row, kind in kinds.items():
        if kind is ErrorKind.E2_GRASP_SLIP:
            i = first_held[row]
            hits[row] = (int(batch.holders[row, i]), i) if any_held[row] else None
        else:
            hits[row] = divmod(first_near[row], NUM_OBJECT_SLOTS) if any_near[row] else None
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


def success_durations(episodes: Iterable[Episode]) -> list[int]:
    return [len(ep.frames) for ep in episodes if ep.outcome is Outcome.SUCCESS]


def max_nominal_duration(episodes: Iterable[Episode]) -> int:
    """Timeout budget: the maximum duration among successful nominal episodes."""
    durations = success_durations(episodes)
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
    """Closed-loop controller driven by ``run_episodes``.

    An actor that runs out of actions sets ``exhausted`` and holds pose, and
    the episode ends at once, unless an injection window is still open: then
    it holds until the window closes and the injection is verified.  One that
    reports ``stalled`` ends the episode at once.  Both endings are failures.
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
        """The action rows of M actors of this class in one lockstep tick, as
        a new (M, ACTION_DIM) array that the caller may write to; row k of
        ``obs`` is actor k's observation.  Subclasses that can act together
        override it; this one acts one by one.  A lockstep run builds each
        state only when it is read."""
        rows = [actor.act(s, o) for actor, s, o in zip(actors, states, obs)]
        try:
            return np.array(rows, dtype=float).reshape(len(actors), ACTION_DIM)
        except ValueError:  # ragged rows, or rows of another length
            raise InputError(f"an action is a row of {ACTION_DIM} values, got {rows!r}") from None

    def applied(self, action: tuple[float, ...]) -> tuple[float, ...]:
        """The action the arms execute; ``action`` itself is what is
        recorded.  Lockstep runs call it only for classes that override it."""
        return action

    def recovery_tag(self) -> PhaseTag:
        """Tag of the frame just acted on, once recovery has begun."""
        return PhaseTag.RECOVERY


# Expert action noise per arm: x and y at the noise scale, theta at twice it.
_NOISE_SCALES = np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0])


class PlannerActor(Actor):
    """Follows a plan closed-loop (the nominal plan when none is given) and
    holds pose once the plan is exhausted.

    ``action_noise`` perturbs the executed targets while the clean command is
    recorded, so demonstrations cover a corrective tube around the nominal
    path instead of a single trajectory.
    """

    def __init__(self, plan: tuple[PlanStep, ...] | None = None, action_noise: float = 0.0):
        self.plan = plan
        self.action_noise = action_noise

    def begin(self, cfg, state):
        plan = self.plan if self.plan is not None else plan_nominal(cfg, state)
        self.executor = PlanExecutor(cfg, plan)
        self.exhausted = False
        # A plan that starts mid-carry has no corrective phases; the whole
        # intervention then counts as recovery, keeping the tag grammar.
        self._carry_on = plan[0].phase not in CORRECTIVE_PHASES
        if self.action_noise > 0:
            self._rng = np.random.default_rng([state.rng_seed & 0xFFFFFFFFFFFFFFF, 0x401])

    def act(self, state, obs):
        try:
            return self.executor.next_action(state)
        except PlanExhausted:
            self.exhausted = True
            (left, right), (left_grip, right_grip) = state.arm_poses, state.grips
            return (left.x, left.y, left.theta, left_grip, right.x, right.y, right.theta, right_grip)

    @property
    def stalled(self) -> bool:
        return self.executor.steps_in_phase > self.executor.cfg.phase_stall_limit

    def applied(self, action):
        if self.action_noise <= 0:
            return action
        row = list(action)
        # x, y, theta per arm in that order; a product by 2 is exact, so theta's
        # value equals a draw at twice the noise.
        noise = (self._rng.normal(0.0, self.action_noise, size=6) * _NOISE_SCALES).tolist()
        for o, (dx, dy, dth) in ((0, noise[:3]), (4, noise[3:])):
            row[o:o + 3] = row[o] + dx, row[o + 1] + dy, wrap_angle(row[o + 2] + dth)
        return tuple(row)

    def recovery_tag(self):
        phase = self.executor.plan[self.executor.index].phase
        return PhaseTag.RECOVERY if self._carry_on or phase in CORRECTIVE_PHASES else PhaseTag.NOMINAL


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
    """One episode for ``run_episodes``; the fields are ``run_episode``'s
    parameters after the config."""

    actor: Actor
    task_id: str
    env_mode: EnvMode
    seed: int
    label: str
    provenance: dict
    t_max: int | None = None
    trigger: InjectionSchedule | None = None
    takeover: Takeover | None = None


class _Run:
    """The live state of one trial: its world, its current actor and what it
    records, stepped a tick at a time.  In a lockstep batch its world is
    row ``row`` of ``world``.

    A trial records its frames, ``t`` of them so far, each frame's
    observation vector and action row packed into one flat float64 array:
    about half the memory of keeping the observation array and the action
    tuple.  It also records its Error onset, its recovery start ``t_rec`` and
    the actor's ``recovery_tag`` of each frame from ``t_rec`` on;
    ``verdict`` derives every frame's tag from these.
    """

    def __init__(self, cfg: Config, index: int, trial: Trial):
        self.index, self.trial = index, trial
        self.state = reset(cfg, trial.task_id, trial.env_mode, trial.seed)
        self.actor = trial.actor
        self.actor.begin(cfg, self.state)
        self.t_max = trial.t_max
        self.values = array("d")
        self.t = 0
        self.onset: int | None = None
        self.t_rec: int | None = None
        self.recovery_tags: list[PhaseTag] = []
        self.done = self.succeeded = False

    @cached_property
    def state(self) -> WorldState:
        """The trial's world: set by a one-trial run, and in a batch built
        from the trial's row on the first read after a step."""
        return self.world[self.row]

    def ready(self, cfg: Config, hits: dict[int, tuple[int, int] | None]) -> bool:
        """The bookkeeping before the actor acts: the timeout, with a
        takeover there, and the trigger, whose hit is read from ``hits`` by
        row when the batch has evaluated it.  False once the episode has
        ended."""
        trial, t = self.trial, self.t
        while (self.t_max is not None and detect_failure(t, self.t_max)) or t >= cfg.episode_max_steps:
            if trial.takeover is not None and self.t_rec is None:
                self.onset = trial.takeover.timeout_onset(t)
                if self.onset is not None and self._hand_over(cfg):
                    self.t_rec, self.t_max = t, None
                    continue
            self.done = True
            return False
        trigger = trial.trigger
        if trigger is not None and not trigger.resolved:
            hit = hits[self.row] if self.row in hits else trigger.hit(cfg, self.state, self.actor)
            if hit is not None:
                trigger.resolve(t, *hit)
                self.onset = t
        return True

    def _hand_over(self, cfg: Config) -> bool:
        """Give control to the takeover's actor; False when it has none."""
        actor = self.trial.takeover.hand_over(cfg, self.state)
        if actor is None:
            return False
        actor.begin(cfg, self.state)
        self.actor = actor
        return True

    def record(self) -> bool | None:
        """Whether the frame the actor has just acted on lies in the
        injection window, where the caller injects its action; None once the
        episode has ended.  Keeps the state before the step for a watching
        takeover, and the actor's tag of a frame from ``t_rec`` on."""
        trial, actor = self.trial, self.actor
        trigger = trial.trigger
        if actor.exhausted and not (trigger is not None and trigger.pending):
            self.done = True
            return None
        self.before = self.state if trial.takeover is not None and self.t_rec is None else None
        if self.t_rec is not None:
            self.recovery_tags.append(actor.recovery_tag())
        return trigger is not None and trigger.in_window(self.t)

    def add(self, frame: bytes) -> None:
        """Append a frame: the float64 bytes of its observation vector, then
        of its action row."""
        self.values.frombytes(frame)
        self.t += 1

    def settle(self, cfg: Config, state: WorldState | None, succeeded: bool) -> None:
        """Take the stepped world and its success: ``state``, or None when the
        trial's batch row holds it.  Then check the window, the verdict on
        the injection and success."""
        if state is None:
            vars(self).pop("state", None)
        else:
            self.state = state
        trial, t = self.trial, self.t
        trigger, takeover = trial.trigger, trial.takeover
        if self.before is not None:
            takeover.watch(cfg, t - 1, self.before, self.state)
        if self.actor.stalled:
            self.done = True
            return
        if trigger is not None and t == trigger.t_end:
            trigger.verified = verify_adverse(cfg, self.state, trigger)
            if trigger.verified:
                self.t_rec = t
                if takeover is not None and not self._hand_over(cfg):
                    self.done = True
                    return
        if succeeded:
            self.succeeded = self.done = True

    def verdict(self) -> tuple[Outcome, EpisodeKind, int | None, list[PhaseTag]]:
        """The outcome, kind, recovery start and frame tags of the ended
        trial.  A success with frames from ``t_rec`` on is a failure-recovery
        episode: Nominal before the onset, Error up to ``t_rec``, then the
        actor's tags.  Any other success is a nominal episode, all Nominal,
        and a failure is a pure failure, Error from the onset.  A trigger
        that never verified leaves no onset."""
        t, t_rec, trigger = self.t, self.t_rec, self.trial.trigger
        onset = None if trigger is not None and not trigger.verified else self.onset
        if self.succeeded and t_rec is not None and t > t_rec:
            onset = t_rec if onset is None else onset  # a timeout takeover past an unverified trigger
            tags = [PhaseTag.NOMINAL] * onset + [PhaseTag.ERROR] * (t_rec - onset) + self.recovery_tags
            return Outcome.SUCCESS, EpisodeKind.FAILURE_RECOVERY, t_rec, tags
        if self.succeeded:
            return Outcome.SUCCESS, EpisodeKind.NOMINAL_SUCCESS, None, [PhaseTag.NOMINAL] * t
        onset = t if onset is None else onset
        tags = [PhaseTag.NOMINAL] * onset + [PhaseTag.ERROR] * (t - onset)
        return Outcome.FAILURE, EpisodeKind.PURE_FAILURE, None, tags

    def episode(self, cfg: Config) -> Episode:
        """The validated episode of the ended trial, with its verdict."""
        trial, trigger = self.trial, self.trial.trigger
        outcome, kind, t_rec, tags = self.verdict()
        provenance = dict(trial.provenance)
        if trigger is not None:
            provenance.update(trigger.provenance(self.t))
        if trial.takeover is not None:
            provenance.update(trial.takeover.provenance(t_rec))
        table = np.frombuffer(self.values).reshape(self.t, OBS_DIM + ACTION_DIM)
        episode = Episode(
            episode_id=f"{trial.task_id}-{trial.env_mode.value.lower()}-{trial.label}-s{trial.seed:06d}",
            task_id=trial.task_id,
            instruction_id=get_task(cfg, trial.task_id).instruction_id,
            env_mode=trial.env_mode,
            seed=trial.seed,
            error_type=trigger.error.kind.value if trigger is not None else None,
            t_rec=t_rec,
            outcome=outcome,
            kind=kind,
            frames=Frames(table[:, :OBS_DIM], table[:, OBS_DIM:], [tag.value for tag in tags],
                          np.full(self.t, np.nan)),
            provenance=provenance,
        )
        validate_episode(episode)
        return episode


class _States:
    """The states of runs, a sequence whose items are built when read (see
    ``_Run.state``)."""

    def __init__(self, runs: list[_Run]):
        self.runs = runs

    def __len__(self) -> int:
        return len(self.runs)

    def __getitem__(self, i: int) -> WorldState:
        return self.runs[i].state

    def __iter__(self) -> Iterator[WorldState]:
        return (run.state for run in self.runs)


def _act(runs: list[_Run], obs: np.ndarray) -> np.ndarray:
    """The (M, ACTION_DIM) action rows of M lockstep ``runs``, whose
    observations are the rows of ``obs``, with one ``act_all`` call per actor
    class."""
    groups: dict[type, list[int]] = {}
    for k, run in enumerate(runs):
        groups.setdefault(type(run.actor), []).append(k)
    if len(groups) == 1:  # one class: the rows are in order
        cls, = groups
        return cls.act_all([run.actor for run in runs], _States(runs), obs)
    actions = np.empty((len(runs), ACTION_DIM))
    for cls, ks in groups.items():
        members = [runs[k] for k in ks]
        actions[ks] = cls.act_all([run.actor for run in members], _States(members), obs[ks])
    return actions


# The bytes of one recorded frame: its observation vector and action row.
_FRAME_BYTES = 8 * (OBS_DIM + ACTION_DIM)
_ACTION_BYTES = struct.Struct(f"{ACTION_DIM}d")


def _record(runs: list[_Run], obs: np.ndarray, actions: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Record a lockstep tick's frames, row k of ``obs`` and ``actions`` for
    run k, with the in-window rows injected in place first.  Returns the
    indices of the runs that step on, and the action rows their arms
    execute."""
    moving = []
    for k, run in enumerate(runs):
        injecting = run.record()
        if injecting is not None:
            if injecting:
                actions[k] = inject(tuple(actions[k].tolist()), run.t, run.trial.trigger)
            moving.append(k)
    frames = np.concatenate([obs, actions], axis=1).tobytes()
    for k in moving:
        run = runs[k]
        run.add(frames[k * _FRAME_BYTES:(k + 1) * _FRAME_BYTES])
        if type(run.actor).applied is not Actor.applied:
            actions[k] = run.actor.applied(tuple(actions[k].tolist()))
    return moving, actions if len(moving) == len(runs) else actions[moving]


def run_episodes(cfg: Config, trials: list[Trial]) -> Iterator[tuple[int, Episode]]:
    """Run ``trials`` in lockstep and yield ``(index in trials, episode)`` as
    each ends.

    Each tick does every live trial's bookkeeping (see ``run_episode``), then
    the actions of all acting trials, then records them, steps the world
    once, and does each trial's window and verdict checks.  Two or more
    trials step as one ``WorldBatch``, which also evaluates their geometric
    triggers at once.  Their tick is arrays from end to end: the batch's
    observation rows go to one ``Actor.act_all`` call per actor class, and
    the (M, ACTION_DIM) action rows it returns are recorded with one
    conversion and stepped as they are; only in-window rows, which
    ``inject`` rewrites, and the rows of actors that override
    ``Actor.applied`` are taken out as tuples.  A trial's ``WorldState`` is
    built from its row only where code reads one (planner actors, plan-phase
    triggers, takeovers, the verdict).  A single trial steps its
    ``WorldState`` under the tuple its actor's ``act`` returns, which costs
    less than a batch of one; both worlds give the same values bit for bit.
    Trials share no state: each keeps its own world, actor and RNGs.  An
    ended trial leaves the batch at once, as a validated episode.
    """
    live = [_Run(cfg, i, trial) for i, trial in enumerate(trials)]
    batched = len(live) > 1
    world = WorldBatch.of(cfg, [run.state for run in live]) if batched else None
    for row, run in enumerate(live):
        run.world, run.row = world, row
    # The live trials' observations: the batch's rows, or the one trial's.
    obs = observe_batch(world) if batched else [observe(run.state) for run in live]
    while live:
        if batched:
            world, obs = _lockstep_tick(cfg, world, obs, live)
        else:
            obs = [_single_tick(cfg, live[0], obs[0])]
        for run in live:
            if run.done:
                yield run.index, run.episode(cfg)
        live = [run for run in live if not run.done]


def _lockstep_tick(cfg: Config, world: WorldBatch, obs: np.ndarray,
                   live: list[_Run]) -> tuple[WorldBatch, np.ndarray]:
    """One tick of ``live``, the runs of the batch ``world``, whose
    observations are the rows of ``obs``; returns the stepped batch of the
    runs that moved, and its observations."""
    hits = _geometric_hits(cfg, world, live)
    acting = [run for run in live if run.ready(cfg, hits)]
    rows = [run.row for run in acting]
    seen = obs if len(rows) == len(obs) else obs[rows]
    moving, applied = _record(acting, seen, _act(acting, seen))
    world = step_batch(cfg, world.take([rows[k] for k in moving]), applied)
    succeeded = success_batch(cfg, world).tolist()
    for row, k in enumerate(moving):
        run = acting[k]
        run.world, run.row = world, row
        run.settle(cfg, None, succeeded[row])
    return world, observe_batch(world)


def _single_tick(cfg: Config, run: _Run, obs: np.ndarray) -> np.ndarray:
    """One tick of a single run on its ``WorldState``, under the action
    tuple of ``Actor.act``; returns the next observation."""
    if not run.ready(cfg, {}):
        return obs
    action = run.actor.act(run.state, obs)
    injecting = run.record()
    if injecting is None:
        return obs
    if injecting:
        action = inject(action, run.t, run.trial.trigger)
    run.add(obs.tobytes() + _ACTION_BYTES.pack(*action))
    state = step(cfg, run.state, run.actor.applied(action))
    run.settle(cfg, state, success_check(cfg, state))
    return observe(state)


def run_episode(
    cfg: Config,
    actor: Actor,
    task_id: str,
    env_mode: EnvMode,
    seed: int,
    label: str,
    provenance: dict,
    t_max: int | None = None,
    trigger: InjectionSchedule | None = None,
    takeover: Takeover | None = None,
) -> Episode:
    """Run one episode: Nominal, then Error from an injected or drifting
    adverse state, then Recovery by a corrective actor, then a verdict.

    The episode ends at success, the timeout (``t > t_max``, and always at
    ``episode_max_steps``), a stall, or once the actor runs out of actions
    with no injection window open.  A trigger injects its error and verifies
    the adverse state when the window closes; a verified one starts recovery,
    by the takeover when given and otherwise by the actor itself.  An
    injection that never verified, at the close or because the episode ended
    first, leaves its frames Nominal.  A takeover may also take over at the
    timeout.  ``label`` names the episode id and ``provenance`` holds the
    caller's entries; the trigger and takeover add theirs.  This is the
    one-trial call of ``run_episodes``.
    """
    trial = Trial(actor, task_id, env_mode, seed, label, provenance, t_max, trigger, takeover)
    (_, episode), = run_episodes(cfg, [trial])
    return episode


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
    return run_episode(
        cfg, PlannerActor(action_noise=action_noise), task_id, env_mode, seed, "nom",
        {"generator": "nominal", "action_noise": action_noise}, t_max=t_max,
    )


def run_interception(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    error: ErrorType,
    seed: int,
    t_max: int | None = None,
    recover: bool = True,
) -> Episode:
    """Five-step interception: plan, monitor, override, verify, recover.

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
    return run_episode(
        cfg, PlannerActor(), task_id, env_mode, seed,
        error.kind.value if recover else error.kind.value + "-pf",
        {"generator": "interception", "e3_sampling": "per-axis-uniform"},
        t_max=t_max, trigger=InjectionSchedule(error, TRIGGER_PHASE[error.kind], seed),
        takeover=Takeover(recover),
    )
