import gc
import json
import weakref
from collections import Counter
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from recoverylab import faults
from recoverylab.errors import ConfigError, InputError, InsufficientData, SequencingError
from recoverylab.faults import (
    ErrorKind,
    PlannerActor,
    TRIGGER_PHASE,
    Takeover,
    TimeoutTakeover,
    Trial,
    TrialRun,
    detect_failure,
    error_from_config,
    inject,
    interception_trial,
    max_nominal_duration,
    nominal_trial,
    run_episodes,
    run_interception,
    run_nominal,
    run_trials,
    verify_adverse,
)
from recoverylab.planner import CORRECTIVE_PHASES, PlanPhase
from recoverylab.policy import LearnedActor, init_policy
from recoverylab.store import (
    EpisodeKind,
    Outcome,
    PhaseTag,
    episode_to_dict,
)
from recoverylab.world import (
    ACTION_DIM,
    OBS_DIM,
    EnvMode,
    GRIP_CLOSED,
    GRIP_OPEN,
    RIGHT,
    Pose2D,
    reset,
    wrap_angle,
)
from tests.actors import OracleActor, RandomActor

# Offsets of the right arm's x, y, theta and grip in an action row.
RX, RY, RTH, RG = 4, 5, 6, 7


def make_action(grip=0.3):
    return (-0.3, 0.2, 0.1, 0.0, 0.3, 0.1, -0.2, grip)


def resolved_injection(cfg, kind, t0=10, seed=9):
    """The injection a planner trial of ``kind`` on ``seed`` resolves to
    when its trigger fires on frame ``t0``, at the right arm and object 0."""
    error = error_from_config(cfg, kind)
    run = TrialRun(cfg, 0, Trial(PlannerActor(), "pick-place", EnvMode.CLEAN, seed, "E", {}, error=error))
    run.t = t0
    injection = run.resolve((RIGHT, 0))
    assert run.injection is injection and run.onset == t0
    assert (injection.error, injection.t_start, injection.arm, injection.object_index) == (error, t0, RIGHT, 0)
    return error, injection


def test_trigger_phases(cfg):
    assert TRIGGER_PHASE[ErrorKind.E1_PREMATURE_CLOSE] is PlanPhase.APPROACH
    assert TRIGGER_PHASE[ErrorKind.E2_GRASP_SLIP] is PlanPhase.LIFT
    assert TRIGGER_PHASE[ErrorKind.E3_POSITION_OFFSET] is PlanPhase.GRASP
    assert TRIGGER_PHASE[ErrorKind.E4_ORIENTATION_MISMATCH] is PlanPhase.GRASP


def test_the_trigger_rule_follows_the_actor(cfg):
    # A planner trial fires at its error's plan phase; any other actor's, at
    # scene geometry; a trial with no error has no trigger.
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    runs = [TrialRun(cfg, 0, Trial(actor, "pick-place", EnvMode.RANDOM, 0, "E2", {}, error=error))
            for actor, error in ((PlannerActor(), e2), (OracleActor(), e2), (PlannerActor(), None))]
    assert [run.plan_phase for run in runs] == [PlanPhase.LIFT, None, None]


def test_unknown_error_kind_is_a_config_error(cfg):
    with pytest.raises(ConfigError, match="known: \\['E1', 'E2', 'E3', 'E4'\\]"):
        error_from_config(cfg, "E5")
    assert error_from_config(cfg, "E2") == error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)


def test_e1_forces_close_exactly(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E1_PREMATURE_CLOSE)
    action = make_action(grip=0.0)
    out = inject(action, 12, injection)
    assert out[RG] == GRIP_CLOSED
    assert out[RX:RG] == action[RX:RG]  # untouched fields
    assert out[:4] == action[:4]


def test_e2_forces_open_exactly(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E2_GRASP_SLIP)
    out = inject(make_action(grip=1.0), 10 + 15, injection)
    assert out[RG] == GRIP_OPEN


def test_e2_window_exactly_30_steps(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E2_GRASP_SLIP, t0=100)
    in_window = [t for t in range(90, 160) if injection.in_window(t)]
    assert in_window == list(range(100, 130))
    assert len(in_window) == 30
    assert injection.t_end == 130


def test_e3_offset_formula(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E3_POSITION_OFFSET)
    dx, dy, dth = injection.draws
    assert abs(dx) <= error.offset_max and abs(dy) <= error.offset_max and dth == 0.0
    action = make_action()
    out = inject(action, 11, injection)
    assert out[RX] == pytest.approx(action[RX] + dx)
    assert out[RY] == pytest.approx(action[RY] + dy)
    assert out[RTH] == action[RTH]
    assert out[RG] == action[RG]


def test_e3_single_draw_per_episode(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E3_POSITION_OFFSET)
    outs = [inject(make_action(), t, injection) for t in range(10, 10 + error.window_steps)]
    deltas = {(round(o[RX], 12), round(o[RY], 12)) for o in outs}
    assert len(deltas) == 1  # constant offset across the window


def test_e4_rotation_and_lateral(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E4_ORIENTATION_MISMATCH)
    lx, ly, dth = injection.draws
    assert error.dtheta_max / 2 <= abs(dth) <= error.dtheta_max
    assert error.lat_max / 2 <= abs(lx) <= error.lat_max and ly == 0.0
    action = make_action()
    out = inject(action, 11, injection)
    assert out[RTH] == pytest.approx(wrap_angle(action[RTH] + dth))
    assert out[RX] == pytest.approx(action[RX] + lx)
    assert out[RG] == action[RG]


@pytest.mark.parametrize("kind", list(ErrorKind))
def test_identity_outside_window(cfg, kind):
    error, injection = resolved_injection(cfg, kind)
    action = make_action()
    assert inject(action, 9, injection) is action
    assert inject(action, 10 + error.window_steps, injection) is action


def test_draws_deterministic_per_seed(cfg):
    _, a = resolved_injection(cfg, ErrorKind.E3_POSITION_OFFSET, seed=42)
    _, b = resolved_injection(cfg, ErrorKind.E3_POSITION_OFFSET, seed=42)
    _, c = resolved_injection(cfg, ErrorKind.E3_POSITION_OFFSET, seed=43)
    assert a.draws == b.draws
    assert a.draws != c.draws


# ---------------------------------------------------------------------------
# verification and failure detection


def test_verify_adverse_e2(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E2_GRASP_SLIP)
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    # object resting below carry height, unheld: the slip signature
    assert verify_adverse(cfg, state, injection)
    held = replace(state, holders=(RIGHT,))
    assert not verify_adverse(cfg, held, injection)
    lifted = replace(state, object_poses=(Pose2D(0.3, cfg.lift_y, 0.0),))
    assert not verify_adverse(cfg, lifted, injection)


def test_verify_adverse_e1_signature(cfg):
    error, injection = resolved_injection(cfg, ErrorKind.E1_PREMATURE_CLOSE)
    state = reset(cfg, "pick-place", EnvMode.CLEAN, 0)
    assert verify_adverse(cfg, state, injection)  # not held by designated arm
    grasped = replace(state, holders=(RIGHT,))
    assert not verify_adverse(cfg, grasped, injection)


def test_max_nominal_duration(cfg, expert_episodes, recovery_episodes):
    nominal = expert_episodes[:8]
    assert max_nominal_duration(nominal) == max(len(e.frames) for e in nominal)
    # Recovery episodes succeed too, but only nominal ones set the budget.
    assert max(len(e.frames) for e in recovery_episodes[:4]) > max_nominal_duration(nominal)
    assert max_nominal_duration(nominal + recovery_episodes[:4]) == max_nominal_duration(nominal)
    for episodes in ([], recovery_episodes):
        with pytest.raises(InsufficientData):
            max_nominal_duration(episodes)


def test_detect_failure_strict_table():
    t_max = 110
    assert detect_failure(0, t_max) is False
    assert detect_failure(t_max, t_max) is False
    assert detect_failure(t_max + 1, t_max) is True
    with pytest.raises(InputError):
        detect_failure(5, 0)


def test_max_duration_matches_bruteforce(cfg):
    episodes = [run_nominal(cfg, "pick-place", EnvMode.RANDOM, s) for s in range(20)]
    brute = max(len(e.frames) for e in episodes if e.outcome is Outcome.SUCCESS)
    assert max_nominal_duration(episodes) == brute


# ---------------------------------------------------------------------------
# interception sequence


def tags_of(episode):
    return [PhaseTag(tag) for tag in episode.frames.phase]


@pytest.mark.parametrize("kind", list(ErrorKind))
def test_interception_grammar_and_recovery(cfg, kind):
    error = error_from_config(cfg, kind)
    produced = 0
    for seed in range(8):
        episode = run_interception(cfg, "pick-place", EnvMode.RANDOM, error, seed)
        # Built, so its tags passed the grammar: an Episode checks itself.
        if episode.provenance["adverse_verified"]:
            assert episode.kind is EpisodeKind.FAILURE_RECOVERY
            assert episode.outcome is Outcome.SUCCESS
            assert tags_of(episode)[episode.t_rec] is PhaseTag.RECOVERY
            produced += 1
        else:
            assert all(t is PhaseTag.NOMINAL for t in tags_of(episode))
    assert produced >= 4  # injections reliably produce verified adverse states


def test_interception_error_frames_match_window(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    episode = run_interception(cfg, "pick-place", EnvMode.CLEAN, error, 3)
    t0, t1 = episode.provenance["schedule"]["window"]
    assert t1 - t0 == 30
    for t, phase in enumerate(tags_of(episode)):
        if t0 <= t < t1:
            assert phase is PhaseTag.ERROR
        else:
            assert phase is not PhaseTag.ERROR
    assert episode.t_rec == t1


def test_interception_byte_identical(cfg, tmp_path):
    error = error_from_config(cfg, ErrorKind.E4_ORIENTATION_MISMATCH)
    a = run_interception(cfg, "pick-place", EnvMode.CLEAN, error, 11)
    b = run_interception(cfg, "pick-place", EnvMode.CLEAN, error, 11)
    from recoverylab.store import write_episodes

    pa = write_episodes([a], tmp_path)[0]
    data_a = pa.read_bytes()
    pa.unlink()
    pb = write_episodes([b], tmp_path)[0]
    assert pb.read_bytes() == data_a


def test_interception_pure_failure_mode(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    episode = run_interception(cfg, "pick-place", EnvMode.CLEAN, error, 3, recover=False)
    assert episode.kind is EpisodeKind.PURE_FAILURE
    assert episode.outcome is Outcome.FAILURE
    assert episode.t_rec is None
    assert PhaseTag.RECOVERY not in tags_of(episode)
    assert PhaseTag.ERROR in tags_of(episode)


def test_interception_timeout_finalizes_pure_failure(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    # A timeout shorter than any recovery forces the detector to fire.
    episode = run_interception(cfg, "pick-place", EnvMode.CLEAN, error, 3, t_max=50)
    assert episode.kind is EpisodeKind.PURE_FAILURE
    assert episode.t_rec is None
    assert PhaseTag.RECOVERY not in tags_of(episode)
    assert len(episode.frames) <= 51


def test_interception_records_schedule_provenance(cfg):
    error = error_from_config(cfg, ErrorKind.E3_POSITION_OFFSET)
    for seed in range(6):
        episode = run_interception(cfg, "pick-place", EnvMode.RANDOM, error, seed)
        sched = episode.provenance["schedule"]
        if episode.provenance["adverse_verified"]:
            assert sched["designated_arm"] == "right"
            assert "dp" in sched["draws"]
            assert episode.provenance["e3_sampling"] == "per-axis-uniform"


def test_nominal_run_all_nominal(cfg):
    episode = run_nominal(cfg, "stack-two", EnvMode.RANDOM, 5)
    assert episode.kind is EpisodeKind.NOMINAL_SUCCESS
    assert all(t is PhaseTag.NOMINAL for t in tags_of(episode))
    assert episode.error_type is None


@pytest.mark.parametrize("seed, onset", [(0, 58), (1, 67), (2, 65)])
def test_timeout_takeover_after_handoff(cfg, seed, onset):
    # The planner times out after the hand-off.  The left arm's release at the
    # hand-off spot is no anomaly, so the Error onset is the step after the
    # right arm's grasp, and the takeover carries the object on to the goal.
    t_nominal = len(run_nominal(cfg, "bimanual-handover", EnvMode.RANDOM, seed).frames)
    (_, episode), = run_episodes(cfg, [Trial(
        PlannerActor(), "bimanual-handover", EnvMode.RANDOM, seed, "induced",
        {"generator": "policy-induced"}, int(0.8 * t_nominal), takeover=TimeoutTakeover(),
    )])
    assert episode.kind is EpisodeKind.FAILURE_RECOVERY
    assert episode.provenance["anomaly_at"] is None
    assert tags_of(episode).index(PhaseTag.ERROR) == onset


class _PhaseRecorder(PlannerActor):
    """A planner that records its active step's phase after every act."""

    def begin(self, cfg, state):
        super().begin(cfg, state)
        self.phases = []

    def act(self, state, obs):
        action = super().act(state, obs)
        if not self.exhausted:
            self.phases.append(self.step.phase)
        return action


class _Recording:
    """A takeover that hands over to a ``_PhaseRecorder`` of the recovery plan."""

    planner = None

    def hand_over(self, cfg, state):
        actor = super().hand_over(cfg, state)
        self.planner = actor if actor is None else _PhaseRecorder(actor.plan)
        return self.planner


class _RecordingTakeover(_Recording, Takeover):
    pass


class _RecordingTimeoutTakeover(_Recording, TimeoutTakeover):
    pass


def test_recovery_tags_follow_the_recovery_planners_phases(cfg):
    # From t_rec on, a frame is Recovery exactly when the recovery planner
    # acted on it in a corrective phase, or every frame when its plan starts
    # mid-carry; the frames before t_rec are Nominal then Error.
    tasks = ("pick-place", "stack-two", "bimanual-handover")
    trials = [Trial(PlannerActor(), task, EnvMode.RANDOM, seed, kind.value, {}, None,
                    error_from_config(cfg, kind), _RecordingTakeover())
              for task in tasks for kind in ErrorKind for seed in range(3)]
    for task in tasks:
        for seed in range(2):
            t_nominal = len(run_nominal(cfg, task, EnvMode.RANDOM, seed).frames)
            trials += [Trial(PlannerActor(), task, EnvMode.RANDOM, seed, "induced", {}, int(share * t_nominal),
                             takeover=_RecordingTimeoutTakeover()) for share in (0.5, 0.8)]
    seen = Counter()
    for i, episode in run_episodes(cfg, trials):
        if episode.kind is not EpisodeKind.FAILURE_RECOVERY:
            continue
        planner, tags, t_rec = trials[i].takeover.planner, tags_of(episode), episode.t_rec
        assert len(planner.phases) == len(tags) - t_rec, i
        if planner.plan[0].phase in CORRECTIVE_PHASES:
            want = [PhaseTag.RECOVERY if phase in CORRECTIVE_PHASES else PhaseTag.NOMINAL for phase in planner.phases]
            seen["corrective", isinstance(trials[i].takeover, TimeoutTakeover)] += 1
        else:
            assert planner.plan[0].phase is PlanPhase.LIFT, i
            want = [PhaseTag.RECOVERY] * len(planner.phases)
            seen["mid-carry"] += 1
        assert tags[t_rec:] == want, i
        assert PhaseTag.RECOVERY not in tags[:t_rec] and tags[t_rec - 1] is PhaseTag.ERROR, i
    assert seen["corrective", False] >= 20 and seen["corrective", True] and seen["mid-carry"], seen


@pytest.mark.parametrize("acts, recovery", [(None, 10), (3, 0), (7, 1), (12, 6), (40, 10)])
def test_verdict_counts_corrective_acts_from_the_actors_begin(cfg, acts, recovery):
    # An actor that began on frame 4 acts on frame t_rec = 10 as its act 6,
    # so of its first ``acts`` acts the frames from t_rec on hold the rest.
    class Corrective(RandomActor):
        def corrective_acts(self):
            return acts

    run = TrialRun(cfg, 0, Trial(Corrective(0), "pick-place", EnvMode.RANDOM, 0, "eval", {}))
    run.t, run.onset, run.t_rec, run.began, run.succeeded = 20, 5, 10, 4, True
    *_, tags = run.verdict()
    assert tags == ["Nominal"] * 5 + ["Error"] * 5 + ["Recovery"] * recovery + ["Nominal"] * (10 - recovery)


def repeats_predecessor(episode, t):
    f = episode.frames
    return np.array_equal(f.obs[t], f.obs[t - 1]) and np.array_equal(f.actions[t], f.actions[t - 1])


@pytest.mark.parametrize("task, kind", [
    ("bimanual-handover", ErrorKind.E2_GRASP_SLIP),
    ("pick-place", ErrorKind.E2_GRASP_SLIP),
    ("stack-two", ErrorKind.E1_PREMATURE_CLOSE),
])
def test_exhausted_plan_ends_episode_at_once(cfg, task, kind):
    # goal_radius below pos_tol: the recovery plan finishes without success,
    # and the episode ends on its last planned frame, with no hold frames.
    c = cfg.with_overrides(goal_radius=0.005)
    episode = run_interception(c, task, EnvMode.RANDOM, error_from_config(c, kind), 0)
    assert episode.provenance["adverse_verified"]
    assert episode.kind is EpisodeKind.PURE_FAILURE
    assert not repeats_predecessor(episode, len(episode.frames) - 1)


def test_stall_inside_window_is_unverified_nominal(cfg):
    c = cfg.with_overrides(phase_stall_limit=12)
    episode = run_interception(c, "pick-place", EnvMode.RANDOM, error_from_config(c, ErrorKind.E2_GRASP_SLIP), 0)
    t0, t1 = episode.provenance["schedule"]["window"]
    assert t0 < len(episode.frames) < t1
    assert not episode.provenance["adverse_verified"]
    assert episode.kind is EpisodeKind.PURE_FAILURE
    assert all(t is PhaseTag.NOMINAL for t in tags_of(episode))


def test_exhausted_plan_holds_while_window_open(cfg):
    # A 45-frame slip window outlasts the rest of the nominal plan: the actor
    # holds pose until the window closes, and the slip then verifies.
    c = cfg.with_overrides(e2_window_steps=45)
    episode = run_interception(c, "pick-place", EnvMode.RANDOM, error_from_config(c, ErrorKind.E2_GRASP_SLIP), 0)
    assert episode.provenance["schedule"]["window"] == [15, 60]
    assert repeats_predecessor(episode, 59)
    assert episode.provenance["adverse_verified"]
    assert episode.kind is EpisodeKind.FAILURE_RECOVERY
    assert episode.t_rec == 60


class _CountingPlanner(_PhaseRecorder):
    """A ``_PhaseRecorder`` that counts its acts and the completion checks
    they make."""

    def begin(self, cfg, state):
        super().begin(cfg, state)
        self.acts = self.checks = 0

    def _act(self, proprio, holders):
        self.acts += 1
        return super()._act(proprio, holders)

    def _complete(self, step, proprio, holders):
        self.checks += 1
        return super()._complete(step, proprio, holders)


def test_interception_advances_its_planner_once_per_frame(cfg):
    # The plan-phase trigger reads the step the planner acted on, so each
    # frame before the hand-over checks the active step once, plus once for
    # every step it advances past, and the slip window opens on the first
    # frame the planner acted on its Lift step.
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    trial = interception_trial(cfg, "pick-place", EnvMode.RANDOM, error, 0)
    actor = _CountingPlanner(trial.actor.plan)
    (_, episode), = run_episodes(cfg, [replace(trial, actor=actor)])
    assert episode.kind is EpisodeKind.FAILURE_RECOVERY
    assert actor.acts == len(actor.phases) == episode.t_rec
    assert actor.checks == actor.acts + actor.index
    t0 = episode.provenance["schedule"]["window"][0]
    assert actor.phases.index(PlanPhase.LIFT) == t0 > 0


def _mixed_trials(cfg) -> list[Trial]:
    """Trials of every task and actor kind, with plan-phase and geometric
    triggers, takeovers at a verified state and at the timeout, and lengths
    that end them at different ticks.  The learned actors hold different
    policies: actors of one policy share a batched forward, whose products
    can differ from a one-row forward in the last bit."""
    e1, e2, e3, e4 = (error_from_config(cfg, kind) for kind in ErrorKind)
    rollout = {"generator": "rollout"}
    return [
        Trial(PlannerActor(), "stack-two", EnvMode.RANDOM, 3, "E2", {}, None,
              e2, Takeover()),
        Trial(PlannerActor(action_noise=0.02), "bimanual-handover", EnvMode.RANDOM, 4, "nom", {}),
        Trial(PlannerActor(), "bimanual-handover", EnvMode.RANDOM, 1, "induced", {}, 70, None, TimeoutTakeover()),
        Trial(OracleActor(), "stack-two", EnvMode.RANDOM, 2, "eval", rollout, 140, e1),
        Trial(OracleActor(), "bimanual-handover", EnvMode.CLEAN, 6, "eval", rollout, 150,
              e4),
        Trial(OracleActor(), "pick-place", EnvMode.RANDOM, 7, "eval", rollout, 120, e2),
        Trial(RandomActor(5), "stack-two", EnvMode.RANDOM, 5, "eval", rollout, 60, e1),
        Trial(RandomActor(8), "pick-place", EnvMode.CLEAN, 8, "eval", rollout, 50, e3),
        Trial(OracleActor(), "pick-place", EnvMode.RANDOM, 0, "eval", rollout, 90, e3),
        Trial(LearnedActor(init_policy(cfg, seed=9)), "pick-place", EnvMode.RANDOM, 9, "eval", rollout, 45),
        Trial(LearnedActor(init_policy(cfg, seed=10)), "stack-two", EnvMode.RANDOM, 10, "eval", rollout, 80,
              e3),
    ]


def test_lockstep_trials_equal_one_trial_runs(cfg):
    # Lockstep trials share no state: each gives the episode it gives alone.
    def text(episode):
        return json.dumps(episode_to_dict(episode), sort_keys=True)

    together = {i: text(episode) for i, episode in run_episodes(cfg, _mixed_trials(cfg))}
    alone = [text(episode) for trial in _mixed_trials(cfg) for _, episode in run_episodes(cfg, [trial])]
    assert [together[i] for i in range(len(alone))] == alone


def test_trials_are_descriptions_that_run_again_to_the_same_episodes(cfg):
    # A trial holds nothing of a run: one list of trials, run twice in one
    # call (the oracle and random trials in lockstep) and once more one trial
    # at a time, gives the same episodes byte for byte.  The list has
    # plan-phase and geometric triggers of all four errors, with and without
    # a takeover.
    def text(episode):
        return json.dumps(episode_to_dict(episode), sort_keys=True)

    errors = [error_from_config(cfg, kind) for kind in ErrorKind]
    trials = [interception_trial(cfg, "pick-place", EnvMode.RANDOM, error, seed)
              for error in errors for seed in range(2)]
    trials += [Trial(OracleActor(), "pick-place", EnvMode.RANDOM, seed, "eval", {}, 150, error)
               for seed, error in enumerate(errors)]
    trials += [Trial(RandomActor(seed), "stack-two", EnvMode.RANDOM, seed, "eval", {}, 40, error)
               for seed, error in enumerate(errors)]
    trials += [Trial(OracleActor(), "stack-two", EnvMode.RANDOM, 4, "eval", {}, 150, errors[1], Takeover()),
               Trial(LearnedActor(init_policy(cfg, seed=9)), "pick-place", EnvMode.RANDOM, 5, "eval", {}, 40,
                     errors[2])]
    runs = [dict(run_episodes(cfg, trials)) for _ in range(2)]
    first, second = ([text(run[i]) for i in range(len(trials))] for run in runs)
    alone = [text(episode) for trial in trials for _, episode in run_episodes(cfg, [trial])]
    assert first == second == alone
    verified = [json.loads(episode)["provenance"]["adverse_verified"] for episode in first]
    assert sum(verified[:8]) >= 4 and sum(verified[8:12]) >= 2


def test_lockstep_injection_equals_inject_bit_for_bit(cfg):
    # A lockstep tick injects its in-window rows as arrays; the rows it
    # records equal, bit for bit, those of one-trial runs, which inject
    # through ``inject``.
    def trials():
        return [Trial(OracleActor(), "pick-place", EnvMode.RANDOM, seed, "eval", {}, 150,
                      error_from_config(cfg, kind))
                for seed, kind in enumerate(list(ErrorKind) * 2)]

    together = dict(run_episodes(cfg, trials()))
    for i, trial in enumerate(trials()):
        (_, alone), = run_episodes(cfg, [trial])
        assert alone.provenance["schedule"]["window"] is not None, i
        assert np.array_equal(together[i].frames.actions, alone.frames.actions), i
        assert np.array_equal(together[i].frames.obs, alone.frames.obs), i


def test_noisy_planners_share_the_batch_and_interceptions_step_alone(cfg, monkeypatch):
    # The noisy planners share one batch.  The learned actors, of two
    # policies, share none, and each steps alone, as do planners with a
    # plan-phase trigger or a takeover: first and in trial order.  The
    # planners' batch then runs until its last trial ends, here the noisy
    # pick-place planner, which fails at a stall on frame 133.
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)

    def trials():
        return [Trial(PlannerActor(action_noise=0.02), "pick-place", EnvMode.RANDOM, 1, "nom", {}),
                Trial(LearnedActor(init_policy(cfg, seed=9)), "pick-place", EnvMode.RANDOM, 2, "eval", {}, 40),
                Trial(PlannerActor(), "stack-two", EnvMode.RANDOM, 3, "E2", {}, None,
                      e2, Takeover()),
                Trial(LearnedActor(init_policy(cfg, seed=10)), "stack-two", EnvMode.RANDOM, 4, "eval", {}, 60),
                Trial(PlannerActor(action_noise=0.02), "stack-two", EnvMode.RANDOM, 5, "nom", {}),
                Trial(PlannerActor(), "bimanual-handover", EnvMode.RANDOM, 6, "induced", {}, 50, None,
                      TimeoutTakeover())]

    rows = {i: reset(cfg, trial.task_id, EnvMode.RANDOM, trial.seed).rng_seed for i, trial in enumerate(trials())}
    planners = {rows[0], rows[4]}
    stepped = []
    real_step_batch = faults.step_batch

    def spy(cfg_, batch, actions):
        stepped.append(batch.rng_seeds)
        assert set(batch.rng_seeds) <= planners, "a batch of other trials"
        return real_step_batch(cfg_, batch, actions)

    monkeypatch.setattr(faults, "step_batch", spy)
    ended = [(i, run.episode(cfg)) for i, run in run_trials(cfg, trials())]
    lengths = [len(episode.frames) for _, episode in sorted(ended)]
    assert [i for i, _ in ended] == [1, 2, 3, 5, 4, 0]
    assert ended[5][1].outcome is Outcome.FAILURE and lengths[0] == 133
    assert [lengths[i] for i in (1, 3)] == [41, 61]
    # No batch row outlives its trial: each row steps once per frame.
    assert set(stepped[0]) == planners and len(stepped) == max(lengths[0], lengths[4])
    assert Counter(chain.from_iterable(stepped)) == {rows[i]: lengths[i] for i in (0, 4)}
    monkeypatch.undo()
    for (i, episode), trial in zip(sorted(ended), trials()):
        (_, alone), = run_episodes(cfg, [trial])
        assert episode_to_dict(episode) == episode_to_dict(alone), i


def test_learned_actors_of_two_policies_or_values_step_in_separate_batches(cfg, monkeypatch):
    # Learned actors step together only when they share a policy and a
    # v_fixed: here three batches of two, each of one group, and each
    # episode equals the one its group gives in a run of its own.  (A
    # one-trial run forwards one row, which BLAS may sum in another order.)
    first, second = init_policy(cfg, seed=9), init_policy(cfg, seed=10)
    groups = [(first, 1.0), (first, 0.0), (second, 1.0)] * 2

    def trials():
        return [Trial(LearnedActor(policy, v_fixed=v), "pick-place", EnvMode.RANDOM, seed, "eval", {}, 20 + 5 * seed)
                for seed, (policy, v) in enumerate(groups)]

    rows = [reset(cfg, "pick-place", EnvMode.RANDOM, seed).rng_seed for seed in range(len(groups))]
    batches = [{rows[k], rows[k + 3]} for k in range(3)]
    stepped = []
    real_step_batch = faults.step_batch

    def spy(cfg_, batch, actions):
        stepped.append(set(batch.rng_seeds))
        assert any(seeds >= stepped[-1] for seeds in batches), "a mixed batch"
        return real_step_batch(cfg_, batch, actions)

    monkeypatch.setattr(faults, "step_batch", spy)
    together = dict(run_episodes(cfg, trials()))
    assert [seeds for seeds in stepped if len(seeds) == 2] == [batches[k] for k in range(3) for _ in range(21 + 5 * k)]
    monkeypatch.undo()
    for k in range(3):
        alone = dict(run_episodes(cfg, trials()[k::3]))
        for j, i in enumerate((k, k + 3)):
            assert episode_to_dict(alone[j]) == episode_to_dict(together[i]), i


def _ending(run) -> str:
    """How an ended trial ended."""
    if run.succeeded:
        return "success"
    if run.actor.exhausted:
        return "exhausted"
    return "stall" if run.actor.stalled else "timeout" if run.t >= run.deadline else "?"


@pytest.mark.parametrize("overrides, t_max, ending", [
    ({}, None, "stall"),
    ({"phase_stall_limit": 12}, None, "stall"),
    ({"goal_radius": 0.005}, None, "exhausted"),
    ({}, 70, "timeout"),
])
def test_noisy_planner_blocks_equal_one_trial_runs(cfg, overrides, t_max, ending):
    # Noisy nominal planners of all three tasks in one batch: a plan that
    # runs out ends its trial unrecorded, a stall ends it at once, and each
    # episode equals its one-trial run, failures and successes alike.
    c = cfg.with_overrides(**overrides)

    def trials():
        return [nominal_trial(c, task, EnvMode.RANDOM, seed, t_max, 0.02)
                for task in ("pick-place", "stack-two", "bimanual-handover") for seed in range(5)]

    runs = dict(run_trials(c, trials()))
    endings = [_ending(runs[i]) for i in range(len(runs))]
    assert ending in endings
    for i, trial in enumerate(trials()):
        (_, alone), = run_episodes(c, [trial])
        assert episode_to_dict(runs[i].episode(c)) == episode_to_dict(alone), (i, endings[i])


def test_noisy_and_noise_free_planners_step_in_separate_batches(cfg, monkeypatch):
    # Nominal planners with and without action noise step as two batches,
    # one adding noise to every executed row and one to none; each episode
    # equals its one-trial run.
    def trials():
        return [nominal_trial(cfg, task, EnvMode.RANDOM, seed, None, 0.02 * (seed % 2))
                for task in ("pick-place", "stack-two") for seed in range(4)]

    made = []
    real_init = faults.PlannerBatch.__init__

    def spy(self, cfg_, actors):
        real_init(self, cfg_, actors)
        made.append([actor.action_noise for actor in actors])

    monkeypatch.setattr(faults.PlannerBatch, "__init__", spy)
    runs = dict(run_trials(cfg, trials()))
    assert len(runs) == 8
    assert made == [[0.0] * 4, [0.02] * 4]
    monkeypatch.undo()
    for i, trial in enumerate(trials()):
        (_, alone), = run_episodes(cfg, [trial])
        assert episode_to_dict(runs[i].episode(cfg)) == episode_to_dict(alone), i


def test_gated_success_check_equals_success_batch_on_every_tick(cfg, monkeypatch):
    # A tick checks success only after its first step and after steps that
    # release a held object; on every tick of these lockstep batches it gives
    # what success_batch gives, and most ticks skip the check.
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    trials = [nominal_trial(cfg, task, EnvMode.RANDOM, seed, None, 0.02)
              for task in ("pick-place", "stack-two", "bimanual-handover") for seed in range(3)]
    trials += [Trial(OracleActor(), "pick-place", EnvMode.RANDOM, seed, "eval", {}, 150, e2)
               for seed in range(4)]
    real_success_batch, real_succeeded = faults.success_batch, faults._Lockstep._succeeded
    ticks, checks = [], []

    def counting(cfg_, batch):
        checks.append(len(batch))
        return real_success_batch(cfg_, batch)

    def spy(self, before, world):
        succeeded = real_succeeded(self, before, world)
        ticks.append(succeeded.tolist() == real_success_batch(cfg, world).tolist())
        return succeeded

    monkeypatch.setattr(faults, "success_batch", counting)
    monkeypatch.setattr(faults._Lockstep, "_succeeded", spy)
    runs = dict(run_trials(cfg, trials))
    assert all(ticks) and 0 < len(checks) < len(ticks) / 4
    assert sum(run.succeeded for run in runs.values()) >= 10


def test_a_lockstep_batch_past_every_deadline_raises(cfg, monkeypatch):
    # With the end-of-tick deadline check gone no trial here would end: the
    # random actors never succeed.  The batch raises instead of looping.
    monkeypatch.setattr(faults._Lockstep, "_due", lambda self, t: np.zeros(len(self.ids), dtype=bool))
    ticks = []
    real_step_batch = faults.step_batch

    def spy(cfg_, batch, actions):
        ticks.append(len(batch))
        assert len(ticks) <= 61, "a batch tick past every deadline"
        return real_step_batch(cfg_, batch, actions)

    monkeypatch.setattr(faults, "step_batch", spy)
    trials = [Trial(RandomActor(seed), "pick-place", EnvMode.RANDOM, seed, "eval", {}, t_max)
              for seed, t_max in ((1, 30), (2, 60))]
    with pytest.raises(SequencingError, match="past every live trial's deadline"):
        list(run_trials(cfg, trials))
    assert ticks == [2] * 61


def test_ended_lockstep_trials_free_their_batch_frames(cfg, monkeypatch):
    # An ended trial's frames are a copy of its row of the batch's frame
    # array, so a caller that holds every ended trial does not hold the
    # array: once the trials' generator goes, reference counting frees it.
    arrays = []
    real_init = faults._Lockstep.__init__

    def spy(self, *args):
        real_init(self, *args)
        arrays.append(weakref.ref(self.frames))

    monkeypatch.setattr(faults._Lockstep, "__init__", spy)
    trials = [Trial(RandomActor(seed), "pick-place", EnvMode.RANDOM, seed, "eval", {}, t_max)
              for seed, t_max in ((1, 20), (2, 35), (3, 50))]
    gc.disable()
    try:
        ended = run_trials(cfg, trials)
        runs = [run for _, run in ended]
        assert [run.t for run in runs] == [21, 36, 51]
        assert all(run.frames.shape == (run.t, OBS_DIM + ACTION_DIM) for run in runs)
        frames, = arrays
        del ended
        assert frames() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("lockstep", [False, True])
def test_trigger_with_timeout_takeover_is_refused(cfg, lockstep):
    # No tag rule covers a trial that the timeout and the injection window
    # can both hand over, so run_trials refuses it before any trial begins.
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    actors = [PlannerActor(), PlannerActor()]
    trials = [Trial(actors[0], "pick-place", EnvMode.RANDOM, 0, "induced", {}, 40, error, TimeoutTakeover())]
    if lockstep:
        trials.append(Trial(actors[1], "pick-place", EnvMode.RANDOM, 1, "nom", {}))
    with pytest.raises(InputError, match="TimeoutTakeover"):
        next(run_trials(cfg, trials))
    assert not any(hasattr(actor, "step") for actor in actors)


def test_action_noise_in_blocks_equals_per_frame_draws(cfg):
    # PlannerActor draws its noise in blocks; the values are those of one
    # draw of 6 per frame from the same stream.
    state = reset(cfg, "pick-place", EnvMode.RANDOM, 5)
    actor = PlannerActor(action_noise=0.02)
    actor.begin(cfg, state)
    rng = np.random.default_rng([state.rng_seed & 0xFFFFFFFFFFFFFFF, 0x401])
    action = (0.1, 0.2, 3.1, 0.0, -0.1, 0.2, -3.1, 1.0)
    for _ in range(150):
        dx, dy, dth, ex, ey, eth = (rng.normal(0.0, 0.02, size=6) * [1.0, 1.0, 2.0, 1.0, 1.0, 2.0]).tolist()
        expected = (0.1 + dx, 0.2 + dy, wrap_angle(3.1 + dth), 0.0, -0.1 + ex, 0.2 + ey, wrap_angle(-3.1 + eth), 1.0)
        assert actor.applied(action) == expected
