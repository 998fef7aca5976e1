import json
import math
from collections import Counter
from itertools import islice
from unittest import mock

import numpy as np
import pytest

from recoverylab import bench, datagen
from recoverylab.cli import main as cli_main
from recoverylab.errors import InputError, PlanningError, ValidationError
from recoverylab.faults import (
    ErrorKind,
    TimeoutTakeover,
    Trial,
    error_from_config,
    max_nominal_duration,
    run_episodes,
    run_interception,
    run_nominal,
)
from recoverylab.labeling import label_success
from recoverylab.policy import init_policy, load_policy, save_policy
from recoverylab.store import EpisodeKind, Outcome, dataset_stats, episode_to_dict, read_dataset, write_episodes
from recoverylab.value import init_progress_model, load_progress_model
from recoverylab.world import EnvMode
from tests.actors import OracleActor, RandomActor
from tests.test_acceptance import PP_CELLS, pp_recovery_sets


@pytest.fixture(scope="module")
def t_max(expert_episodes):
    return max_nominal_duration(expert_episodes)


def seeds_from(start, n):
    return [start + i for i in range(n)]


def test_oracle_standard_ceiling(cfg, t_max):
    report = bench.run_protocol(
        cfg, lambda s: OracleActor(), "pick-place", None, seeds_from(500000, 20), t_max
    )
    assert report.condition == "Standard"
    assert report.n_success == report.n_trials == 20


def test_oracle_adversarial_ceiling(cfg, t_max):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    report = bench.run_protocol(
        cfg, lambda s: OracleActor(), "pick-place", error, seeds_from(500000, 20), t_max
    )
    assert report.n_verified >= 18
    assert report.recovery_rate >= 0.9


def test_random_policy_floor(cfg, t_max):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    report = bench.run_protocol(
        cfg, lambda s: RandomActor(s), "pick-place", error, seeds_from(500000, 15), t_max
    )
    assert report.recovery_rate == 0.0
    assert report.n_success == 0


def test_denominator_only_verified_trials(cfg, mini_policies, t_max):
    _, _, full = mini_policies
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    report = bench.run_protocol(
        cfg, bench.policy_actor_factory(full), "pick-place", error, seeds_from(510000, 25), t_max
    )
    # recompute from the raw trials: the protocol invariant
    verified = [t for t in report.trials if t.adverse_verified]
    assert report.n_verified == len(verified)
    assert report.n_recovered == sum(t.outcome == "Success" for t in verified)
    unverified_successes = sum(
        t.outcome == "Success" for t in report.trials if not t.adverse_verified
    )
    assert report.n_recovered + unverified_successes == report.n_success


def test_seed_hygiene_assertion(cfg, mini_policies, t_max):
    _, _, full = mini_policies
    with pytest.raises(ValidationError):
        bench.run_protocol(
            cfg, bench.policy_actor_factory(full), "pick-place", None, [3, 4], t_max,
            training_seeds={3, 99},
        )


def test_report_csv_byte_identical(cfg, mini_policies, t_max, tmp_path):
    _, _, full = mini_policies
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    outs = []
    for run in ("a", "b"):
        report = bench.run_protocol(
            cfg, bench.policy_actor_factory(full), "pick-place", error, seeds_from(520000, 10), t_max
        )
        paths = bench.write_report(report, tmp_path / run, name="eval")
        outs.append((paths["csv"].read_bytes(), paths["json"].read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("actor", ["oracle", "random"])
def test_lockstep_call_equals_one_seed_calls(cfg, t_max, actor):
    # These actors make no matrix products, so one call over six seeds must
    # give exactly the trials of six one-seed calls, under every condition.
    factory = {"oracle": lambda s: OracleActor(), "random": lambda s: RandomActor(s)}[actor]
    seeds = seeds_from(700000, 6)
    for kind in (None,) + tuple(ErrorKind):
        error = error_from_config(cfg, kind) if kind else None
        together = bench.run_protocol(cfg, factory, "pick-place", error, seeds, t_max)
        alone = [bench.run_protocol(cfg, factory, "pick-place", error, [s], t_max) for s in seeds]
        assert together.trials == [report.trials[0] for report in alone]
        # Reversing the seeds reverses the trials and changes nothing else.
        backwards = bench.run_protocol(cfg, factory, "pick-place", error, seeds[::-1], t_max)
        assert backwards.trials == together.trials[::-1]
        assert backwards.summary_row() == together.summary_row()
        assert backwards.config_snapshot == together.config_snapshot


def test_lockstep_learned_call_equals_one_seed_calls(cfg, mini_policies, t_max):
    # The batched forward of one call gives the trials of batch-1 calls.
    _, _, full = mini_policies
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    factory = bench.policy_actor_factory(full)
    seeds = seeds_from(530000, 10)
    together = bench.run_protocol(cfg, factory, "pick-place", error, seeds, t_max)
    alone = [bench.run_protocol(cfg, factory, "pick-place", error, [s], t_max).trials[0] for s in seeds]
    assert together.trials == alone
    assert len({t.steps_used for t in alone}) > 1  # the batch shrinks as trials end


def _one_trial_records(cfg, factory, error, seeds, t_max):
    """The TrialRecords of one-trial ``run_episodes`` episodes, derived from
    each episode as its fields say."""
    horizon = bench.adversarial_horizon(cfg, t_max, error) if error is not None else t_max
    records = []
    for seed in seeds:
        (_, episode), = run_episodes(cfg, [Trial(factory(seed), "pick-place", EnvMode.RANDOM, seed, "eval",
                                                 {"generator": "rollout"}, horizon, error)])
        records.append(bench.TrialRecord(
            task_id=episode.task_id, env_mode=episode.env_mode.value, seed=episode.seed,
            error_type=episode.error_type, adverse_verified=bool(episode.provenance.get("adverse_verified", False)),
            phase_trace=episode.frames.phase.tolist(), outcome=episode.outcome.value,
            steps_used=len(episode.frames)))
    return records


@pytest.mark.parametrize("kind", [None, *ErrorKind], ids=["standard", "E1", "E2", "E3", "E4"])
def test_protocol_records_equal_one_trial_episodes(cfg, mini_policies, t_max, kind):
    # run_protocol builds its records from the ended trials' verdicts, with
    # no episode; they equal the records of one-trial episodes.
    error = error_from_config(cfg, kind) if kind else None
    horizon = bench.adversarial_horizon(cfg, t_max, error) if error is not None else t_max
    seeds = seeds_from(620000, 6)
    factories = {"learned": bench.policy_actor_factory(mini_policies[2]), "random": lambda s: RandomActor(s),
                 "oracle": lambda s: OracleActor()}
    steps = set()
    for name, factory in factories.items():
        report = bench.run_protocol(cfg, factory, "pick-place", error, seeds, t_max)
        assert report.trials == _one_trial_records(cfg, factory, error, seeds, t_max), name
        steps |= {trial.steps_used for trial in report.trials}
    assert horizon + 1 in steps and len(steps) > 2  # horizon timeouts, and trials ending on other ticks


class OutOfRangeActor(OracleActor):
    """The oracle, with one value of its action row set to ``value`` from
    its sixth frame on."""

    def __init__(self, slot: int, value: float):
        super().__init__()
        self.slot, self.value = slot, value

    def begin(self, cfg, state):
        super().begin(cfg, state)
        self.frames = 0

    def act(self, state, obs):
        row = list(super().act(state, obs))
        self.frames += 1
        if self.frames > 5:
            row[self.slot] = self.value
        return tuple(row)


@pytest.mark.parametrize("slot, value, kind", [
    (3, 1.5, None), (7, -0.25, ErrorKind.E2_GRASP_SLIP), (2, 4.0, ErrorKind.E3_POSITION_OFFSET),
    (6, -math.pi, None),
], ids=["left-grip-high", "right-grip-low", "left-theta-high", "right-theta-minus-pi"])
def test_lockstep_trial_with_out_of_range_action_fails_validation(cfg, t_max, slot, value, kind):
    # Records built without an episode are checked as episodes are: an
    # action row with a grip outside [0, 1] or a theta outside (-pi, pi].
    error = error_from_config(cfg, kind) if kind else None
    with pytest.raises(ValidationError, match="theta outside"):
        bench.run_protocol(cfg, lambda s: OutOfRangeActor(slot, value), "pick-place", error, seeds_from(630000, 3),
                           t_max)


@pytest.mark.parametrize("seeds", [[540000], seeds_from(540000, 3)])
def test_non_finite_policy_output_fails_early(cfg, t_max, seeds):
    # A NaN bias makes the left arm's x NaN at the first tick, in a lockstep
    # call and in a one-trial call alike.
    policy = init_policy(cfg, seed=9)
    policy.params["trunk_b2"][0] = np.nan
    with pytest.raises(InputError):
        bench.run_protocol(cfg, bench.policy_actor_factory(policy), "pick-place", None, seeds, t_max)


def test_collect_policy_induced_from_weak_policy(cfg, mini_cfg, tmp_path, t_max):
    from recoverylab.policy import init_policy

    weak = init_policy(mini_cfg, seed=9)  # untrained: fails everywhere
    stats = datagen.collect_policy_induced(
        cfg, weak, ["pick-place"], 8, 600000, tmp_path / "induced", t_max=t_max
    )
    assert stats["recovery"] + stats["pure_failure"] >= 6
    episodes = read_dataset(tmp_path / "induced")
    for ep in episodes:
        if ep.kind is EpisodeKind.FAILURE_RECOVERY:
            assert ep.t_rec == ep.provenance["takeover_at"]
            assert ep.frames.phase[ep.t_rec] == "Recovery"


def test_collect_policy_induced_refuses_no_tasks(mini_cfg, tmp_path):
    with pytest.raises(InputError, match="task id"):
        datagen.collect_policy_induced(mini_cfg, init_policy(mini_cfg, seed=9), [], 4, 0, tmp_path / "induced", 40)
    assert not (tmp_path / "induced").exists()


@pytest.mark.parametrize("t_max", [0, -5])
def test_collect_policy_induced_refuses_a_t_max_that_is_not_positive(mini_cfg, tmp_path, t_max):
    with pytest.raises(InputError, match="t_max"):
        datagen.collect_policy_induced(mini_cfg, init_policy(mini_cfg, seed=9), ["pick-place"], 4, 0,
                                       tmp_path / "induced", t_max)
    assert not (tmp_path / "induced").exists()


@pytest.mark.parametrize("kind", [None, ErrorKind.E2_GRASP_SLIP], ids=["standard", "E2"])
@pytest.mark.parametrize("t_max", [0, -5])
def test_run_protocol_refuses_a_t_max_that_is_not_positive(cfg, kind, t_max):
    # Under either condition, before any trial's actor is built.
    error = None if kind is None else error_from_config(cfg, kind)
    factory = mock.Mock(side_effect=lambda seed: OracleActor())
    with pytest.raises(InputError, match="t_max"):
        bench.run_protocol(cfg, factory, "pick-place", error, [0, 1], t_max)
    factory.assert_not_called()


def test_run_protocol_refuses_no_seeds(cfg):
    factory = mock.Mock(side_effect=lambda seed: OracleActor())
    with pytest.raises(InputError, match="seed"):
        bench.run_protocol(cfg, factory, "pick-place", None, [], 40)
    factory.assert_not_called()


def test_collect_policy_induced_oracle_rarely_fails(cfg, t_max):
    # The oracle on the induced takeover path never times out, so the
    # planner never takes over; the protocol agrees.
    for seed in seeds_from(610000, 10):
        takeover = TimeoutTakeover()
        (_, episode), = run_episodes(cfg, [Trial(
            OracleActor(), "pick-place", EnvMode.RANDOM, seed, "induced",
            {"generator": "policy-induced"}, t_max, takeover=takeover,
        )])
        assert episode.kind is EpisodeKind.NOMINAL_SUCCESS
        assert not takeover.handed_over
    report = bench.run_protocol(
        cfg, lambda s: OracleActor(), "pick-place", None, seeds_from(610000, 10), t_max
    )
    assert report.n_success == 10


def test_window_open_at_timeout(cfg):
    # A timeout inside the injection window leaves the injection unverified:
    # an interception episode and an evaluation trial are both all-Nominal runs.
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    episode = run_interception(cfg, "pick-place", EnvMode.RANDOM, error, 0, t_max=30)
    assert not episode.provenance["adverse_verified"]
    assert episode.kind is EpisodeKind.PURE_FAILURE
    assert len(episode.frames) == 31
    assert set(episode.frames.phase) == {"Nominal"}
    report = bench.run_protocol(cfg, lambda s: OracleActor(), "pick-place", error, [0], 5)
    assert not report.trials[0].adverse_verified
    assert set(report.trials[0].phase_trace) == {"Nominal"}


def test_gen_nominal_and_stats_cli(tmp_path, capsys):
    out = tmp_path / "expert"
    code = cli_main([
        "gen-nominal", "--task", "pick-place", "--mode", "random",
        "--n", "6", "--seed", "0", "--out", str(out), "--noise", "0.0",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["written"] == 6
    stats = dataset_stats(out)
    assert stats.total == 6

    code = cli_main(["stats", "--data", str(out)])
    assert code == 0
    table = capsys.readouterr().out
    assert "Total episodes" in table and "6" in table


def test_gen_recovery_cli_counts(tmp_path, capsys):
    out = tmp_path / "recovery"
    code = cli_main([
        "gen-recovery", "--error", "E2", "--n", "5", "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert payload["written"] == 5
    assert len(list(out.glob("*.json"))) == 6  # five episodes plus the manifest
    assert dataset_stats(out).by_error_type == {"E2": 5}


def test_cli_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli_main(["gen-nominal", "--bogus-flag", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["gen-nominal", "--n", "-3"],
    ["gen-recovery", "--error", "E2", "--n", "0"],
    ["collect-induced", "--policy", "p.json", "--n", "-1"],
    ["eval", "--policy", "p.json", "--trials", "-2"],
    ["scaling", "--rec-base", "0"],
    ["scaling", "--expert-n", "0"],
    ["scaling", "--trials", "0"],
    ["ablate", "--which", "history-reset", "--failures-n", "-1"],
])
def test_cli_refuses_counts_below_their_least(argv, tmp_path, capsys):
    # A count of no episodes, trials or recoveries (or of fewer than no pure
    # failures) is a usage error, raised before any output is made.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main([*argv, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"argument {argv[-2]}: must be at least" in err
    assert not out.exists()


def test_cli_error_is_machine_readable(tmp_path, capsys):
    code = cli_main(["stats", "--data", str(tmp_path / "missing")])
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert "error" in payload and "message" in payload


def _cli_error(argv, capsys) -> str:
    assert cli_main(argv) == 1
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]


def test_eval_rejects_tampered_policy(cfg, tmp_path, capsys):
    path = save_policy(init_policy(cfg, seed=0), tmp_path / "policy.json")
    payload = json.loads(path.read_text())
    payload["history_w"] = "5"
    path.write_text(json.dumps(payload))
    argv = ["eval", "--policy", str(path), "--trials", "1", "--out", str(tmp_path / "eval")]
    assert _cli_error(argv, capsys) == "StorageError"


def test_eval_missing_config_is_machine_readable(cfg, tmp_path, capsys):
    path = save_policy(init_policy(cfg, seed=0), tmp_path / "policy.json")
    argv = ["eval", "--policy", str(path), "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path)]
    assert _cli_error(argv, capsys) == "ConfigError"


def test_eval_of_zero_trials_is_refused(cfg, tmp_path, capsys):
    path = save_policy(init_policy(cfg, seed=0), tmp_path / "policy.json")
    config = tmp_path / "zero.cfg"
    config.write_text("eval_trials = 0\n")
    argv = ["eval", "--policy", str(path), "--config", str(config), "--out", str(tmp_path / "eval")]
    assert _cli_error(argv, capsys) == "ConfigError"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("argv", [
    ["gen-nominal", "--task", "nope"],
    ["gen-recovery", "--error", "E2", "--task", "nope"],
    ["collect-induced", "--tasks", "pick-place,nope", "--t-max", "40"],
], ids=["gen-nominal", "gen-recovery", "collect-induced"])
def test_cli_unknown_task_makes_no_out(argv, cfg, tmp_path, capsys):
    # Every task id is looked up before the output directory is made, so a
    # later seed's unknown task leaves no earlier seed's episode behind.
    if argv[0] == "collect-induced":
        argv = [*argv, "--policy", str(save_policy(init_policy(cfg, seed=0), tmp_path / "policy.json"))]
    out = tmp_path / "out"
    assert _cli_error([*argv, "--n", "2", "--out", str(out)], capsys) == "ConfigError"
    assert not out.exists()


def test_report_rejects_malformed_input(tmp_path, capsys):
    cases = (("torn.json", '{"trials": ['), ("no-trials.json", '{"summary": {}}'),
             ("scalar-trials.json", '{"trials": ["x"]}'),
             ("mixed-keys.json", '{"trials": [{"seed": 1}, {"seed": 2, "outcome": "Success"}]}'))
    for name, text in cases:
        (tmp_path / name).write_text(text)
        assert _cli_error(["report", "--in", str(tmp_path / name), "--out", str(tmp_path)], capsys) == "StorageError"


def test_train_rai_rejects_recovery_dir_without_recoveries(tmp_path, capsys):
    expert = tmp_path / "expert"
    assert cli_main(["gen-nominal", "--n", "2", "--out", str(expert)]) == 0
    argv = ["train-rai", "--expert", str(expert), "--recovery", str(expert), "--steps", "1",
            "--out", str(tmp_path / "phase1.json")]
    assert _cli_error(argv, capsys) == "InsufficientData"


def test_train_rai_imitates_nominal_successes_only(cfg, tmp_path, capsys, expert_episodes):
    # A timed-out expert run in the --expert directory is neither imitated
    # nor a training seed; a directory of failures only is refused.
    failure = run_nominal(cfg, "pick-place", EnvMode.RANDOM, 50, t_max=20)
    assert failure.kind is EpisodeKind.PURE_FAILURE
    expert, failures = tmp_path / "expert", tmp_path / "failures"
    expert.mkdir()
    failures.mkdir()
    write_episodes(expert_episodes[:2] + [failure], expert)
    write_episodes([failure], failures)
    ckpt = tmp_path / "phase1.json"
    assert cli_main(["train-rai", "--expert", str(expert), "--steps", "1", "--out", str(ckpt)]) == 0
    assert load_policy(ckpt).provenance["training_seeds"] == sorted(e.seed for e in expert_episodes[:2])
    argv = ["train-rai", "--expert", str(failures), "--steps", "1", "--out", str(tmp_path / "none.json")]
    assert _cli_error(argv, capsys) == "InsufficientData"


def test_train_value_refuses_data_without_successes(cfg, tmp_path, capsys):
    # A directory of failures only is refused before any training, as
    # train-rai refuses it, and no checkpoint is written.
    failure = run_nominal(cfg, "pick-place", EnvMode.RANDOM, 50, t_max=20)
    assert failure.kind is EpisodeKind.PURE_FAILURE
    failures, out = tmp_path / "failures", tmp_path / "value.json"
    failures.mkdir()
    write_episodes([failure], failures)
    assert _cli_error(["train-value", "--data", str(failures), "--steps", "1", "--out", str(out)],
                      capsys) == "InsufficientData"
    assert not out.exists()


@pytest.mark.parametrize("suite, asked", [(["scaling"], 1 + 2 + 4), (["ablate", "--which", "history-reset"], 1)],
                         ids=["scaling", "ablate"])
def test_suites_fail_early_on_short_data(suite, asked, tmp_path, capsys, monkeypatch, expert_episodes):
    # Every trial hands back a nominal episode, so no interception verifies:
    # every recovery seed is dropped.  The interceptions are stand-ins, so
    # no recovery seed is planned.  A suite tries at most 20 seeds for each
    # recovery episode it asks for: scaling's 1x, 2x and 4x tiers of
    # rec-base 1 ask for 7, ablate's one tier for 1.
    stand_ins = []
    monkeypatch.setattr(datagen, "interception_trial", lambda *args, **kwargs: stand_ins.append(args) or "trial")
    monkeypatch.setattr(datagen, "run_episodes", lambda cfg, trials: enumerate([expert_episodes[0]] * len(trials)))
    config = tmp_path / "nano.cfg"
    config.write_text("bc_steps = 1\nrefine_steps = 1\nalign_steps = 1\n")
    argv = [*suite, "--config", str(config), "--expert-n", "2", "--rec-base", "1", "--failures-n", "1",
            "--trials", "1", "--out", str(tmp_path / "out")]
    assert cli_main(argv) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "InsufficientData"
    assert payload["message"] == f"recovery tier 1x: 0 of 1 episodes from seeds 10000..{10_000 + 20 * asked - 1}"
    assert len(stand_ins) == 20 * asked


def _expert_one_by_one(cfg, task, seeds, counts, keep_failures=False):
    """``datagen.expert_episodes`` as it ran before seed blocks: one
    ``run_nominal`` per seed."""
    for seed in seeds:
        try:
            episode = run_nominal(cfg, task, EnvMode.RANDOM, seed, action_noise=float(cfg.expert_action_noise))
        except PlanningError:
            counts["skipped"] += 1
            continue
        if episode.outcome is Outcome.FAILURE:
            counts["failures"] += 1
            if not keep_failures:
                continue
        yield episode


def _interceptions_one_by_one(cfg, task, error, seeds, counts, recover=True):
    """``datagen.verified_interceptions`` as it ran before seed blocks: one
    ``run_interception`` per seed."""
    wanted = EpisodeKind.FAILURE_RECOVERY if recover else EpisodeKind.PURE_FAILURE
    for seed in seeds:
        try:
            episode = run_interception(cfg, task, EnvMode.RANDOM, error, seed, recover=recover)
        except PlanningError:
            counts["skipped"] += 1
            continue
        if not episode.provenance.get("adverse_verified", False):
            counts["unverified"] += 1
        elif episode.kind is not wanted:
            counts["skipped"] += 1
        else:
            yield episode


@pytest.mark.parametrize("generator, flag, total", [
    pytest.param("expert", False, Counter(skipped=3, failures=1), id="False"),
    pytest.param("expert", True, Counter(skipped=3, failures=1), id="True"),
    pytest.param("interception", True, Counter(skipped=3, unverified=3), id="interception-recover"),
    pytest.param("interception", False, Counter(skipped=3, unverified=3), id="interception-pure-failure"),
])
def test_expert_blocks_yield_and_count_as_one_by_one(cfg, monkeypatch, generator, flag, total):
    # Objects past x = 0.4 are outside this workspace, so seeds 0, 3 and 6
    # have no plan; in blocks of 3 of this seed order, 0 and 6 start their
    # blocks and 3 ends its block.  Nominal seed 1 stalls, and three E3
    # injections do not verify.  The generators yield the one-by-one
    # episodes in seed order, and a caller that stops after k episodes sees
    # the counts of the seeds up to its k-th episode: expert episodes with
    # and without their failures, and interceptions, recovered or not.
    monkeypatch.setattr(datagen, "SEED_BLOCK", 3)
    c = cfg.with_overrides(workspace_x_max=0.4)
    seeds, e3 = [0, 1, 2, 4, 5, 3, 6, 7], error_from_config(c, ErrorKind.E3_POSITION_OFFSET)
    if generator == "expert":
        def one_by_one(counts):
            return _expert_one_by_one(c, "pick-place", seeds, counts, flag)

        def blocks(counts):
            return datagen.expert_episodes(c, "pick-place", EnvMode.RANDOM, seeds, counts, flag)
    else:
        def one_by_one(counts):
            return _interceptions_one_by_one(c, "pick-place", e3, seeds, counts, flag)

        def blocks(counts):
            return datagen.verified_interceptions(c, "pick-place", EnvMode.RANDOM, e3, seeds, counts, flag)
    counts, block_counts = Counter(), Counter()
    want, got = list(one_by_one(counts)), list(blocks(block_counts))
    assert want and [episode_to_dict(e) for e in got] == [episode_to_dict(e) for e in want]
    assert block_counts == counts == total
    if generator == "expert":
        assert any(e.outcome is Outcome.FAILURE for e in got) == flag
    for k in range(len(want) + 1):
        counts, block_counts = Counter(), Counter()
        list(islice(one_by_one(counts), k))
        list(islice(blocks(block_counts), k))
        assert block_counts == counts, k


def test_train_value_writes_the_fit_progress_model(cfg, tmp_path, capsys):
    # The CLI and the in-memory suites fit the same progress model for a seed.
    expert = tmp_path / "expert"
    ckpt = tmp_path / "value.json"
    assert cli_main(["gen-nominal", "--n", "3", "--seed", "0", "--out", str(expert)]) == 0
    assert cli_main(["train-value", "--data", str(expert), "--steps", "20", "--seed", "3", "--out", str(ckpt)]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    episodes = [e for e in read_dataset(expert) if e.kind is EpisodeKind.NOMINAL_SUCCESS]
    want, losses = bench.fit_progress(cfg.with_overrides(align_steps=20), episodes, 3)
    model = load_progress_model(cfg, ckpt)
    assert model.params.keys() == want.params.keys()
    assert all(np.array_equal(model.params[k], want.params[k]) for k in want.params)
    assert model.reference.keys() == want.reference.keys()
    assert all(np.array_equal(model.reference[k], want.reference[k]) for k in want.reference)
    assert printed == {"checkpoint": str(ckpt), "episodes": len(episodes),
                       "initial_loss": losses[0], "final_loss": losses[-1]}


@pytest.mark.parametrize("command", ["train-value", "train-rai", "train-vcr"])
def test_training_at_zero_steps_writes_the_untrained_checkpoint(command, cfg, tmp_path, capsys, expert_episodes):
    data = tmp_path / "data"
    data.mkdir()
    write_episodes([label_success(episode) for episode in expert_episodes[:2]], data)
    ckpt = tmp_path / "ckpt.json"
    flag = "--expert" if command == "train-rai" else "--data"
    assert cli_main([command, flag, str(data), "--steps", "0", "--out", str(ckpt)]) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert printed["initial_loss"] is None and printed["final_loss"] is None
    if command == "train-value":
        model = load_progress_model(cfg, ckpt)
        want = init_progress_model(cfg, seed=0)
        assert json.loads(ckpt.read_text())["provenance"]["final_loss"] is None
    else:
        model, want = load_policy(ckpt), init_policy(cfg, seed=0)
    assert all(np.array_equal(model.params[k], want.params[k]) for k in want.params)


def test_cli_full_pipeline_small(tmp_path, capsys):
    """gen-nominal -> gen-recovery -> train-value -> label -> train-rai ->
    train-vcr -> eval, at miniature scale, through the real CLI."""
    expert = tmp_path / "expert"
    rec = tmp_path / "rec"
    value_ckpt = tmp_path / "value.json"
    labeled = tmp_path / "labeled"
    rai_ckpt = tmp_path / "rai.json"
    full_ckpt = tmp_path / "full.json"
    evaldir = tmp_path / "eval"

    assert cli_main(["gen-nominal", "--n", "10", "--seed", "0", "--out", str(expert)]) == 0
    assert cli_main(["gen-recovery", "--error", "E2", "--n", "4", "--seed", "1000", "--out", str(rec)]) == 0
    assert cli_main([
        "train-value", "--data", str(expert), "--steps", "300", "--seed", "0", "--out", str(value_ckpt),
    ]) == 0
    assert cli_main([
        "label", "--data", str(expert), "--value", str(value_ckpt), "--out", str(labeled),
    ]) == 0
    assert cli_main([
        "train-rai", "--expert", str(expert), "--recovery", str(rec),
        "--steps", "200", "--seed", "0", "--out", str(rai_ckpt),
    ]) == 0
    assert cli_main([
        "train-vcr", "--data", str(labeled), "--init", str(rai_ckpt),
        "--steps", "200", "--seed", "0", "--out", str(full_ckpt),
    ]) == 0
    assert cli_main([
        "eval", "--policy", str(full_ckpt), "--task", "pick-place", "--error", "E2",
        "--trials", "4", "--seed", "900000", "--expert-data", str(expert), "--out", str(evaldir),
    ]) == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out_lines[-1])["summary"]
    assert summary["condition"] == "Adversarial"
    assert (evaldir / "eval.csv").exists()

    # report re-render
    assert cli_main(["report", "--in", str(evaldir / "eval.json"), "--out", str(evaldir)]) == 0
    assert (evaldir / "report.csv").exists()


def test_train_variants_produces_all(cfg, expert_episodes, recovery_episodes, failure_episodes):
    # Plumbing only, so two steps a stage.
    variants = bench.train_variants(
        cfg.with_overrides(bc_steps=2, refine_steps=2, align_steps=2), expert_episodes[:8], recovery_episodes[:4],
        failure_episodes[:2], seed=1,
    )
    assert variants.sft is not None and variants.phase1 is not None and variants.full is not None
    assert variants.full.provenance["variant"] == "full"
    assert variants.t_max == max_nominal_duration(expert_episodes[:8])
    assert set(variants.training_seeds) >= {e.seed for e in recovery_episodes[:4]}


@pytest.fixture(scope="module")
def nano_cfg(cfg):
    # Just enough training for the suite plumbing to run end to end.
    return cfg.with_overrides(bc_steps=300, refine_steps=300, align_steps=200)


def test_run_scaling_table_shape(nano_cfg, expert_episodes, recovery_episodes, failure_episodes):
    tiers = {"1x": recovery_episodes[:2], "2x": recovery_episodes[:4]}
    error = error_from_config(nano_cfg, ErrorKind.E2_GRASP_SLIP)
    study = bench.train_study(nano_cfg, bench.scaling_cells(list(tiers)), expert_episodes[:8], tiers,
                              failure_episodes[:2])
    rows = bench.evaluate_study(nano_cfg, study, "pick-place", (None, error), seeds_from(700000, 6))
    assert [row["variant"] for row in rows] == ["baseline-sft", "phase-1", "full-1x", "full-2x"]
    for row in rows:
        assert list(row) == ["variant", "standard_success", "adversarial_success", "recovery_rate", "verified",
                             "trials"]
        assert row["trials"] == 6


def test_run_ablations_value_guidance(nano_cfg, expert_episodes, recovery_episodes, failure_episodes, tmp_path):
    error = error_from_config(nano_cfg, ErrorKind.E2_GRASP_SLIP)
    study = bench.train_study(nano_cfg, bench.ABLATIONS["value-guidance"], expert_episodes[:8],
                              {"1x": recovery_episodes[:4]}, failure_episodes[:2])
    assert study.policies["v=1.0"] is study.policies["v=0.0"]
    rows = bench.evaluate_study(nano_cfg, study, "pick-place", (error,), seeds_from(710000, 6))
    assert [row["variant"] for row in rows] == ["v=1.0", "v=0.0"]
    path = bench.write_table(rows, tmp_path / "ablation.csv")
    assert path.read_text().startswith("variant,adversarial_success,recovery_rate,verified\n")


def test_run_ablations_history_reset_and_alpha_rows(nano_cfg, expert_episodes, recovery_episodes, failure_episodes):
    error = error_from_config(nano_cfg, ErrorKind.E2_GRASP_SLIP)
    for which, start, names in (("history-reset", 720000, ["with-reset", "no-reset"]),
                                ("alpha", 730000, ["alpha=1", "alpha=3", "alpha=10"])):
        study = bench.train_study(nano_cfg, bench.ABLATIONS[which], expert_episodes[:6],
                                  {"1x": recovery_episodes[:3]}, failure_episodes[:2])
        rows = bench.evaluate_study(nano_cfg, study, "pick-place", (error,), seeds_from(start, 4))
        assert [row["variant"] for row in rows] == names


def test_suites_train_each_distinct_model_once(nano_cfg, expert_episodes, recovery_episodes, failure_episodes):
    cfg = nano_cfg.with_overrides(bc_steps=2, refine_steps=2, align_steps=2)
    expert, fails = expert_episodes[:4], failure_episodes[:2]

    def calls(train):
        """Calls of train_bc, train_alignment and train_value_conditioned in ``train()``."""
        names = ("train_bc", "train_alignment", "train_value_conditioned")
        stages = [mock.Mock(wraps=getattr(bench, name)) for name in names]
        with mock.patch.multiple(bench, **dict(zip(names, stages))):
            train()
        return [stage.call_count for stage in stages]

    tiers = {"1x": recovery_episodes[:1], "2x": recovery_episodes[:2], "4x": recovery_episodes[:4]}
    for cells, recovery_sets, counts in ((bench.scaling_cells(list(tiers)), tiers, [4, 1, 3]),
                                         (bench.ABLATIONS["alpha"], {"1x": recovery_episodes[:2]}, [1, 1, 3]),
                                         (PP_CELLS, pp_recovery_sets(recovery_episodes), [6, 1, 3])):
        assert calls(lambda: bench.train_study(cfg, cells, expert, recovery_sets, fails)) == counts
    for which, counts in ((("sft", "phase1", "full"), [2, 1, 1]), (("full",), [1, 1, 1])):
        assert calls(lambda: bench.train_variants(cfg, expert, recovery_episodes[:2], fails, which=which)) == counts


@pytest.mark.parametrize("cells, message", [
    ([bench.Cell("full"), bench.Cell("full", "1x", refine=True)], r"duplicate cell names: \['full'\]"),
    (bench.scaling_cells(["1x", "2x"]), r"recovery sets the study was not given: \['2x'\]"),
], ids=["duplicate-name", "unknown-recovery-set"])
def test_study_rejects_bad_cells_before_training(cells, message, cfg, expert_episodes, recovery_episodes,
                                                 monkeypatch):
    for stage in ("phase_one", "fit_progress", "refine"):
        monkeypatch.setattr(bench, stage, None)  # a stage call would raise TypeError
    with pytest.raises(ValidationError, match=message):
        bench.train_study(cfg, cells, expert_episodes[:2], {"1x": recovery_episodes[:1]}, [])


@pytest.fixture()
def vcr_inputs(cfg, tmp_path, expert_episodes):
    """A labeled dataset and a window-5 checkpoint for ``train-vcr --init``."""
    data = tmp_path / "labeled"
    data.mkdir()
    write_episodes([label_success(episode) for episode in expert_episodes[:2]], data)
    init = save_policy(init_policy(cfg, seed=0), tmp_path / "p1.json")
    return ["train-vcr", "--data", str(data), "--init", str(init), "--steps", "1", "--out", str(tmp_path / "out.json")]


def test_train_vcr_init_takes_sigma(vcr_inputs, capsys):
    losses = []
    for flags in ([], ["--sigma", "0.2"]):
        assert cli_main(vcr_inputs + flags) == 0
        losses.append(json.loads(capsys.readouterr().out.strip().splitlines()[-1])["initial_loss"])
    # The likelihood scales as 1 / sigma^2: doubling sigma quarters the loss.
    assert losses[1] == pytest.approx(0.25 * losses[0], rel=1e-9)


def test_train_vcr_init_rejects_another_window(vcr_inputs, capsys):
    assert cli_main(vcr_inputs + ["--history-w", "3"]) == 1
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
