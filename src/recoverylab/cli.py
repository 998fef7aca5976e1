"""Command-line pipeline orchestration.

Subcommands cover the whole workflow: generate expert and recovery datasets,
train the progress value model, label a mixed dataset, run the two policy
training phases, evaluate under the phase protocol, and run the scaling and
ablation suites.  Every subcommand accepts --config / --seed / --out; errors
exit nonzero with a machine-readable JSON line on stderr.  A flag whose
destination is a Config key (``--steps``, ``--alpha``, ``--sigma``, ...)
overrides that key on top of the --config file.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

from . import bench, datagen, labeling, policy as policy_mod, store, value as value_mod
from .config import DEFAULTS, Config, load_config
from .errors import ConfigError, InsufficientData, RecoveryLabError, StorageError
from .faults import ErrorKind, error_from_config, max_nominal_duration
from .store import EpisodeKind, read_dataset
from .world import EnvMode


def _env_mode(text: str) -> EnvMode:
    return EnvMode.CLEAN if text.lower() == "clean" else EnvMode.RANDOM


def _at_least(least: int):
    """An argparse type: an integer of at least ``least``."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _ends(losses: list[float]) -> tuple[float | None, float | None]:
    """The first and last loss of a training run; None for a run of no steps."""
    return (losses[0], losses[-1]) if losses else (None, None)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=0, help="base random seed")
    p.add_argument("--out", default="out", help="output directory or file")


def _dirs(text: str) -> list[Path]:
    return [Path(part) for part in text.split(",") if part]


def _load_episodes(dirs: list[Path]) -> list:
    episodes = []
    for d in dirs:
        episodes.extend(read_dataset(d))
    return episodes


def _config(args) -> Config:
    """The --config file plus every flag that names a Config key and was given."""
    overrides = {k: v for k, v in vars(args).items() if k in DEFAULTS and v is not None}
    return load_config(args.config, **overrides)


def _resolve_t_max(cfg: Config, args) -> int:
    if getattr(args, "t_max", None) is not None:
        return int(args.t_max)
    if getattr(args, "expert_data", None):
        return max_nominal_duration(_load_episodes(_dirs(args.expert_data)))
    return int(cfg.episode_max_steps)


def cmd_gen_nominal(args) -> int:
    cfg = _config(args)
    stats = datagen.generate_nominal(
        cfg, args.task, _env_mode(args.mode), args.n, args.seed, args.out, keep_failures=args.keep_failures,
    )
    print(json.dumps(stats))
    return 0


def cmd_gen_recovery(args) -> int:
    cfg = _config(args)
    error = error_from_config(cfg, ErrorKind(args.error))
    stats = datagen.generate_recovery(
        cfg, args.task, _env_mode(args.mode), error, args.n, args.seed, args.out,
        pure_failure=args.pure_failure,
    )
    print(json.dumps(stats))
    return 0


def cmd_collect_induced(args) -> int:
    cfg = _config(args)
    pol = policy_mod.load_policy(args.policy)
    t_max = _resolve_t_max(cfg, args)
    stats = datagen.collect_policy_induced(
        cfg, pol, args.tasks.split(","), args.n, args.seed, args.out, t_max=t_max,
    )
    print(json.dumps(stats))
    return 0


def cmd_train_value(args) -> int:
    cfg = _config(args)
    episodes = [
        e for e in _load_episodes(_dirs(args.data)) if e.kind is EpisodeKind.NOMINAL_SUCCESS
    ]
    if not episodes:
        raise InsufficientData(f"{args.data}: no NominalSuccess episodes")
    model, losses = bench.fit_progress(cfg, episodes, args.seed)
    initial, final = _ends(losses)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    value_mod.save_progress_model(model, out, {"episodes": len(episodes), "final_loss": final, "seed": args.seed})
    print(json.dumps({"checkpoint": str(out), "episodes": len(episodes),
                      "initial_loss": initial, "final_loss": final}))
    return 0


def cmd_label(args) -> int:
    cfg = _config(args)
    model = value_mod.load_progress_model(cfg, args.value)
    summary = labeling.label_dataset(args.data, args.out, model, cfg)
    print(json.dumps(summary))
    return 0


def cmd_train_rai(args) -> int:
    cfg = _config(args)
    expert = [e for e in _load_episodes(_dirs(args.expert)) if e.kind is EpisodeKind.NOMINAL_SUCCESS]
    if not expert:
        raise InsufficientData(f"{args.expert}: no NominalSuccess episodes")
    recovery = []
    if args.recovery:
        recovery = [e for e in _load_episodes(_dirs(args.recovery)) if e.kind is EpisodeKind.FAILURE_RECOVERY]
        if not recovery:
            raise InsufficientData(f"{args.recovery}: no FailureRecovery episodes")
    pol, losses = bench.phase_one(
        cfg, policy_mod.build_frame_dataset(cfg, expert), recovery, args.seed,
        history_reset=not args.no_history_reset,
    )
    pol.provenance["training_seeds"] = sorted({e.seed for e in expert + recovery})
    pol.provenance["phase"] = "imitation"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    policy_mod.save_policy(pol, out)
    initial, final = _ends(losses)
    print(json.dumps({"checkpoint": str(out), "initial_loss": initial, "final_loss": final}))
    return 0


def cmd_train_vcr(args) -> int:
    cfg = _config(args)
    labeled = _load_episodes(_dirs(args.data))
    pol = policy_mod.load_policy(args.init) if args.init else policy_mod.init_policy(cfg, seed=args.seed)
    if pol.history_w != int(cfg.history_window):
        raise ConfigError(f"history_window is {cfg.history_window}, the --init checkpoint's is {pol.history_w}")
    ds = policy_mod.build_frame_dataset(cfg, labeled, require_labels=True)
    losses = policy_mod.train_value_conditioned(pol, ds, cfg, seed=args.seed)
    prior = set(pol.provenance.get("training_seeds", []))
    pol.provenance["training_seeds"] = sorted(prior | set(ds.seeds))
    pol.provenance["phase"] = "value-conditioned"
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    policy_mod.save_policy(pol, out)
    initial, final = _ends(losses)
    print(json.dumps({"checkpoint": str(out), "initial_loss": initial, "final_loss": final}))
    return 0


def cmd_eval(args) -> int:
    cfg = _config(args)
    pol = policy_mod.load_policy(args.policy)
    error = error_from_config(cfg, ErrorKind(args.error)) if args.error else None
    t_max = _resolve_t_max(cfg, args)
    trials = int(cfg.eval_trials) if args.trials is None else args.trials
    seeds = [args.seed + i for i in range(trials)]
    training_seeds = set(pol.provenance.get("training_seeds", []))
    report = bench.run_protocol(
        cfg, bench.policy_actor_factory(pol, v_fixed=args.v), args.task, error, seeds, t_max,
        training_seeds=training_seeds, env_mode=_env_mode(args.mode),
        dataset_provenance={"policy": str(args.policy), "training_seeds": sorted(training_seeds)},
    )
    paths = bench.write_report(report, args.out, name=args.name)
    print(json.dumps({"summary": report.summary_row(), "csv": str(paths["csv"]), "json": str(paths["json"])}))
    return 0


def _first(episodes, n: int, name: str, seeds: range) -> list:
    """The first ``n`` of ``episodes``, drawn from ``seeds``; InsufficientData
    naming the set if the seeds run out first."""
    kept = list(islice(episodes, n))
    if len(kept) < n:
        raise InsufficientData(f"{name}: {len(kept)} of {n} episodes from seeds {seeds.start}..{seeds.stop - 1}")
    return kept


def _build_suite_data(cfg: Config, args, rec_counts: dict[str, int]):
    """Generate the expert pool, recovery tiers, and pure failures in memory.
    The tiers take turns drawing from one run over the recovery seeds."""
    error = error_from_config(cfg, ErrorKind(args.error))
    expert_seeds = range(args.seed, args.seed + 4 * args.expert_n)
    # At most 20 seeds per interception asked, in disjoint ranges of at most
    # 50,000 and 10,000 seeds, so a condition that never verifies fails early.
    # At the default config, E1, E2 and E4 verify on 100 of the first 100
    # recovery and failure seeds of every task, and E3 on 58 and 68.
    rec_seeds = range(args.seed + 10_000, args.seed + 10_000 + min(20 * sum(rec_counts.values()), 50_000))
    fail_seeds = range(args.seed + 70_000, args.seed + 70_000 + min(20 * args.failures_n, 10_000))
    expert = _first(datagen.expert_episodes(cfg, args.task, EnvMode.RANDOM, expert_seeds, Counter()),
                    args.expert_n, "expert pool", expert_seeds)
    recoveries = datagen.verified_interceptions(cfg, args.task, EnvMode.RANDOM, error, rec_seeds, Counter())
    tiers = {name: _first(recoveries, count, f"recovery tier {name}", rec_seeds)
             for name, count in rec_counts.items()}
    fails = _first(
        datagen.verified_interceptions(cfg, args.task, EnvMode.RANDOM, error, fail_seeds, Counter(), recover=False),
        args.failures_n, "pure failures", fail_seeds,
    )
    return error, expert, tiers, fails


def _run_study(args, cells, rec_counts: dict[str, int], table: str, standard: bool) -> int:
    """Train a suite's cells, evaluate them under the error (and Standard if ``standard``), write the table."""
    cfg = _config(args)
    error, expert, tiers, fails = _build_suite_data(cfg, args, rec_counts)
    eval_seeds = [args.seed + 100_000 + i for i in range(args.trials)]
    study = bench.train_study(cfg, cells, expert, tiers, fails, seed=args.seed)
    rows = bench.evaluate_study(cfg, study, args.task, (None, error) if standard else (error,), eval_seeds)
    out = bench.write_table(rows, Path(args.out) / f"{table}.csv")
    print(json.dumps({"rows": rows, "csv": str(out)}))
    return 0


def cmd_scaling(args) -> int:
    counts = {"1x": args.rec_base, "2x": 2 * args.rec_base, "4x": 4 * args.rec_base}
    return _run_study(args, bench.scaling_cells(list(counts)), counts, "scaling", standard=True)


def cmd_ablate(args) -> int:
    return _run_study(args, bench.ABLATIONS[args.which], {"1x": args.rec_base}, f"ablation-{args.which}",
                      standard=False)


def cmd_stats(args) -> int:
    report = store.dataset_stats(args.data)
    print(report.table())
    return 0


def cmd_report(args) -> int:
    try:
        payload = json.loads(Path(args.input).read_text())
        rows = payload["trials"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise StorageError(f"{args.input}: not an evaluation report: {exc!r}") from exc
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows) \
            or len({frozenset(row) for row in rows}) > 1:
        raise StorageError(f"{args.input}: not an evaluation report: trials must be objects with one key set")
    out = bench.write_table(rows, Path(args.out) / "report.csv")
    print(json.dumps({"summary": payload.get("summary", {}), "csv": str(out)}))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  Each subcommand's ``fn`` names
    its ``cmd_*`` function, which ``main`` looks up at dispatch, so a
    replaced ``cmd_*`` is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="recoverylab",
        description="failure injection, recovery-data generation, and value-conditioned policy training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-nominal", help="generate expert demonstration episodes")
    _add_common(p)
    p.add_argument("--task", default="pick-place")
    p.add_argument("--mode", choices=["clean", "random"], default="random")
    p.add_argument("--n", type=_at_least(1), default=50)
    p.add_argument("--noise", dest="expert_action_noise", type=float, default=None, help="collection action noise")
    p.add_argument("--keep-failures", action="store_true")
    p.set_defaults(fn="cmd_gen_nominal")

    p = sub.add_parser("gen-recovery", help="generate paired failure-recovery episodes")
    _add_common(p)
    p.add_argument("--task", default="pick-place")
    p.add_argument("--mode", choices=["clean", "random"], default="random")
    p.add_argument("--error", required=True, choices=[k.value for k in ErrorKind])
    p.add_argument("--n", type=_at_least(1), default=50)
    p.add_argument("--pure-failure", action="store_true", help="suppress recovery; store pure failures")
    p.set_defaults(fn="cmd_gen_recovery")

    p = sub.add_parser("collect-induced", help="collect policy-induced failures with planner takeover")
    _add_common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--tasks", default="pick-place")
    p.add_argument("--n", type=_at_least(1), default=50)
    p.add_argument("--expert-data", default=None, help="dataset dir(s) used to derive the timeout")
    p.add_argument("--t-max", type=int, default=None)
    p.set_defaults(fn="cmd_collect_induced")

    p = sub.add_parser("train-value", help="train the progress value model")
    _add_common(p)
    p.add_argument("--data", required=True, help="comma-separated dataset dirs of successes")
    p.add_argument("--steps", dest="align_steps", type=int, default=None)
    p.set_defaults(fn="cmd_train_value")

    p = sub.add_parser("label", help="write hindsight value labels over a dataset")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--value", required=True, help="progress-model checkpoint")
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(fn="cmd_label")

    p = sub.add_parser("train-rai", help="phase-one imitation on expert plus reset-recovery data")
    _add_common(p)
    p.add_argument("--expert", required=True)
    p.add_argument("--recovery", default=None)
    p.add_argument("--lambda", dest="lambda_recovery", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--steps", dest="bc_steps", type=int, default=None)
    p.add_argument("--lr", dest="policy_lr", type=float, default=None)
    p.add_argument("--history-w", dest="history_window", type=int, default=None)
    p.add_argument("--no-history-reset", action="store_true",
                   help="ablation: train on unsliced recovery episodes with raw histories")
    p.set_defaults(fn="cmd_train_rai")

    p = sub.add_parser("train-vcr", help="value-conditioned refinement on a labeled dataset")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--init", default=None, help="phase-one checkpoint to fine-tune; its window must be history_window")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--steps", dest="refine_steps", type=int, default=None)
    p.add_argument("--lr", dest="policy_lr", type=float, default=None)
    p.add_argument("--history-w", dest="history_window", type=int, default=None)
    p.set_defaults(fn="cmd_train_vcr")

    p = sub.add_parser("eval", help="phase-protocol evaluation of a policy checkpoint")
    _add_common(p)
    p.add_argument("--policy", required=True)
    p.add_argument("--task", default="pick-place")
    p.add_argument("--mode", choices=["clean", "random"], default="random")
    p.add_argument("--error", default=None, choices=[k.value for k in ErrorKind])
    p.add_argument("--trials", type=_at_least(1), default=None)
    p.add_argument("--v", type=float, default=1.0, help="fixed value input at deployment")
    p.add_argument("--expert-data", default=None)
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--name", default="eval")
    p.set_defaults(fn="cmd_eval")

    p = sub.add_parser("scaling", help="recovery-data scaling study (1x/2x/4x)")
    _add_common(p)
    p.add_argument("--task", default="pick-place")
    p.add_argument("--error", default="E2", choices=[k.value for k in ErrorKind])
    p.add_argument("--expert-n", type=_at_least(1), default=40)
    p.add_argument("--rec-base", type=_at_least(1), default=8)
    p.add_argument("--failures-n", type=_at_least(0), default=8)
    p.add_argument("--trials", type=_at_least(1), default=40)
    p.set_defaults(fn="cmd_scaling")

    p = sub.add_parser("ablate", help="component ablations")
    _add_common(p)
    p.add_argument("--which", required=True, choices=list(bench.ABLATIONS))
    p.add_argument("--task", default="pick-place")
    p.add_argument("--error", default="E2", choices=[k.value for k in ErrorKind])
    p.add_argument("--expert-n", type=_at_least(1), default=40)
    p.add_argument("--rec-base", type=_at_least(1), default=16)
    p.add_argument("--failures-n", type=_at_least(0), default=8)
    p.add_argument("--trials", type=_at_least(1), default=30)
    p.set_defaults(fn="cmd_ablate")

    p = sub.add_parser("stats", help="dataset statistics table")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(fn="cmd_stats")

    p = sub.add_parser("report", help="re-render a stored evaluation report")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn="cmd_report")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.fn](args)
    except RecoveryLabError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
