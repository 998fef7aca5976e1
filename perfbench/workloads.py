"""The benchmark's three workloads, driven through recoverylab's public API.

Each ``*_round`` function runs one fixed unit of work for a ``Context`` built
by ``setup``, checks the outputs from outside the program, and returns a
``Round`` with its end-to-end metrics and a determinism digest.  A round's
inputs depend only on the workload seed, so every round of a run repeats the
same work and must reproduce the same digest.

* eval-protocol: ``bench.run_protocol`` on pick-place under Standard and
  Adversarial E1-E4, one call per condition with the whole seed list, using
  the committed checkpoint.  Pure closed-loop rollouts.
* train-recipe: ``bench.train_variants`` for (sft, phase1, full) and then for
  (full,) on a recovery tier twice as large, in memory, at reduced step counts.
  Pure training; the second call refits an identical progress model.
* cli-data: the README walkthrough's data half through ``cli.main`` in a fresh
  directory.  Planner episodes, storage writes and reads, labeling, and the
  policy-induced collection loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from recoverylab import bench, cli, policy as policy_mod, store
from recoverylab.config import Config, load_config
from recoverylab.faults import ErrorKind, error_from_config, run_interception, run_nominal
from recoverylab.store import EpisodeKind, Outcome
from recoverylab.world import EnvMode

from tracing import bound_arg, package_modules, patch, unpatch

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "checkpoint" / "pp_full.json"
CHECKPOINT_META = HERE / "checkpoint" / "pp_full.meta.json"

TASK = "pick-place"
TASKS = ("pick-place", "stack-two", "bimanual-handover")
ERRORS = ("E1", "E2", "E3", "E4")
CONDITIONS = (None,) + ERRORS

# Sizes of one round.  Seeds start far above the checkpoint's training seeds
# (0-59, 10000+, 70000+), so run_protocol's overlap check passes.
SEED_BASE = 1_000_000
SEED_STRIDE = 200_000                 # 12 blocks of 10,000 seeds per workload seed
EVAL_TRIALS = 60                      # per condition; 300 trials, ~33k env steps
TRAIN_STEPS = {"bc_steps": 300, "refine_steps": 300, "align_steps": 300}
TRAIN_SEED = 0                        # a recipe constant, as in the acceptance bundle
LOSS_TAIL = 50                        # losses averaged at the end of each phase
BUNDLE_EXPERT_ATTEMPTS = 30
BUNDLE_RECOVERIES = 16                # 1x tier is the first half
BUNDLE_FAILURES = 6
CLI_NOMINAL = {"pick-place": 120, "stack-two": 16, "bimanual-handover": 16}
CLI_RECOVERY = 6                      # per task and error
CLI_PURE_FAILURE = 6
CLI_VALUE_STEPS = 200
CLI_INDUCED = 4


@dataclass
class Tally:
    """Operations and output checks attempted and failed."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, n: int, ok: bool, what: str) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.op(1, bool(ok), what)

    def crashed(self, n: int, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.op(n, False, what)


@dataclass
class Round:
    wall: float                         # seconds of measured work
    metrics: dict[str, float]
    digest: str
    cli_s: dict[str, float] = field(default_factory=dict)


@dataclass
class Context:
    cfg: Config
    seed: int
    policy: policy_mod.Policy
    t_max: int
    training_seeds: set[int]
    expert: list
    recoveries: list
    failures: list
    workdir: Path
    clock: Callable[[], float]          # seconds; all measured times are read from it

    def seeds(self, block: int, n: int) -> list[int]:
        start = SEED_BASE + SEED_STRIDE * self.seed + 10_000 * block
        return list(range(start, start + n))


def expert_episodes(cfg: Config, seeds) -> list:
    """Noise-injected pick-place demonstrations over ``seeds``, successes only."""
    noise = float(cfg.expert_action_noise)
    episodes = (run_nominal(cfg, TASK, EnvMode.RANDOM, s, action_noise=noise) for s in seeds)
    return [ep for ep in episodes if ep.outcome is Outcome.SUCCESS]


def verified_episodes(cfg: Config, error, seeds, n: int, recover: bool) -> list:
    """The first ``n`` verified recoveries (or pure failures) over ``seeds``."""
    wanted = EpisodeKind.FAILURE_RECOVERY if recover else EpisodeKind.PURE_FAILURE
    out = []
    for seed in seeds:
        ep = run_interception(cfg, TASK, EnvMode.RANDOM, error, seed, recover=recover)
        if ep.kind is wanted and ep.provenance.get("adverse_verified"):
            out.append(ep)
            if len(out) == n:
                return out
    raise RuntimeError(f"fewer than {n} verified {wanted.value} episodes in {len(seeds)} seeds")


def setup(seed: int, runs_dir: Path, clock: Callable[[], float]) -> Context:
    """Load the checkpoint and build the in-memory training bundle."""
    raw = CHECKPOINT.read_bytes()
    meta = json.loads(CHECKPOINT_META.read_text())
    if hashlib.sha256(raw).hexdigest() != meta["sha256"]:
        raise RuntimeError(f"{CHECKPOINT.name} does not match the sha256 in {CHECKPOINT_META.name}")
    cfg = load_config()
    ctx = Context(cfg=cfg, seed=seed, policy=policy_mod.load_policy(CHECKPOINT), t_max=int(meta["t_max"]),
                  training_seeds=set(meta["training_seeds"]), expert=[], recoveries=[], failures=[],
                  workdir=Path(tempfile.mkdtemp(prefix="run-", dir=runs_dir)), clock=clock)
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    ctx.expert = expert_episodes(cfg, ctx.seeds(1, BUNDLE_EXPERT_ATTEMPTS))
    ctx.recoveries = verified_episodes(cfg, e2, ctx.seeds(2, 20 * BUNDLE_RECOVERIES), BUNDLE_RECOVERIES, True)
    ctx.failures = verified_episodes(cfg, e2, ctx.seeds(3, 20 * BUNDLE_FAILURES), BUNDLE_FAILURES, False)
    return ctx


# ---------------------------------------------------------------------------
# eval-protocol


def eval_round(ctx: Context, tally: Tally) -> Round:
    seeds = ctx.seeds(0, EVAL_TRIALS)
    factory = bench.policy_actor_factory(ctx.policy)
    out_dir = ctx.workdir / "reports"
    digest = hashlib.sha256()
    wall = 0.0
    steps = adv_trials = adv_success = verified = recovered = 0
    for cond in CONDITIONS:
        name = cond or "standard"
        try:
            error = error_from_config(ctx.cfg, ErrorKind(cond)) if cond else None
            t0 = ctx.clock()
            report = bench.run_protocol(
                ctx.cfg, factory, TASK, error, seeds, ctx.t_max, training_seeds=ctx.training_seeds,
                dataset_provenance={"policy": CHECKPOINT.name},
            )
            wall += ctx.clock() - t0
            paths = bench.write_report(report, out_dir, name)
        except Exception:
            tally.crashed(len(seeds), f"eval {name} raised")
            continue
        tally.op(len(seeds), True, f"eval {name}")
        steps += sum(t.steps_used for t in report.trials)
        if cond:
            adv_trials += report.n_trials
            adv_success += report.n_success
            verified += report.n_verified
            recovered += report.n_recovered
        raw = paths["json"].read_bytes()
        digest.update(raw)
        tally.check(json.loads(raw)["summary"] == report.summary_row(),
                    f"eval {name}: reread report summary differs from summary_row()")
        tally.check(all(t.adverse_verified for t in report.trials
                        if t.outcome == "Success" and "Recovery" in t.phase_trace),
                    f"eval {name}: a recovered trial is not verified")
    metrics = {
        "eval.env_steps_per_s": steps / wall if wall else 0.0,
        "eval.adversarial_success": adv_success / max(1, adv_trials),
        "eval.recovery_rate": recovered / max(1, verified),
    }
    return Round(wall, metrics, digest.hexdigest())


# ---------------------------------------------------------------------------
# train-recipe


@contextlib.contextmanager
def _loss_capture(cfg: Config):
    """Record (phase, rows per step, losses) of every training-phase call."""
    modules = package_modules()
    captured: list[tuple[str, int, list[float]]] = []
    undo: list = []
    batch, align_batch = int(cfg.policy_batch), int(cfg.align_batch)
    phases = (
        ("bc", modules["policy"], "train_bc"),
        ("vcr", modules["policy"], "train_value_conditioned"),
        ("align", modules["value"], "train_alignment"),
    )
    for phase, mod, name in phases:
        original = getattr(mod, name)
        recovery = bound_arg(original, "reset_recovery") if phase == "bc" else None

        def wrapper(*args, _fn=original, _phase=phase, _recovery=recovery, **kwargs):
            losses = _fn(*args, **kwargs)
            if _phase == "bc":
                rows = batch * (2 if _recovery(args, kwargs) is not None else 1)
            else:
                rows = align_batch if _phase == "align" else batch
            captured.append((_phase, rows, list(losses)))
            return losses
        patch(modules.values(), original, wrapper, undo)
    try:
        yield captured
    finally:
        unpatch(undo)


def _param_digest(policies) -> str:
    h = hashlib.sha256()
    for pol in policies:
        for key in sorted(pol.params):
            h.update(key.encode())
            h.update(np.ascontiguousarray(pol.params[key]).tobytes())
        h.update(pol.obs_mean.tobytes())
        h.update(pol.obs_std.tobytes())
    return h.hexdigest()


def train_round(ctx: Context, tally: Tally) -> Round:
    cfg = ctx.cfg.with_overrides(**TRAIN_STEPS)
    half = ctx.recoveries[: BUNDLE_RECOVERIES // 2]
    trained = []
    with _loss_capture(cfg) as captured:
        t0 = ctx.clock()
        for tier, which in ((half, ("sft", "phase1", "full")), (ctx.recoveries, ("full",))):
            try:
                out = bench.train_variants(cfg, ctx.expert, tier, ctx.failures, seed=TRAIN_SEED, which=which)
            except Exception:
                tally.crashed(1, f"train_variants {which} raised")
                continue
            trained += [getattr(out, name) for name in which]
        wall = ctx.clock() - t0
    for phase, _, losses in captured:
        tally.op(1, True, f"train {phase}")
        tally.check(losses and all(math.isfinite(x) for x in losses), f"train {phase}: non-finite loss")
    metrics = {"train.samples_per_s": sum(rows * len(losses) for _, rows, losses in captured) / wall}
    for phase in ("bc", "vcr", "align"):
        tails = [float(np.mean(losses[-LOSS_TAIL:])) for p, _, losses in captured if p == phase and losses]
        tally.check(bool(tails), f"train {phase}: no losses recorded")
        metrics[f"train.{phase}_loss_tail"] = float(np.mean(tails)) if tails else 0.0
    return Round(wall, metrics, _param_digest(trained))


# ---------------------------------------------------------------------------
# cli-data


def _manifest(dataset: Path) -> list[dict]:
    path = dataset / store.MANIFEST_NAME
    return json.loads(path.read_text())["episodes"] if path.exists() else []


def _check_dataset(dataset: Path, tally: Tally) -> int:
    """Outside checks of one dataset directory; returns its stored frame count."""
    entries = _manifest(dataset)
    files = sorted(p for p in dataset.glob("*.json") if p.name != store.MANIFEST_NAME)
    for e in entries:
        data = (dataset / e["file"]).read_bytes()
        tally.check(hashlib.sha256(data).hexdigest() == e["sha256"],
                    f"{dataset.name}/{e['file']}: manifest sha256 does not match the file")
    kinds = Counter(json.loads(p.read_text())["kind"] for p in files)
    stats = store.dataset_stats(dataset)
    tally.check(stats.total == len(files) == len(entries) and stats.by_kind == dict(kinds),
                f"{dataset.name}: dataset_stats totals disagree with the files and manifest")
    return sum(e["n_frames"] for e in entries)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.json")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def cli_round(ctx: Context, tally: Tally) -> Round:
    root = Path(tempfile.mkdtemp(prefix="cli-", dir=ctx.workdir))
    cli_s: Counter = Counter()

    def run(*argv) -> dict:
        """Run one subcommand; its last stdout line as JSON, or {} on failure."""
        out, err = io.StringIO(), io.StringIO()
        t0 = ctx.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = -1
            traceback.print_exc(file=sys.stderr)
        cli_s[argv[0]] += ctx.clock() - t0
        tally.op(1, code == 0, f"cli {' '.join(map(str, argv[:3]))} exited {code}: {err.getvalue()[-300:]}")
        lines = out.getvalue().strip().splitlines()
        try:
            return json.loads(lines[-1]) if code == 0 and lines else {}
        except json.JSONDecodeError:
            return {}

    def gen_check(stats, n, parts, dataset):
        tally.check(sum(stats.get(p, 0) for p in parts) == n
                    and stats.get("written") == len(_manifest(dataset)),
                    f"{dataset.name}: {' + '.join(parts)} != n or written != manifest entries")

    generated, nominal_dirs = [], []
    for i, task in enumerate(TASKS):
        d = root / f"expert-{task}"
        n = CLI_NOMINAL[task]
        stats = run("gen-nominal", "--task", task, "--n", n, "--seed", ctx.seeds(4 + i, 1)[0], "--out", d)
        gen_check(stats, n, ("written", "skipped", "failures"), d)
        generated.append(d)
        nominal_dirs.append(d)
    for i, task in enumerate(TASKS):
        for j, err in enumerate(ERRORS):
            d = root / f"rec-{task}-{err}"
            seed0 = ctx.seeds(7 + i, 1)[0] + 1000 * j
            stats = run("gen-recovery", "--task", task, "--error", err, "--n", CLI_RECOVERY,
                        "--seed", seed0, "--out", d)
            gen_check(stats, CLI_RECOVERY, ("written", "skipped", "unverified"), d)
            generated.append(d)
    d = root / f"fail-{TASK}-E2"
    stats = run("gen-recovery", "--task", TASK, "--error", "E2", "--pure-failure", "--n", CLI_PURE_FAILURE,
                "--seed", ctx.seeds(10, 1)[0], "--out", d)
    gen_check(stats, CLI_PURE_FAILURE, ("written", "skipped", "unverified"), d)
    generated.append(d)

    value_ckpt = root / "value.json"
    stats = run("train-value", "--data", ",".join(map(str, nominal_dirs)), "--steps", CLI_VALUE_STEPS,
                "--seed", TRAIN_SEED, "--out", value_ckpt)
    tally.check(all(math.isfinite(stats.get(k, math.nan)) for k in ("initial_loss", "final_loss")),
                "train-value: non-finite loss")
    labeled = []
    for d in generated:
        out = d.with_name(d.name + "-labeled")
        run("label", "--data", d, "--value", value_ckpt, "--out", out)
        labeled.append(out)
    for d in generated:
        run("stats", "--data", d)
    induced = root / "induced"
    stats = run("collect-induced", "--policy", CHECKPOINT, "--tasks", TASK, "--n", CLI_INDUCED,
                "--seed", ctx.seeds(11, 1)[0], "--expert-data", nominal_dirs[0], "--out", induced)
    tally.check(sum(stats.get(k, 0) for k in ("recovery", "pure_failure", "policy_success", "skipped"))
                == CLI_INDUCED,
                "collect-induced: outcome counts do not add up to n")

    gen_frames = sum(_check_dataset(d, tally) for d in generated)
    label_frames = sum(_check_dataset(d, tally) for d in labeled)
    _check_dataset(induced, tally)
    for src, out in zip(generated, labeled):
        eps = [json.loads((out / e["file"]).read_text()) for e in _manifest(out)]
        tally.check(len(eps) == len(_manifest(src))
                    and all(0.0 <= f["v"] <= 1.0 for ep in eps for f in ep["frames"]),
                    f"{out.name}: episode count differs from its source or a label is outside [0, 1]")
    digest = _tree_digest(root)
    shutil.rmtree(root)
    gen_wall = cli_s["gen-nominal"] + cli_s["gen-recovery"]
    metrics = {
        "data.gen_frames_per_s": gen_frames / gen_wall if gen_wall else 0.0,
        "data.label_frames_per_s": label_frames / cli_s["label"] if cli_s["label"] else 0.0,
    }
    return Round(sum(cli_s.values()), metrics, digest, dict(cli_s))


ROUNDS = {"eval-protocol": eval_round, "train-recipe": train_round, "cli-data": cli_round}
