"""Phase-protocol evaluation harness and experiment suites.

Every trial runs the Nominal -> Error -> Recovery protocol: the policy
executes, a structured perturbation projects the scene into an adverse state
at a geometric trigger, and the policy continues without external retry
logic.  Recovery scoring is conditional on the adverse state actually
verifying; unverified trials are excluded from recovery denominators and
reported separately.  Reports serialize to CSV and JSON with stable
formatting so identical configs and seeds reproduce byte-identical files.
The training stages (``phase_one``, ``fit_progress``, ``refine``) are
composed into policies here and nowhere else in the package, by one runner
(``train_study``) over a study's cell list.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from .config import Config
from .errors import InputError, ValidationError
from .faults import ErrorType, InjectionSchedule, Trial, detect_failure, max_nominal_duration, run_trials
from .labeling import label_episode
from .policy import (
    FrameDataset,
    LearnedActor,
    Policy,
    build_frame_dataset,
    init_policy,
    train_bc,
    train_value_conditioned,
)
from .store import Episode, slice_recovery_suffix, write_atomic
from .value import ProgressModel, ReferenceCluster, build_reference_cluster, init_progress_model, train_alignment
from .world import EnvMode


@dataclass(frozen=True)
class TrialRecord:
    task_id: str
    env_mode: str
    seed: int
    error_type: str | None
    adverse_verified: bool
    phase_trace: list[str]
    outcome: str
    steps_used: int


@dataclass
class EvalReport:
    condition: str                 # Standard | Adversarial
    task_id: str
    error_type: str | None
    trials: list[TrialRecord]
    config_snapshot: dict
    dataset_provenance: dict = field(default_factory=dict)

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def n_success(self) -> int:
        return sum(t.outcome == "Success" for t in self.trials)

    @property
    def success_rate(self) -> float:
        return self.n_success / max(1, self.n_trials)

    @property
    def n_verified(self) -> int:
        return sum(t.adverse_verified for t in self.trials)

    @property
    def n_recovered(self) -> int:
        return sum(t.adverse_verified and t.outcome == "Success" for t in self.trials)

    @property
    def recovery_rate(self) -> float:
        """Successes among adverse-verified trials only (the protocol metric)."""
        return self.n_recovered / max(1, self.n_verified)

    @property
    def insufficient_verification(self) -> bool:
        return self.condition == "Adversarial" and self.n_verified == 0

    def summary_row(self) -> dict:
        return {
            "condition": self.condition,
            "task_id": self.task_id,
            "error_type": self.error_type or "",
            "trials": self.n_trials,
            "successes": self.n_success,
            "success_rate": f"{self.success_rate:.6f}",
            "verified": self.n_verified,
            "recovered": self.n_recovered,
            "recovery_rate": f"{self.recovery_rate:.6f}",
            "insufficient_verification": str(self.insufficient_verification),
        }


def adversarial_horizon(cfg: Config, t_max: int, error: ErrorType) -> int:
    """Time budget for recovery trials: room for the nominal run, the injected
    window, and a recovery attempt."""
    return int(cfg.adversarial_budget_mult * t_max) + error.window_steps


def run_protocol(
    cfg: Config,
    actor_factory,
    task_id: str,
    error: ErrorType | None,
    seeds: list[int],
    t_max: int,
    training_seeds: set[int] | None = None,
    env_mode: EnvMode = EnvMode.RANDOM,
    dataset_provenance: dict | None = None,
) -> EvalReport:
    """Evaluate an actor over seeds under the Standard or Adversarial condition.

    ``actor_factory(seed)`` builds a fresh actor per trial.  The trials run in
    lockstep (see ``faults.run_trials``), so learned actors of one policy
    make one batched forward per tick; each trial keeps its own RNGs and
    verdict, and the report lists the trials in seed-list order.  A record
    comes straight from the ended trial's checked verdict, with no episode
    built.  Evaluation seeds must be disjoint from the training seeds
    recorded in the policy/datasets; the overlap assertion runs here, at
    report time.  A ``t_max`` that is not positive, or no seeds, is an
    InputError under either condition, raised before any trial runs.
    """
    detect_failure(0, t_max)  # InputError for a t_max that is not positive
    if not seeds:
        raise InputError("run_protocol needs at least one seed")
    if training_seeds:
        overlap = set(seeds) & set(training_seeds)
        if overlap:
            raise ValidationError(f"evaluation seeds overlap training seeds: {sorted(overlap)[:5]}")
    horizon = adversarial_horizon(cfg, t_max, error) if error is not None else t_max
    batch = [
        Trial(actor_factory(seed), task_id, env_mode, seed, "eval", {"generator": "rollout"}, t_max=horizon,
              trigger=InjectionSchedule(error, None, seed) if error is not None else None)
        for seed in seeds
    ]
    trials: list[TrialRecord | None] = [None] * len(batch)
    for i, run in run_trials(cfg, batch):
        kind, _, phase = run.checked_verdict()
        trials[i] = TrialRecord(
            task_id=task_id,
            env_mode=env_mode.value,
            seed=run.trial.seed,
            error_type=error.kind.value if error is not None else None,
            adverse_verified=run.adverse_verified,
            phase_trace=phase,
            outcome=kind.outcome.value,
            steps_used=run.t,
        )
    return EvalReport(
        condition="Adversarial" if error is not None else "Standard",
        task_id=task_id,
        error_type=error.kind.value if error is not None else None,
        trials=trials,
        config_snapshot=cfg.snapshot(),
        dataset_provenance=dataset_provenance or {},
    )


def policy_actor_factory(policy: Policy, v_fixed: float = 1.0):
    return lambda seed: LearnedActor(policy, v_fixed=v_fixed)


def write_report(report: EvalReport, out_dir: str | Path, name: str) -> dict[str, Path]:
    """Emit <name>.csv (per-trial rows plus a summary row) and <name>.json."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["task_id", "env_mode", "seed", "error_type", "adverse_verified", "outcome", "steps_used"]
    )
    for t in report.trials:
        writer.writerow(
            [t.task_id, t.env_mode, t.seed, t.error_type or "", t.adverse_verified, t.outcome, t.steps_used]
        )
    summary = report.summary_row()
    writer.writerow([])
    writer.writerow(list(summary.keys()))
    writer.writerow(list(summary.values()))
    write_atomic(csv_path, buf.getvalue())

    payload = {
        "summary": summary,
        "trials": [
            {
                "task_id": t.task_id, "env_mode": t.env_mode, "seed": t.seed,
                "error_type": t.error_type, "adverse_verified": t.adverse_verified,
                "outcome": t.outcome, "steps_used": t.steps_used,
                "phase_trace": "".join(p[0] for p in t.phase_trace),
            }
            for t in report.trials
        ],
        "config_snapshot": report.config_snapshot,
        "dataset_provenance": report.dataset_provenance,
    }
    write_atomic(json_path, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return {"csv": csv_path, "json": json_path}


# ---------------------------------------------------------------------------
# training stages and the study runner


@dataclass
class TrainedVariants:
    """Policies produced from one dataset bundle."""

    sft: Policy | None = None
    phase1: Policy | None = None
    full: Policy | None = None
    t_max: int = 0
    training_seeds: frozenset[int] = frozenset()


def phase_one(cfg: Config, expert_ds: FrameDataset, recovery_episodes: list[Episode], seed: int,
              history_reset: bool = True) -> tuple[Policy, list[float]]:
    """Recovery-Aware Initialization: a policy imitating ``expert_ds`` plus,
    at weight ``cfg.lambda_recovery``, the reset slices of
    ``recovery_episodes``.  ``history_reset=False`` is the ablation that
    trains on the raw (unsliced) episodes instead.  Without recovery episodes
    this is the SFT baseline.  Returns the policy and its loss per step."""
    rec_ds = None
    if recovery_episodes:
        if history_reset:
            recovery_episodes = [slice_recovery_suffix(e) for e in recovery_episodes]
        rec_ds = build_frame_dataset(cfg, recovery_episodes)
    policy = init_policy(cfg, seed=seed)
    losses = train_bc(policy, expert_ds, rec_ds, cfg, seed=seed)
    return policy, losses


def fit_progress(cfg: Config, expert_episodes: list[Episode],
                 seed: int) -> tuple[tuple[ProgressModel, ReferenceCluster], list[float]]:
    """The PAS-VF progress model aligned on ``expert_episodes`` with its
    reference cluster of those episodes, and its loss per step."""
    model = init_progress_model(cfg, seed=seed)
    losses = train_alignment(model, expert_episodes, cfg, seed=seed + 1)
    return (model, build_reference_cluster(model, expert_episodes)), losses


def refine(cfg: Config, phase1: Policy, progress: tuple[ProgressModel, ReferenceCluster],
           episodes: list[Episode], seed: int) -> Policy:
    """Value-Conditioned Refinement: a copy of ``phase1`` trained on
    ``episodes`` labeled with ``progress`` and ``cfg.alpha``."""
    labeled = [label_episode(e, *progress, cfg) for e in episodes]
    full = phase1.clone()
    ds = build_frame_dataset(cfg, labeled, require_labels=True)
    train_value_conditioned(full, ds, cfg, seed=seed)
    return full


@dataclass(frozen=True)
class Cell:
    """One policy of a study: the phase one on the expert data plus the
    recovery set named ``recovery`` (None: the SFT baseline), with or without
    ``history_reset``; then, if ``refine``, its refinement at ``alpha`` (None:
    the config's).  It is evaluated at the fixed value input ``v``."""

    name: str
    recovery: str | None = None
    history_reset: bool = True
    refine: bool = False
    alpha: float | None = None
    v: float = 1.0


@dataclass
class Study:
    """The trained policies of a cell list by cell name, with the timeout
    and the training seeds of the data they share."""

    cells: tuple[Cell, ...]
    policies: dict[str, Policy]
    t_max: int
    training_seeds: frozenset[int]


def train_study(cfg: Config, cells: Sequence[Cell], expert_episodes: list[Episode],
                recovery_sets: dict[str, list[Episode]], failure_episodes: list[Episode], seed: int = 0) -> Study:
    """Train the policies of ``cells``, each distinct stage once: one phase
    one per (recovery set, history reset), one progress model on the expert
    episodes, and one refinement per (phase one, alpha) on the expert
    episodes, that recovery set and the failure episodes.  Every stage takes
    ``seed``.  Two cells of one name, or a cell naming a recovery set not in
    ``recovery_sets``, raise ValidationError before anything trains."""
    names = [cell.name for cell in cells]
    if len(set(names)) < len(names):
        raise ValidationError(f"duplicate cell names: {sorted({n for n in names if names.count(n) > 1})}")
    unknown = {cell.recovery for cell in cells} - {None, *recovery_sets}
    if unknown:
        raise ValidationError(f"cells name recovery sets the study was not given: {sorted(unknown)}")
    expert_ds = build_frame_dataset(cfg, expert_episodes)
    stages: dict = {}

    def once(key, train):
        if key not in stages:
            stages[key] = train()
        return stages[key]

    policies = {}
    for cell in cells:
        recovery = [] if cell.recovery is None else recovery_sets[cell.recovery]
        key = (cell.recovery, cell.history_reset)
        policy = once(key, lambda: phase_one(cfg, expert_ds, recovery, seed, cell.history_reset)[0])
        if cell.refine:
            progress = once("progress", lambda: fit_progress(cfg, expert_episodes, seed)[0])
            cell_cfg = cfg if cell.alpha is None else cfg.with_overrides(alpha=cell.alpha)
            episodes = expert_episodes + recovery + failure_episodes
            policy = once((key, cell.alpha), lambda: refine(cell_cfg, policy, progress, episodes, seed))
        policies[cell.name] = policy
    episodes = expert_episodes + [e for eps in recovery_sets.values() for e in eps] + failure_episodes
    return Study(tuple(cells), policies, max_nominal_duration(expert_episodes), frozenset(e.seed for e in episodes))


def evaluate_study(cfg: Config, study: Study, task_id: str, conditions: tuple[ErrorType | None, ...],
                   eval_seeds: list[int]) -> list[dict]:
    """Evaluate each cell's policy at its ``v`` under every condition (None:
    Standard) over ``eval_seeds``, and return one table row per cell in cell
    order: its name, then ``standard_success`` for Standard and the
    adversarial success, recovery rate and verified count for an error, and
    last, when the row spans several conditions, the trials per condition."""
    rows = []
    for cell in study.cells:
        row = {"variant": cell.name}
        for condition in conditions:
            rep = run_protocol(cfg, policy_actor_factory(study.policies[cell.name], v_fixed=cell.v), task_id,
                               condition, eval_seeds, study.t_max, training_seeds=study.training_seeds)
            if condition is None:
                row["standard_success"] = f"{rep.success_rate:.6f}"
            else:
                row.update(adversarial_success=f"{rep.success_rate:.6f}", recovery_rate=f"{rep.recovery_rate:.6f}",
                           verified=rep.n_verified)
        if len(conditions) > 1:
            row["trials"] = len(eval_seeds)
        rows.append(row)
    return rows


def scaling_cells(tiers: list[str]) -> list[Cell]:
    """The recovery-data scaling study over recovery sets named smallest
    first: the SFT baseline, Phase I (the smallest set's phase one), and the
    refined policy of each set."""
    return [Cell("baseline-sft"), Cell("phase-1", tiers[0]),
            *(Cell(f"full-{tier}", tier, refine=True) for tier in tiers)]


# The component ablations by ``ablate --which``, each on the recovery set
# "1x": history reset on/off, value guidance v in {1, 0}, and the
# reliability-decay exponent sweep.
ABLATIONS = {
    "history-reset": (Cell("with-reset", "1x"), Cell("no-reset", "1x", history_reset=False)),
    "value-guidance": tuple(Cell(f"v={v:.1f}", "1x", refine=True, v=v) for v in (1.0, 0.0)),
    "alpha": tuple(Cell(f"alpha={a:g}", "1x", refine=True, alpha=a) for a in (1.0, 3.0, 10.0)),
}


def train_variants(cfg: Config, expert_episodes: list[Episode], recovery_episodes: list[Episode],
                   failure_episodes: list[Episode], seed: int = 0,
                   which: tuple[str, ...] = ("sft", "phase1", "full")) -> TrainedVariants:
    """The study of the cells ``which`` names among the SFT baseline, the
    phase-one policy and its refinement, each marked with its variant name
    and the training seeds."""
    cells = [cell for cell in (Cell("sft"), Cell("phase1", "recovery"), Cell("full", "recovery", refine=True))
             if cell.name in which]
    study = train_study(cfg, cells, expert_episodes, {"recovery": recovery_episodes}, failure_episodes, seed)
    for name, policy in study.policies.items():
        policy.provenance.update(training_seeds=sorted(study.training_seeds), variant=name)
    return TrainedVariants(**study.policies, t_max=study.t_max, training_seeds=study.training_seeds)


def write_table(rows: list[dict], out_path: str | Path) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    write_atomic(out_path, buf.getvalue())
    return out_path
