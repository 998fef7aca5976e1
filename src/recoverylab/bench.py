"""Phase-protocol evaluation harness and experiment suites.

Every trial runs the Nominal -> Error -> Recovery protocol: the policy
executes, a structured perturbation projects the scene into an adverse state
at a geometric trigger, and the policy continues without external retry
logic.  Recovery scoring is conditional on the adverse state actually
verifying; unverified trials are excluded from recovery denominators and
reported separately.  Reports serialize to CSV and JSON with stable
formatting so identical configs and seeds reproduce byte-identical files.
The training stages (``phase_one``, ``fit_progress``, ``refine``) are
composed into policies here and nowhere else in the package.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

from .config import Config
from .errors import ValidationError
from .faults import ErrorType, InjectionSchedule, Trial, max_nominal_duration, run_trials
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
from .store import Episode, slice_recovery_suffix
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
    report time.
    """
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
        outcome, _, _, phase = run.checked_verdict()
        trials[i] = TrialRecord(
            task_id=task_id,
            env_mode=env_mode.value,
            seed=run.trial.seed,
            error_type=error.kind.value if error is not None else None,
            adverse_verified=run.adverse_verified,
            phase_trace=phase,
            outcome=outcome.value,
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
    csv_path.write_text(buf.getvalue())

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
    json_path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return {"csv": csv_path, "json": json_path}


# ---------------------------------------------------------------------------
# training pipelines shared by the experiment suites


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


def train_variants(
    cfg: Config,
    expert_episodes: list[Episode],
    recovery_episodes: list[Episode],
    failure_episodes: list[Episode],
    seed: int = 0,
    which: tuple[str, ...] = ("sft", "phase1", "full"),
) -> TrainedVariants:
    """Train the SFT baseline, the phase-one policy, and the refined policy."""
    episodes = expert_episodes + recovery_episodes + failure_episodes
    seeds = sorted({e.seed for e in episodes})
    out = TrainedVariants(t_max=max_nominal_duration(expert_episodes), training_seeds=frozenset(seeds))
    expert_ds = build_frame_dataset(cfg, expert_episodes)

    if "sft" in which:
        out.sft, _ = phase_one(cfg, expert_ds, [], seed)
        out.sft.provenance.update(training_seeds=seeds, variant="sft")
    if "phase1" in which or "full" in which:
        phase1, _ = phase_one(cfg, expert_ds, recovery_episodes, seed)
        phase1.provenance.update(training_seeds=seeds, variant="phase1")
        if "phase1" in which:
            out.phase1 = phase1
        if "full" in which:
            out.full = refine(cfg, phase1, fit_progress(cfg, expert_episodes, seed)[0], episodes, seed)
            out.full.provenance["variant"] = "full"
    return out


# ---------------------------------------------------------------------------
# experiment suites


def _adversarial_columns(report: EvalReport) -> dict:
    return {"adversarial_success": f"{report.success_rate:.6f}", "recovery_rate": f"{report.recovery_rate:.6f}",
            "verified": report.n_verified}


def run_scaling(
    cfg: Config,
    task_id: str,
    error: ErrorType,
    expert_episodes: list[Episode],
    recovery_tiers: dict[str, list[Episode]],
    failure_episodes: list[Episode],
    eval_seeds: list[int],
    train_seed: int = 0,
) -> dict:
    """Recovery-data scaling: train the refined policy per tier, evaluate both
    conditions, and emit rows for {SFT baseline, Phase I, tier variants}.

    Each distinct model trains once: the progress model is shared by every
    tier, and the Phase I row is the smallest tier's phase-one policy."""
    tiers = sorted(recovery_tiers.items(), key=lambda kv: len(kv[1]))
    t_max = max_nominal_duration(expert_episodes)
    expert_ds = build_frame_dataset(cfg, expert_episodes)
    progress, _ = fit_progress(cfg, expert_episodes, train_seed)
    cells: dict[str, Policy] = {"baseline-sft": phase_one(cfg, expert_ds, [], train_seed)[0]}
    for tier_name, tier_eps in tiers:
        phase1, _ = phase_one(cfg, expert_ds, tier_eps, train_seed)
        cells.setdefault("phase-1", phase1)
        cells[f"full-{tier_name}"] = refine(
            cfg, phase1, progress, expert_episodes + tier_eps + failure_episodes, train_seed,
        )
    training_seeds = {e.seed for e in expert_episodes + failure_episodes} | {
        e.seed for eps in recovery_tiers.values() for e in eps
    }
    rows: list[dict] = []
    for name, pol in cells.items():
        std, adv = (
            run_protocol(cfg, policy_actor_factory(pol), task_id, cond, eval_seeds, t_max,
                         training_seeds=training_seeds)
            for cond in (None, error)
        )
        rows.append({"variant": name, "standard_success": f"{std.success_rate:.6f}",
                     **_adversarial_columns(adv), "trials": adv.n_trials})
    return {"rows": rows, "t_max": t_max}


def run_ablations(
    cfg: Config,
    which: str,
    task_id: str,
    error: ErrorType,
    expert_episodes: list[Episode],
    recovery_episodes: list[Episode],
    failure_episodes: list[Episode],
    eval_seeds: list[int],
    train_seed: int = 0,
) -> dict:
    """Component ablations: history-reset on/off, value guidance v in {0, 1},
    and the reliability-decay exponent sweep."""
    if which not in ("history-reset", "value-guidance", "alpha"):
        raise ValidationError(f"unknown ablation {which!r}")
    episodes = expert_episodes + recovery_episodes + failure_episodes
    expert_ds = build_frame_dataset(cfg, expert_episodes)
    # Cells map a row name to the policy and the fixed value input it is evaluated with.
    if which == "history-reset":
        cells = {
            name: (phase_one(cfg, expert_ds, recovery_episodes, train_seed, history_reset=reset)[0], 1.0)
            for name, reset in (("with-reset", True), ("no-reset", False))
        }
    else:
        # Only the labels depend on alpha: phase one and the progress model train once.
        phase1, _ = phase_one(cfg, expert_ds, recovery_episodes, train_seed)
        progress, _ = fit_progress(cfg, expert_episodes, train_seed)
        if which == "value-guidance":
            full = refine(cfg, phase1, progress, episodes, train_seed)
            cells = {f"v={v:.1f}": (full, v) for v in (1.0, 0.0)}
        else:
            cells = {
                f"alpha={a:g}": (refine(cfg.with_overrides(alpha=a), phase1, progress, episodes, train_seed), 1.0)
                for a in (1.0, 3.0, 10.0)
            }
    t_max = max_nominal_duration(expert_episodes)
    training_seeds = {e.seed for e in episodes}
    rows = []
    for name, (pol, v) in cells.items():
        adv = run_protocol(cfg, policy_actor_factory(pol, v_fixed=v), task_id, error, eval_seeds, t_max,
                           training_seeds=training_seeds)
        rows.append({"variant": name, **_adversarial_columns(adv)})
    return {"ablation": which, "rows": rows}


def write_table(rows: list[dict], out_path: str | Path) -> Path:
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    out_path.write_text(buf.getvalue())
    return out_path
