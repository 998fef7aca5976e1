"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured quantity at its pinned tolerance.

The heavy criteria share two session-scoped bundles (pick-place and
stack-two): generated datasets, trained policy variants, and a progress
model.  Everything is seeded; re-runs reproduce identical numbers.

Run with: pytest tests/test_acceptance.py -v -s
"""

import math
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from recoverylab import bench, datagen
from recoverylab.config import load_config
from recoverylab.faults import (
    ErrorKind,
    InjectionSchedule,
    TRIGGER_PHASE,
    detect_failure,
    error_from_config,
    inject,
    run_nominal,
)
from recoverylab.labeling import label_failure
from recoverylab.nets import flat_buffer
from recoverylab.policy import build_frame_dataset, init_policy, loss_and_grads
from recoverylab.store import (
    EpisodeKind,
    PhaseTag,
    dataset_stats,
    slice_recovery_suffix,
    write_episode,
)
from recoverylab.value import (
    _episode_prefix_features,
    alignment_loss_and_grads,
    build_reference_cluster,
    embed_trajectory,
    estimate_progress,
    init_progress_model,
    instruction_feature,
    similarity_curve,
    train_alignment,
)
from recoverylab.world import EnvMode, RIGHT
from tests.gradcheck import finite_difference, relative_error
from tests.test_store import make_episode
from tests.test_labeling import decay_reference
from tests.test_value import spearman

CFG = load_config()
E2 = error_from_config(CFG, ErrorKind.E2_GRASP_SLIP)

# Evaluation seed blocks are far above every training-data seed range.
EVAL_BASE = 100_000


def report(criterion: str, detail: str) -> None:
    print(f"{criterion} PASS — {detail}")


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


def gen_recoveries(task: str, n: int, seed0: int, recover: bool = True):
    seeds = range(seed0, seed0 + 40 * n)
    out = list(islice(datagen.verified_interceptions(CFG, task, EnvMode.RANDOM, E2, seeds, Counter(), recover), n))
    assert len(out) == n, f"could not generate {n} episodes for {task}"
    return out


def gen_experts(task: str, n_attempts: int, seed0: int = 0):
    return list(datagen.expert_episodes(CFG, task, EnvMode.RANDOM, range(seed0, seed0 + n_attempts), Counter()))


# Pick-place: the SFT baseline, the tier-trained refined policies, and the
# history-reset ablation pair.  Tier recovery sets are nested prefixes of one
# pool so 2x and 4x genuinely double the 1x data; the ablation pair trains on
# the full pool, where the unsliced error segments carry enough weight for the
# causal-confusion effect to show.
PP_TIERS = {"1x": 4, "2x": 8, "4x": 16}
PP_CELLS = (
    bench.Cell("sft"),
    bench.Cell("phase1", "pool"),
    bench.Cell("phase1-noreset", "pool", history_reset=False),
    *(bench.Cell(f"full-{tier}", tier, refine=True) for tier in PP_TIERS),
)


def pp_recovery_sets(pool):
    return {"pool": pool, **{tier: pool[:n] for tier, n in PP_TIERS.items()}}


@pytest.fixture(scope="session")
def pp_bundle():
    """Pick-place datasets and the policies of ``PP_CELLS`` by cell name."""
    expert = gen_experts("pick-place", 60)
    rec_pool = gen_recoveries("pick-place", 32, 10_000)
    fails = gen_recoveries("pick-place", 10, 70_000, recover=False)
    study = bench.train_study(CFG, PP_CELLS, expert, pp_recovery_sets(rec_pool), fails, seed=0)
    return {"expert": expert, "rec_pool": rec_pool, "fails": fails, "t_max": study.t_max,
            "training_seeds": study.training_seeds, **study.policies}


@pytest.fixture(scope="session")
def st_bundle():
    """Stack-two: a second task's refined policy for the value-guidance check."""
    expert = gen_experts("stack-two", 50)
    rec = gen_recoveries("stack-two", 16, 10_000)
    fails = gen_recoveries("stack-two", 6, 70_000, recover=False)
    var = bench.train_variants(CFG, expert, rec, fails, seed=0, which=("full",))
    return {"full": var.full, "t_max": var.t_max,
            "training_seeds": set(var.training_seeds)}


@pytest.fixture(scope="session")
def a8_reports(pp_bundle):
    seeds = [EVAL_BASE + i for i in range(300)]
    reports = {}
    for name, pol in (("sft", pp_bundle["sft"]), ("full", pp_bundle["full-4x"])):
        reports[name] = bench.run_protocol(
            CFG, bench.policy_actor_factory(pol), "pick-place", E2, seeds,
            pp_bundle["t_max"], training_seeds=pp_bundle["training_seeds"],
        )
    return reports


# ---------------------------------------------------------------------------
# A1 — reliability-decay exactness


def test_a1_decay_exactness():
    horizon = 10
    episode = make_episode(
        [PhaseTag.NOMINAL] + [PhaseTag.ERROR] * horizon,
        kind=EpisodeKind.PURE_FAILURE, t_rec=None,
    )
    labeled = label_failure(episode, 0.8, CFG.with_overrides(alpha=3.0))
    values = labeled.frames.v.tolist()
    assert abs(values[5] - 0.1) < 1e-9
    assert abs(values[0] - 0.8) < 1e-9
    assert abs(values[horizon] - 0.0) < 1e-9
    for t, v in enumerate(values):
        assert abs(v - decay_reference(0.8, horizon, 3.0, t)) < 1e-9
    report("A1", f"v_5={values[5]:.10f}, endpoints=({values[0]}, {values[-1]}), tol 1e-9")


# ---------------------------------------------------------------------------
# A2 — timeout detector exactness


def test_a2_detector_table():
    t_max = 137
    table = {0: detect_failure(0, t_max), t_max: detect_failure(t_max, t_max),
             t_max + 1: detect_failure(t_max + 1, t_max)}
    assert table == {0: False, t_max: False, t_max + 1: True}
    report("A2", f"strict-inequality table over {{0, T, T+1}} = {list(table.values())}")


# ---------------------------------------------------------------------------
# A3 — override exactness


def test_a3_override_exactness():
    action = (-0.31, 0.22, 0.17, 0.4, 0.29, 0.11, -0.23, 0.6)
    x, y, theta, grip = 4, 5, 6, 7  # the right arm's half of the row
    t0 = 50
    for kind in ErrorKind:
        error = error_from_config(CFG, kind)
        schedule = InjectionSchedule(error=error, trigger_phase=TRIGGER_PHASE[kind], rng_seed=7)
        schedule.resolve(t0, RIGHT, 0)
        inside = inject(action, t0 + 1, schedule)
        if kind is ErrorKind.E1_PREMATURE_CLOSE:
            assert inside[grip] == 1.0 and inside[x:grip] == action[x:grip]
        elif kind is ErrorKind.E2_GRASP_SLIP:
            assert inside[grip] == 0.0 and inside[x:grip] == action[x:grip]
            steps = [t for t in range(t0 - 5, t0 + 40) if schedule.in_window(t)]
            assert len(steps) == 30 and steps[0] == t0
        elif kind is ErrorKind.E3_POSITION_OFFSET:
            dx, dy = schedule.draws["dp"]
            assert inside[x] == action[x] + dx
            assert inside[y] == action[y] + dy
            assert inside[theta] == action[theta]
            assert inside[grip] == action[grip]
        else:
            lx, _ = schedule.draws["lat"]
            dth = schedule.draws["dtheta"]
            assert inside[x] == action[x] + lx
            assert abs(inside[theta] - (action[theta] + dth)) < 1e-15
            assert inside[grip] == action[grip]
        assert inside[:4] == action[:4]
        # bit-identical outside the window
        assert inject(action, t0 - 1, schedule) is action
        assert inject(action, t0 + error.window_steps, schedule) is action
    report("A3", "all four overrides exact field-by-field; slip window exactly 30 steps")


# ---------------------------------------------------------------------------
# A4 — slicing and history contract


def test_a4_history_reset_contract(pp_bundle):
    w = int(CFG.history_window)
    episode = pp_bundle["rec_pool"][0]
    sliced = slice_recovery_suffix(episode)
    assert np.array_equal(sliced.frames.obs, episode.frames.obs[episode.t_rec:])
    assert np.array_equal(sliced.frames.actions, episode.frames.actions[episode.t_rec:])
    sliced_hist, _ = build_frame_dataset(CFG, [sliced]).history(np.arange(len(sliced.frames)))
    sliced_windows = sliced_hist.reshape(len(sliced.frames), w, -1)
    for k in range(1, w):
        window = sliced_windows[k]
        assert np.count_nonzero(np.any(window != 0.0, axis=1)) == k
        for j in range(k):
            assert np.array_equal(window[j], sliced.frames.obs[k - 1 - j])
        assert np.all(window[k:] == 0.0)
    t = episode.t_rec + 1
    raw = build_frame_dataset(CFG, [episode]).history(np.array([t]))[0].reshape(w, -1)
    assert np.count_nonzero(np.any(raw != 0.0, axis=1)) == w
    for j in range(w):
        assert np.array_equal(raw[j], episode.frames.obs[t - 1 - j])
    assert t - w < episode.t_rec  # raw windows really span the failure prefix
    report("A4", "slices preserve content; reset windows pad at k<W; raw windows span the prefix")


# ---------------------------------------------------------------------------
# A5 — gradient correctness


def test_a5_gradient_checks(pp_bundle):
    model = init_progress_model(CFG, seed=0)
    episodes = pp_bundle["expert"][:3]
    feats = [_episode_prefix_features(model.featurizer, e) for e in episodes]
    x_traj = np.stack([feats[i][8] for i in range(3)])
    x_instr = np.stack([instruction_feature(model.featurizer, e.instruction_id) for e in episodes])
    targets = np.array([0.2, 0.55, 0.9])
    _, grads = alignment_loss_and_grads(model.params, x_traj, x_instr, targets)
    fd = finite_difference(lambda p: alignment_loss_and_grads(p, x_traj, x_instr, targets)[0], model.params)
    err_align = relative_error(flat_buffer(grads), fd)
    assert err_align < 1e-4

    small_cfg = CFG.with_overrides(policy_hidden=12, value_token_dim=4, instr_embed_dim=3, history_window=2)
    policy = init_policy(small_cfg, seed=1)
    ds = build_frame_dataset(small_cfg, episodes[:2])
    idx = np.array([0, 13, 37])
    hist, pad = ds.history(idx)
    batch = (hist, ds.obs[idx], ds.instr[idx], np.array([0.1, 0.6, 1.0]), ds.actions[idx], pad)
    _, pgrads = loss_and_grads(policy, small_cfg, *batch)

    def policy_loss(params):
        # finite_difference perturbs the policy's own parameter views.
        assert params is policy.params
        return loss_and_grads(policy, small_cfg, *batch)[0]

    fd = finite_difference(policy_loss, policy.params)
    err_policy = relative_error(flat_buffer(pgrads), fd)
    assert err_policy < 1e-4
    report("A5", f"alignment grad rel err {err_align:.2e}, policy NLL grad rel err {err_policy:.2e} (< 1e-4)")


# ---------------------------------------------------------------------------
# A6 — alignment monotonicity


def test_a6_alignment_monotonicity(pp_bundle):
    train_set = pp_bundle["expert"][:30]
    assert len(train_set) >= 20
    model = init_progress_model(CFG, seed=0)
    train_alignment(model, train_set, CFG, seed=1)
    holdout = [run_nominal(CFG, "pick-place", EnvMode.RANDOM, 90_000 + s) for s in range(6)]
    rhos = []
    for episode in holdout:
        curve = similarity_curve(model, episode)[1:]
        rhos.append(spearman(np.array([c[0] for c in curve]), np.array([c[1] for c in curve])))
    rho = float(np.mean(rhos))
    assert rho >= 0.9
    report("A6", f"held-out Spearman rho = {rho:.4f} (>= 0.9) over {len(holdout)} episodes")


# ---------------------------------------------------------------------------
# A7 — self-referential estimation oracle


def test_a7_estimation_oracle(pp_bundle):
    model = init_progress_model(CFG, seed=0)
    train_alignment(model, pp_bundle["expert"][:20], CFG.with_overrides(align_steps=400), seed=1)
    cluster = build_reference_cluster(model, pp_bundle["expert"][:20])
    worst = 0.0
    for episode in pp_bundle["fails"][:5]:
        v = estimate_progress(model, cluster, episode)
        z = embed_trajectory(model, episode.frames.obs)
        brute = max(float(z @ member) for member in cluster.members[episode.instruction_id])
        worst = max(worst, abs(v - brute))
    assert worst < 1e-6
    member_v = estimate_progress(model, cluster, pp_bundle["expert"][0])
    assert abs(member_v - 1.0) < 1e-9
    report("A7", f"max |estimate - brute force| = {worst:.2e} (< 1e-6); cluster member scores {member_v:.9f}")


# ---------------------------------------------------------------------------
# A8 — end-to-end directional gain


def test_a8_directional_gain(a8_reports):
    sft, full = a8_reports["sft"], a8_reports["full"]
    assert sft.n_verified >= 200 and full.n_verified >= 200
    gain = full.recovery_rate - sft.recovery_rate
    assert gain >= 0.20
    report(
        "A8",
        f"recovery success: full {full.n_recovered}/{full.n_verified} "
        f"({full.recovery_rate:.3f}) vs sft {sft.n_recovered}/{sft.n_verified} "
        f"({sft.recovery_rate:.3f}); gain {gain * 100:.1f}pp (>= 20pp)",
    )


# ---------------------------------------------------------------------------
# A9 — value-guidance control


def test_a9_value_guidance(pp_bundle, st_bundle):
    per_task = {}
    cells = [
        ("pick-place", pp_bundle["full-4x"], pp_bundle["t_max"], pp_bundle["training_seeds"]),
        ("stack-two", st_bundle["full"], st_bundle["t_max"], st_bundle["training_seeds"]),
    ]
    seeds = [EVAL_BASE + i for i in range(40)]
    for task, pol, t_max, train_seeds in cells:
        rates = {}
        for v in (1.0, 0.0):
            rep = bench.run_protocol(
                CFG, bench.policy_actor_factory(pol, v_fixed=v), task, E2, seeds, t_max,
                training_seeds=train_seeds,
            )
            rates[v] = (rep.n_success, rep.n_trials)
        per_task[task] = rates
        assert rates[1.0][0] >= rates[0.0][0], f"{task}: v=1 must not lose to v=0"
    total_v1 = sum(r[1.0][0] for r in per_task.values())
    total_v0 = sum(r[0.0][0] for r in per_task.values())
    assert total_v1 > total_v0
    detail = "; ".join(
        f"{task} v1 {r[1.0][0]}/{r[1.0][1]} vs v0 {r[0.0][0]}/{r[0.0][1]}"
        for task, r in per_task.items()
    )
    report("A9", f"{detail}; aggregate {total_v1} > {total_v0}")


# ---------------------------------------------------------------------------
# A10 — recovery-data scaling trend


def test_a10_scaling_trend(pp_bundle):
    seeds = [EVAL_BASE + i for i in range(60)]
    rates = {}
    counts = {}
    for name in ("1x", "2x", "4x"):
        rep = bench.run_protocol(
            CFG, bench.policy_actor_factory(pp_bundle[f"full-{name}"]), "pick-place", E2,
            seeds, pp_bundle["t_max"], training_seeds=pp_bundle["training_seeds"],
        )
        rates[name] = rep.success_rate
        counts[name] = (rep.n_success, rep.n_trials)
    order = ["1x", "2x", "4x"]
    for lo, hi in zip(order, order[1:]):
        if rates[hi] < rates[lo]:
            # a decrease between adjacent tiers must sit inside binomial noise
            lo_ci = wilson_interval(*counts[lo])
            hi_ci = wilson_interval(*counts[hi])
            assert hi_ci[1] >= lo_ci[0], f"{hi} below {lo} beyond binomial noise"
    assert rates["4x"] > rates["1x"]
    report(
        "A10",
        "adversarial success "
        + " -> ".join(f"{n}:{counts[n][0]}/{counts[n][1]}" for n in order)
        + " (non-decreasing within noise; 4x > 1x strictly)",
    )


# ---------------------------------------------------------------------------
# A11 — history-reset ablation


def test_a11_history_reset_ablation(pp_bundle):
    seeds = [EVAL_BASE + i for i in range(110)]
    results = {}
    for name, pol in (("with-reset", pp_bundle["phase1"]), ("no-reset", pp_bundle["phase1-noreset"])):
        rep = bench.run_protocol(
            CFG, bench.policy_actor_factory(pol), "pick-place", E2, seeds,
            pp_bundle["t_max"], training_seeds=pp_bundle["training_seeds"],
        )
        results[name] = rep
    # Success under the adversarial condition: the no-reset variant loses both
    # by dropping re-grasped objects (verified failures) and by degraded
    # nominal competence (unverified trials), so the trial-level success rate
    # is the honest comparison.
    with_rate = results["with-reset"].success_rate
    without_rate = results["no-reset"].success_rate
    assert without_rate < with_rate
    report(
        "A11",
        f"adverse recovery success: with-reset {results['with-reset'].n_success}/110 "
        f"({with_rate:.3f}) strictly above no-reset {results['no-reset'].n_success}/110 "
        f"({without_rate:.3f}); conditional recovery rates "
        f"{results['with-reset'].recovery_rate:.3f} vs {results['no-reset'].recovery_rate:.3f}",
    )


# ---------------------------------------------------------------------------
# A12 — protocol integrity


def test_a12_protocol_integrity(pp_bundle, a8_reports, tmp_path):
    for rep in a8_reports.values():
        recomputed = sum(1 for t in rep.trials if t.adverse_verified and t.outcome == "Success")
        assert rep.n_recovered == recomputed
        for trial in rep.trials:
            if not trial.adverse_verified:
                assert trial.outcome in ("Success", "Failure")  # reported separately, never in denominator
    # byte-identical reports across re-runs with fixed seeds
    seeds = [EVAL_BASE + i for i in range(20)]
    blobs = []
    for run in ("r1", "r2"):
        rep = bench.run_protocol(
            CFG, bench.policy_actor_factory(pp_bundle["full-4x"]), "pick-place", E2,
            seeds, pp_bundle["t_max"], training_seeds=pp_bundle["training_seeds"],
        )
        paths = bench.write_report(rep, tmp_path / run, name="integrity")
        blobs.append((paths["csv"].read_bytes(), paths["json"].read_bytes()))
    assert blobs[0] == blobs[1]
    report("A12", "recovery denominators contain only verified trials; report CSV/JSON byte-identical across re-runs")


# ---------------------------------------------------------------------------
# A13 — dataset bookkeeping


def test_a13_dataset_bookkeeping(pp_bundle, tmp_path):
    dataset = tmp_path / "bookkeeping"
    dataset.mkdir()
    mix = pp_bundle["expert"][:7] + pp_bundle["rec_pool"][:5] + pp_bundle["fails"][:3]
    for ep in mix:
        write_episode(ep, dataset)
    stats = dataset_stats(dataset)
    files = len(list(dataset.glob("*.json"))) - 1  # minus the manifest
    assert stats.total == files == len(mix)
    assert stats.by_kind["NominalSuccess"] == 7
    assert stats.by_kind["FailureRecovery"] == 5
    assert stats.by_kind["PureFailure"] == 3
    assert stats.by_error_type["E2"] == 8
    assert sum(stats.by_kind.values()) == stats.total
    assert sum(stats.by_task.values()) == stats.total
    report("A13", f"stats total {stats.total} == files {files} == manifest; kind/error breakdowns consistent")
