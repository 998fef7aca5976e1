import copy
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from recoverylab.errors import InputError, StorageError, ValidationError
from recoverylab.faults import ErrorKind, Trial, error_from_config, run_episodes
from recoverylab.nets import flat_buffer
from recoverylab.policy import (
    LearnedActor,
    action_from_vector,
    build_frame_dataset,
    init_policy,
    load_policy,
    local_waypoint,
    loss_and_grads,
    save_policy,
    train_bc,
    train_value_conditioned,
)
from recoverylab.store import Outcome, slice_recovery_suffix
from recoverylab.world import OBS_DIM, EnvMode, reset
from tests.actors import rollout
from tests.gradcheck import finite_difference, relative_error


@pytest.fixture(scope="module")
def tiny_policy(cfg):
    return init_policy(cfg, seed=3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_action_from_vector_rejects_non_finite(cfg, bad):
    # Any slot: an infinite x or grip would otherwise clip to a bound, an
    # infinite theta would reach wrap_angle.
    for i in range(8):
        vec = np.full(8, 0.25)
        vec[i] = bad
        with pytest.raises(InputError):
            action_from_vector(cfg, vec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_action_from_vector_rejects_non_finite_in_any_row(cfg, bad):
    for row in range(3):
        for i in range(8):
            batch = np.full((3, 8), 0.25)
            batch[row, i] = bad
            with pytest.raises(InputError):
                action_from_vector(cfg, batch)


@pytest.mark.parametrize("v", [-0.1, 1.5, math.nan, math.inf])
def test_learned_actor_checks_v_fixed_when_built(tiny_policy, v):
    # Caught where the actor is built, not at its first tick.
    with pytest.raises(InputError):
        LearnedActor(tiny_policy, v_fixed=v)


def test_gradient_matches_finite_differences(cfg, expert_episodes):
    small = cfg.with_overrides(policy_hidden=12, value_token_dim=4, instr_embed_dim=3, history_window=2)
    policy = init_policy(small, seed=1)
    ds = build_frame_dataset(small, expert_episodes[:2])
    idx = np.array([0, 11, 40])
    hist, pad = ds.history(idx)
    batch = (hist, ds.obs[idx], ds.instr[idx], np.array([0.1, 0.5, 0.9]), ds.actions[idx], pad)
    _, grads = loss_and_grads(policy, small, *batch)

    def loss_fn(params):
        # finite_difference perturbs the policy's own parameter views.
        assert params is policy.params
        return loss_and_grads(policy, small, *batch)[0]

    fd = finite_difference(loss_fn, policy.params)
    assert relative_error(flat_buffer(grads), fd) < 1e-4


def test_lambda_zero_matches_expert_only(mini_cfg, tiny_policy, expert_episodes, recovery_episodes):
    expert_ds = build_frame_dataset(mini_cfg, expert_episodes[:3])
    rec_ds = build_frame_dataset(mini_cfg, [slice_recovery_suffix(e) for e in recovery_episodes[:2]])
    a = init_policy(mini_cfg, seed=5)
    b = init_policy(mini_cfg, seed=5)
    train_bc(a, expert_ds, rec_ds, mini_cfg.with_overrides(bc_steps=40, lambda_recovery=0.0), seed=7)
    train_bc(b, expert_ds, None, mini_cfg.with_overrides(bc_steps=40), seed=7)
    for k in a.params:
        assert np.array_equal(a.params[k], b.params[k])


def test_dataset_swap_symmetry(cfg, tiny_policy, expert_episodes, recovery_episodes):
    # With lambda = 1 the two dataset terms are interchangeable in the loss.
    ds_a = build_frame_dataset(cfg, expert_episodes[:2])
    ds_b = build_frame_dataset(cfg, [slice_recovery_suffix(e) for e in recovery_episodes[:2]])
    idx_a = np.arange(16)
    idx_b = np.arange(16)

    def term(ds, idx):
        hist, pad = ds.history(idx)
        loss, _ = loss_and_grads(tiny_policy, cfg, hist, ds.obs[idx], ds.instr[idx], np.ones(len(idx)),
                                 ds.actions[idx], pad)
        return loss

    forward_order = term(ds_a, idx_a) + 1.0 * term(ds_b, idx_b)
    swapped = term(ds_b, idx_b) + 1.0 * term(ds_a, idx_a)
    assert forward_order == pytest.approx(swapped, rel=1e-12)


def test_training_determinism(mini_cfg, expert_episodes):
    results = []
    for _ in range(2):
        policy = init_policy(mini_cfg, seed=2)
        ds = build_frame_dataset(mini_cfg, expert_episodes[:4])
        train_bc(policy, ds, None, mini_cfg.with_overrides(bc_steps=60), seed=11)
        results.append(flat_buffer(policy.params).copy())
    assert np.array_equal(results[0], results[1])


def test_vcr_rejects_unlabeled(mini_cfg, expert_episodes):
    with pytest.raises(ValidationError):
        build_frame_dataset(mini_cfg, expert_episodes[:2], require_labels=True)


def test_vcr_constant_value_matches_bc_loss(cfg, tiny_policy, expert_episodes):
    # All-ones labels make the refinement objective the plain imitation loss.
    from recoverylab.labeling import label_success

    labeled = [label_success(e) for e in expert_episodes[:2]]
    ds_labeled = build_frame_dataset(cfg, labeled, require_labels=True)
    ds_plain = build_frame_dataset(cfg, expert_episodes[:2])
    idx = np.arange(24)
    hist_a, pad_a = ds_labeled.history(idx)
    loss_a, _ = loss_and_grads(tiny_policy, cfg, hist_a, ds_labeled.obs[idx], ds_labeled.instr[idx],
                               ds_labeled.values[idx], ds_labeled.actions[idx], pad_a)
    hist_b, pad_b = ds_plain.history(idx)
    loss_b, _ = loss_and_grads(tiny_policy, cfg, hist_b, ds_plain.obs[idx], ds_plain.instr[idx],
                               np.ones(len(idx)), ds_plain.actions[idx], pad_b)
    assert loss_a == pytest.approx(loss_b, rel=1e-12)


def test_local_waypoint_equivalence(cfg, expert_episodes):
    # The transformed label moves the arm exactly like the original target.
    from recoverylab.world import step as world_step

    episode = expert_episodes[0]
    state = reset(cfg, episode.task_id, episode.env_mode, episode.seed)
    obs, actions = episode.frames.obs, episode.frames.actions
    wp_vec = local_waypoint(cfg, obs[0], actions[0])
    wp_action = action_from_vector(cfg, wp_vec)
    recorded = action_from_vector(cfg, actions[0])
    assert recorded.tolist() == actions[0].tolist()  # the recorded action, unclamped
    a = world_step(cfg, state, recorded)
    b = world_step(cfg, state, wp_action)
    assert a.arm_poses == b.arm_poses
    # On rows it gives each pair's waypoint exactly.
    pairs = np.stack([local_waypoint(cfg, o, a) for o, a in zip(obs, actions)])
    assert np.array_equal(local_waypoint(cfg, obs, actions), pairs)


def test_history_window_contract(cfg, recovery_episodes):
    w = int(cfg.history_window)
    episode = recovery_episodes[0]
    sliced = slice_recovery_suffix(episode)
    reset_hist, _ = build_frame_dataset(cfg, [sliced]).history(np.arange(len(sliced.frames)))
    # Windows of a sliced episode are built purely from its own frames: row
    # k of the window at index t is the sliced obs at t - 1 - k, padded with
    # zeros before frame 0, the recovery onset.  No reach-back is possible.
    for t in range(len(sliced.frames)):
        window = reset_hist[t].reshape(w, -1)
        valid = min(w, t)
        for k in range(valid):
            assert np.array_equal(window[k], sliced.frames.obs[t - 1 - k])
        for k in range(valid, w):
            assert np.all(window[k] == 0.0)
    # Windows at early recovery frames of the UNsliced episode reach into
    # the failure prefix: row positions beyond t - t_rec hold pre-onset obs.
    t = episode.t_rec + 1
    window = build_frame_dataset(cfg, [episode]).history(np.array([t]))[0].reshape(w, -1)
    for k in range(w):
        source = episode.frames.obs[t - 1 - k]
        assert np.array_equal(window[k], source)
    assert t - w < episode.t_rec  # the window really spans pre-onset frames


def test_rollout_deterministic(cfg, mini_policies):
    _, _, full = mini_policies
    a = rollout(full, cfg, "pick-place", EnvMode.RANDOM, 300001, t_max=120)
    b = rollout(full, cfg, "pick-place", EnvMode.RANDOM, 300001, t_max=120)
    assert len(a.frames) == len(b.frames)
    for fa, fb in zip(a.frames.actions, b.frames.actions):
        assert np.array_equal(fa, fb)


def test_rollout_truncates_at_t_max_plus_one(cfg, tiny_policy):
    # An untrained policy stalls; the timeout fires at t = t_max + 1.
    episode = rollout(tiny_policy, cfg, "pick-place", EnvMode.RANDOM, 300002, t_max=40)
    assert episode.outcome is Outcome.FAILURE
    assert len(episode.frames) == 41


def test_rollout_with_injection_records_schedule(cfg, mini_policies):
    _, _, full = mini_policies
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    episode = rollout(
        full, cfg, "pick-place", EnvMode.RANDOM, 300010, injection=error, t_max=300,
    )
    assert episode.error_type == "E2"
    assert "adverse_verified" in episode.provenance
    if episode.provenance["adverse_verified"]:
        t0, t1 = episode.provenance["schedule"]["window"]
        assert t1 - t0 == 30


def test_value_token_liveness(cfg, mini_policies, expert_episodes):
    # Zeroing the value-token perceptron changes actions on >= 90% of probes.
    _, _, full = mini_policies
    probes = build_frame_dataset(cfg, expert_episodes[:6])
    zeroed = full.clone()
    zeroed.params["val_w"][...] = 0.0
    zeroed.params["val_b"][...] = 0.0
    from recoverylab.policy import _forward_batch

    idx = np.arange(0, len(probes), max(1, len(probes) // 80))
    v = np.ones(len(idx))
    hist, pad = probes.history(idx)
    batch = hist, probes.obs[idx], probes.instr[idx], v, pad
    mu_a, _ = _forward_batch(full, *batch)
    mu_b, _ = _forward_batch(zeroed, *batch)
    changed = np.any(np.abs(mu_a - mu_b) > 1e-9, axis=1)
    assert changed.mean() >= 0.9


def test_loaded_and_cloned_policies_train_in_their_own_buffer(mini_cfg, tmp_path, expert_episodes,
                                                              recovery_episodes):
    from recoverylab.labeling import label_recovery, label_success

    cfg = mini_cfg.with_overrides(refine_steps=30)
    labeled = [label_success(e) for e in expert_episodes[:3]] + [label_recovery(e) for e in recovery_episodes[:2]]
    ds = build_frame_dataset(cfg, labeled, require_labels=True)
    policy = init_policy(cfg, seed=4)
    loaded = load_policy(save_policy(policy, tmp_path / "policy.json"))
    cloned = policy.clone()
    before = flat_buffer(policy.params).copy()
    train_value_conditioned(loaded, ds, cfg, seed=2)
    train_value_conditioned(cloned, ds, cfg, seed=2)
    assert np.array_equal(flat_buffer(policy.params), before)
    train_value_conditioned(policy, ds, cfg, seed=2)
    assert not np.array_equal(flat_buffer(policy.params), before)
    for other in (loaded, cloned):
        assert np.array_equal(flat_buffer(other.params), flat_buffer(policy.params))


def test_dataset_padding_is_the_rows_before_frame_zero(cfg, expert_episodes, recovery_episodes):
    episodes = expert_episodes[:2] + [slice_recovery_suffix(e) for e in recovery_episodes[:2]]
    ds = build_frame_dataset(cfg, episodes)
    w = int(cfg.history_window)
    # Row k of frame t's window is frame t-1-k.
    want = np.concatenate([np.arange(w)[None, :] >= np.arange(len(e.frames))[:, None] for e in episodes])
    hist, pad = ds.history(np.arange(len(ds)))
    assert np.array_equal(pad, want)
    assert np.array_equal(pad, np.all(hist.reshape(len(ds), w, OBS_DIM) == 0.0, axis=2))


def rule_windows(episodes, w):
    """Every frame's flattened history window and padding mask by the rule,
    frame by frame: row k of frame t is frame t-1-k, zeros before frame 0."""
    hist, pad = [], []
    for episode in episodes:
        obs = episode.frames.obs
        for t in range(len(obs)):
            hist.append(np.array([obs[t - 1 - k] if k < t else np.zeros(OBS_DIM) for k in range(w)]).reshape(-1))
            pad.append([k >= t for k in range(w)])
    return np.array(hist), np.array(pad, dtype=bool).reshape(len(pad), w)


def test_dataset_holds_each_observation_once(cfg, expert_episodes, recovery_episodes):
    # Windows are rows of one observation table, not copies of them.
    w = int(cfg.history_window)
    sets = {"expert": expert_episodes[:4], "sliced": [slice_recovery_suffix(e) for e in recovery_episodes[:3]],
            "raw-recovery": recovery_episodes[:3]}
    for name, episodes in sets.items():
        ds = build_frame_dataset(cfg, episodes)
        arrays = [a for a in vars(ds).values() if isinstance(a, np.ndarray)]
        assert not [a.shape for a in arrays if a.ndim == 2 and a.shape[1] == w * OBS_DIM], name
        assert sum(a.nbytes for a in arrays) < 400 * len(ds), name
        assert np.array_equal(ds.obs, np.concatenate([e.frames.obs for e in episodes])), name
        hist, pad = ds.history(np.arange(len(ds)))
        want_hist, want_pad = rule_windows(episodes, w)
        assert np.array_equal(hist, want_hist) and np.array_equal(pad, want_pad), name


@pytest.mark.parametrize("w", [0, 1])
def test_short_history_windows_train_and_deploy(cfg, expert_episodes, recovery_episodes, monkeypatch, w):
    import recoverylab.policy as policy_mod
    from recoverylab import bench

    small = cfg.with_overrides(history_window=w, bc_steps=5)
    expert, sliced = expert_episodes[:3], [slice_recovery_suffix(e) for e in recovery_episodes[:2]]
    sets = [build_frame_dataset(small, episodes) for episodes in (expert, sliced)]
    for ds, episodes in zip(sets, (expert, sliced)):
        idx = np.arange(0, len(ds), 3)
        hist, pad = ds.history(idx)
        want_hist, want_pad = rule_windows(episodes, w)
        assert hist.shape == (len(idx), w * OBS_DIM) and pad.shape == (len(idx), w)
        assert np.array_equal(hist, want_hist[idx]) and np.array_equal(pad, want_pad[idx])
    policy = init_policy(small, seed=0)
    losses = train_bc(policy, *sets, small, seed=0)
    assert len(losses) == 5 and np.isfinite(losses).all()
    widths = set()
    real_trunk = policy_mod._trunk

    def spy(policy, x, obs):
        widths.add(x.shape[1])
        return real_trunk(policy, x, obs)

    monkeypatch.setattr(policy_mod, "_trunk", spy)
    report = bench.run_protocol(small, lambda seed: LearnedActor(policy), "pick-place", None, [300020, 300021],
                                t_max=30)
    assert len(report.trials) == 2
    assert widths == {(w + 1) * OBS_DIM + int(small.instr_embed_dim) + int(small.value_token_dim)}


def test_checkpoint_round_trip(tmp_path, mini_policies):
    _, _, full = mini_policies
    loaded = load_policy(save_policy(full, tmp_path / "policy.json"))
    assert flat_buffer(loaded.params).tolist() == flat_buffer(full.params).tolist()
    assert loaded.params.keys() == full.params.keys()
    assert loaded.obs_mean.tolist() == full.obs_mean.tolist()
    assert loaded.obs_std.tolist() == full.obs_std.tolist()
    assert loaded.history_w == full.history_w and loaded.provenance == full.provenance


def test_load_policy_checks_shapes_against_metadata(tiny_policy, tmp_path):
    committed = Path(__file__).parents[1] / "perfbench" / "checkpoint" / "pp_full.json"
    assert load_policy(committed).history_w == 5
    path = save_policy(tiny_policy, tmp_path / "policy.json")
    good = json.loads(path.read_text())
    tampers = {
        "trunk_w1 row": lambda p: p["params"]["trunk_w1"].pop(),
        "history_w": lambda p: p.update(history_w=p["history_w"] + 1),
        "obs_mean": lambda p: p["obs_mean"].pop(),
        "obs_std": lambda p: p["obs_std"].append(1.0),
        "no obs_std": lambda p: p.pop("obs_std"),
        "no hidden_dim": lambda p: p.pop("hidden_dim"),
        "history_w string": lambda p: p.update(history_w="5"),
        "value_token_dim string": lambda p: p.update(value_token_dim="16"),
        "hidden_dim float": lambda p: p.update(hidden_dim=1.5),
        "obs_dim": lambda p: p.update(obs_dim=10),
        "n_instructions": lambda p: p.update(n_instructions=4),
        "params list": lambda p: p.update(params=[]),
        "string weight": lambda p: p["params"]["val_b"].__setitem__(0, "1"),
        "provenance list": lambda p: p.update(provenance=[]),
        "nan weight": lambda p: p["params"]["trunk_b1"].__setitem__(0, math.nan),
        "infinite weight": lambda p: p["params"]["val_w"][0].__setitem__(0, -math.inf),
        "nan obs_mean": lambda p: p["obs_mean"].__setitem__(2, math.nan),
        "zero obs_std": lambda p: p["obs_std"].__setitem__(0, 0.0),
        "negative obs_std": lambda p: p["obs_std"].__setitem__(5, -0.1),
    }
    for name, tamper in tampers.items():
        payload = copy.deepcopy(good)
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError):
            load_policy(path)


def test_load_policy_rejects_negative_history_window(tiny_policy, tmp_path):
    # Self-consistent: trunk_w1 has the rows a window of -2 would give.
    path = save_policy(tiny_policy, tmp_path / "policy.json")
    payload = json.loads(path.read_text())
    w = payload["history_w"]
    payload["history_w"] = -2
    payload["params"]["trunk_w1"] = payload["params"]["trunk_w1"][(w + 2) * OBS_DIM:]
    path.write_text(json.dumps(payload))
    with pytest.raises(StorageError, match="history_window"):
        load_policy(path)


def test_learned_actor_history_matches_dataset_convention(cfg, mini_policies, expert_episodes, monkeypatch):
    # The trunk input rows the deployed actor forwards are, bit for bit, the
    # rows _forward_batch builds from build_frame_dataset, across the
    # episodes of one actor.
    import recoverylab.policy as policy_mod

    _, _, full = mini_policies
    seen = []
    real_trunk = policy_mod._trunk

    def spy(policy, x, obs):
        seen.append(x.copy())
        return real_trunk(policy, x, obs)

    monkeypatch.setattr(policy_mod, "_trunk", spy)
    actor = LearnedActor(full, v_fixed=1.0)
    episodes = expert_episodes[:2]
    for episode in episodes:
        state = reset(cfg, episode.task_id, episode.env_mode, episode.seed)
        actor.begin(cfg, state)
        for obs in episode.frames.obs:
            actor.act(state, obs)
    monkeypatch.undo()
    ds = build_frame_dataset(cfg, episodes)
    hist, pad = ds.history(np.arange(len(ds)))
    _, (x, *_) = policy_mod._forward_batch(full, hist, ds.obs, ds.instr, np.ones(len(ds)), pad)
    assert np.concatenate(seen).tobytes() == x.tobytes()


def test_learned_batch_gives_each_actor_its_actions_alone(cfg, tiny_policy, expert_episodes):
    # A batch of begun actors gives each actor the actions it gives alone on
    # the same observations, before and after ``keep`` drops rows.
    episodes = expert_episodes[:4]

    def begun():
        actors = [LearnedActor(tiny_policy) for _ in episodes]
        for actor, episode in zip(actors, episodes):
            actor.begin(cfg, reset(cfg, episode.task_id, episode.env_mode, episode.seed))
        return actors

    alone = [[actor.act(None, obs) for obs in episode.frames.obs[:8]] for actor, episode in zip(begun(), episodes)]
    batch, members = LearnedActor.Batch(cfg, begun()), [0, 1, 2, 3]
    acted = [[] for _ in episodes]
    for t in range(8):
        if t in (3, 6):
            kept = [0, 2, 3] if t == 3 else [0, 2]
            batch.keep(kept)
            members = [members[k] for k in kept]
        rows = batch.act(None, np.stack([episodes[k].frames.obs[t] for k in members]))
        for k, row in zip(members, rows.tolist()):
            acted[k].append(row)
    assert [len(rows) for rows in acted] == [8, 3, 6, 8]
    for k, rows in enumerate(acted):
        for row, expected in zip(rows, alone[k]):
            assert row == pytest.approx(expected, rel=1e-9, abs=1e-12), k


def test_ended_trials_free_their_learned_batch_rows(cfg, tiny_policy, monkeypatch):
    # A learned batch holds no actors and no actor holds it, so once the
    # trials' generator is exhausted reference counting alone frees its
    # rows, though the caller still holds the trials: there is no reference
    # cycle to collect.
    rows = []
    real_act = LearnedActor.Batch.act

    def spy(self, states, obs):
        rows.append(weakref.ref(self.rows))
        return real_act(self, states, obs)

    monkeypatch.setattr(LearnedActor.Batch, "act", spy)
    trials = [Trial(LearnedActor(tiny_policy), "pick-place", EnvMode.RANDOM, seed, "eval", {}, t_max)
              for seed, t_max in ((1, 20), (2, 35), (3, 50))]
    gc.disable()
    try:
        episodes = [episode for _, episode in run_episodes(cfg, trials)]
        assert [len(episode.frames) for episode in episodes] == [21, 36, 51]
        assert len(rows) == 51
        assert all(ref() is None for ref in rows)
    finally:
        gc.enable()
