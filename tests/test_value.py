import copy
import json
import math

import numpy as np
import pytest

from recoverylab.errors import ConfigError, CoverageError, InputError, StorageError, TrainingError
from recoverylab.nets import flat_buffer
from recoverylab.value import (
    ReferenceCluster,
    _episode_prefix_features,
    alignment_loss_and_grads,
    build_reference_cluster,
    embed,
    embed_trajectory,
    estimate_progress,
    init_progress_model,
    instruction_feature,
    load_progress_model,
    make_featurizer,
    save_progress_model,
    similarity_curve,
    train_alignment,
    trajectory_feature,
)
from recoverylab.world import OBS_DIM
from tests.gradcheck import finite_difference, relative_error


def spearman(a, b):
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    return float((ra * rb).sum() / np.sqrt((ra * ra).sum() * (rb * rb).sum()))


# ---------------------------------------------------------------------------
# frozen featurizers


def test_trajectory_feature_deterministic(cfg, expert_episodes):
    feat = make_featurizer(cfg)
    prefix = expert_episodes[0].frames.obs[:13]
    assert np.array_equal(trajectory_feature(feat, prefix), trajectory_feature(feat, prefix))


def test_trajectory_feature_degenerate_prefix(cfg, expert_episodes):
    feat = make_featurizer(cfg)
    obs = expert_episodes[0].frames.obs[0]
    single = trajectory_feature(feat, obs[None, :])
    pooled = np.concatenate([obs, obs, obs])  # mean = last = first
    assert np.allclose(single, pooled @ feat.projection)


def test_trajectory_feature_empty_prefix(cfg):
    feat = make_featurizer(cfg)
    with pytest.raises(InputError):
        trajectory_feature(feat, np.zeros((0, OBS_DIM)))


def test_featurizer_seed_sensitivity(cfg, expert_episodes):
    a = make_featurizer(cfg)
    b = make_featurizer(cfg.with_overrides(feature_seed=999))
    prefix = expert_episodes[0].frames.obs[:9]
    assert not np.allclose(trajectory_feature(a, prefix), trajectory_feature(b, prefix))


def test_instruction_table(cfg):
    feat = make_featurizer(cfg)
    assert np.array_equal(instruction_feature(feat, 1), instruction_feature(feat, 1))
    vecs = [instruction_feature(feat, i) for i in range(feat.instruction_table.shape[0])]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert not np.allclose(vecs[i], vecs[j])
    with pytest.raises(ConfigError):
        instruction_feature(feat, 99)


def test_prefix_feature_fast_path_matches_public_op(cfg, expert_episodes):
    feat = make_featurizer(cfg)
    episode = expert_episodes[0]
    fast = _episode_prefix_features(feat, episode)
    for t in (0, 1, 7, len(episode.frames) - 1):
        slow = trajectory_feature(feat, episode.frames.obs[: t + 1])
        assert np.allclose(fast[t], slow, atol=1e-10)


# ---------------------------------------------------------------------------
# adapters


def test_embed_unit_norm(cfg, rng):
    model = init_progress_model(cfg, seed=0)
    raw = rng.normal(size=(17, model.featurizer.feature_dim))
    z = embed(model.params, raw, "visual")
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-6)


def test_embed_zero_weights_constant_map(cfg, rng):
    model = init_progress_model(cfg, seed=0)
    params = model.params
    for key in ("f_w1", "f_w2"):
        params[key][...] = 0.0
    params["f_b1"][...] = 0.0
    b = rng.normal(size=params["f_b2"].shape)
    params["f_b2"][...] = b
    raws = rng.normal(size=(5, model.featurizer.feature_dim))
    z = embed(params, raws, "visual")
    expected = b / np.linalg.norm(b)
    assert np.allclose(z, expected[None, :], atol=1e-12)


def test_embed_dim_mismatch(cfg, rng):
    model = init_progress_model(cfg, seed=0)
    with pytest.raises(InputError):
        embed(model.params, rng.normal(size=(3, 7)), "visual")
    with pytest.raises(InputError):
        embed(model.params, rng.normal(size=model.featurizer.feature_dim), "audio")


def test_cosine_equals_dot_for_unit_vectors(cfg, expert_episodes):
    model = init_progress_model(cfg, seed=1)
    z_v = embed_trajectory(model, expert_episodes[0].frames.obs)
    z_l = embed(model.params, instruction_feature(model.featurizer, 0), "language")
    dot = float(z_v @ z_l)
    cos = float(z_v @ z_l / (np.linalg.norm(z_v) * np.linalg.norm(z_l)))
    assert abs(dot - cos) < 1e-6


def test_alignment_gradient_matches_finite_differences(cfg, expert_episodes, rng):
    model = init_progress_model(cfg, seed=0)
    feats = [_episode_prefix_features(model.featurizer, e) for e in expert_episodes[:3]]
    x_traj = np.stack([feats[i][5 + i] for i in range(3)])
    x_instr = np.stack([instruction_feature(model.featurizer, e.instruction_id) for e in expert_episodes[:3]])
    targets = np.array([0.15, 0.5, 0.95])
    _, grads = alignment_loss_and_grads(model.params, x_traj, x_instr, targets)
    fd = finite_difference(
        lambda p: alignment_loss_and_grads(p, x_traj, x_instr, targets)[0], model.params
    )
    assert relative_error(flat_buffer(grads), fd) < 1e-4


def test_train_zero_steps_is_identity(cfg, expert_episodes):
    model = init_progress_model(cfg, seed=0)
    before = {k: v.copy() for k, v in model.params.items()}
    losses = train_alignment(model, expert_episodes[:5], cfg.with_overrides(align_steps=0), seed=0)
    assert losses == []
    for k in before:
        assert np.array_equal(before[k], model.params[k])


def test_train_reduces_loss(mini_cfg, expert_episodes):
    model = init_progress_model(mini_cfg, seed=0)
    losses = train_alignment(model, expert_episodes[:10], mini_cfg.with_overrides(align_steps=400), seed=2)
    assert np.mean(losses[-20:]) < losses[0]


def test_train_requires_episodes(cfg):
    model = init_progress_model(cfg, seed=0)
    with pytest.raises(TrainingError):
        train_alignment(model, [], cfg)


def test_progress_targets_endpoints(cfg, progress_model, expert_episodes):
    # target at t = T is 1.0, at t = 1 it is 1/T; the trained similarity curve
    # spans the same normalized axis.
    episode = expert_episodes[0]
    curve = similarity_curve(progress_model, episode)
    horizon = len(episode.frames) - 1
    assert curve[-1][0] == pytest.approx(1.0)
    assert curve[1][0] == pytest.approx(1.0 / horizon)


def test_trained_similarity_tracks_progress(progress_model, expert_episodes):
    rhos = []
    for episode in expert_episodes[16:20]:
        curve = similarity_curve(progress_model, episode)[1:]
        rhos.append(spearman(np.array([c[0] for c in curve]), np.array([c[1] for c in curve])))
    assert float(np.mean(rhos)) >= 0.9


# ---------------------------------------------------------------------------
# reference clusters and estimation


def test_cluster_shape_and_norms(progress_model, expert_episodes):
    cluster = build_reference_cluster(progress_model, expert_episodes[:10])
    members = cluster.members[0]
    assert members.shape[0] == 10
    assert np.allclose(np.linalg.norm(members, axis=1), 1.0, atol=1e-6)


def test_estimate_is_self_similar_for_members(progress_model, reference_cluster, expert_episodes):
    v = estimate_progress(progress_model, reference_cluster, expert_episodes[0])
    assert v == pytest.approx(1.0, abs=1e-9)


def test_estimate_matches_bruteforce(progress_model, reference_cluster, failure_episodes):
    episode = failure_episodes[0]
    v = estimate_progress(progress_model, reference_cluster, episode)
    z = embed_trajectory(progress_model, episode.frames.obs)
    brute = max(float(z @ member) for member in reference_cluster.members[episode.instruction_id])
    assert abs(v - brute) < 1e-6
    assert -1.0 <= v <= 1.0


def test_estimate_invariant_to_order_and_duplicates(progress_model, reference_cluster, failure_episodes):
    episode = failure_episodes[0]
    base = estimate_progress(progress_model, reference_cluster, episode)
    members = reference_cluster.members[episode.instruction_id]
    shuffled = ReferenceCluster(members={episode.instruction_id: members[::-1].copy()})
    doubled = ReferenceCluster(members={episode.instruction_id: np.vstack([members, members])})
    assert estimate_progress(progress_model, shuffled, episode) == pytest.approx(base, abs=1e-12)
    assert estimate_progress(progress_model, doubled, episode) == pytest.approx(base, abs=1e-12)


def test_estimate_singleton_cluster(progress_model, reference_cluster, failure_episodes):
    episode = failure_episodes[0]
    members = reference_cluster.members[episode.instruction_id]
    single = ReferenceCluster(members={episode.instruction_id: members[:1].copy()})
    z = embed_trajectory(progress_model, episode.frames.obs)
    assert estimate_progress(progress_model, single, episode) == pytest.approx(float(members[0] @ z))


def test_estimate_uncovered_instruction(progress_model, failure_episodes):
    empty = ReferenceCluster(members={})
    with pytest.raises(CoverageError):
        estimate_progress(progress_model, empty, failure_episodes[0])


def test_checkpoint_round_trip(cfg, tmp_path, progress_model, reference_cluster, failure_episodes):
    path = tmp_path / "value.json"
    save_progress_model(progress_model, path, cluster=reference_cluster)
    loaded, cluster = load_progress_model(cfg, path)
    episode = failure_episodes[0]
    assert estimate_progress(loaded, cluster, episode) == pytest.approx(
        estimate_progress(progress_model, reference_cluster, episode), abs=1e-12
    )


def test_load_progress_model_checks_shapes_against_metadata(cfg, tmp_path, progress_model, reference_cluster):
    path = save_progress_model(progress_model, tmp_path / "value.json", cluster=reference_cluster)
    good = json.loads(path.read_text())
    instr = next(iter(good["cluster"]))
    tampers = {
        "f_w1 row": lambda p: p["params"]["f_w1"].pop(),
        "embed_dim": lambda p: p.update(embed_dim=p["embed_dim"] + 1),
        "cluster width": lambda p: [row.pop() for row in p["cluster"][instr]],
        "no embed_dim": lambda p: p.pop("embed_dim"),
        "embed_dim string": lambda p: p.update(embed_dim="32"),
        "cluster key": lambda p: p["cluster"].update(x=p["cluster"][instr]),
        "no params": lambda p: p.pop("params"),
        "no cluster": lambda p: p.pop("cluster"),
        "null cluster": lambda p: p.update(cluster=None),
        "empty cluster": lambda p: p.update(cluster={}),
        "nan cluster value": lambda p: p["cluster"][instr][0].__setitem__(0, math.nan),
        "infinite weight": lambda p: p["params"]["g_b1"].__setitem__(0, math.inf),
    }
    for name, tamper in tampers.items():
        payload = copy.deepcopy(good)
        tamper(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(StorageError):
            load_progress_model(cfg, path)
