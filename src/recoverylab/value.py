"""Progress-aware semantic value model.

Trajectories and instructions are mapped into one shared unit-sphere manifold
by a frozen featurizer pair plus two small trainable adapters.  Adapters are
fit on successful episodes so that the cosine similarity between a trajectory
prefix and its instruction tracks normalized progress t/T.  After training,
full successful trajectories form per-instruction reference clusters, and an
unlabeled failure is scored by its nearest cosine similarity to the cluster
for its own instruction.

The frozen trajectory featurizer pools each prefix as (mean, last, first) of
the per-frame observation vectors and applies a seeded random projection; the
instruction featurizer is a seeded per-id table.  Both stand in for heavier
pretrained encoders and stay fixed while only the adapters train.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Config
from .errors import ConfigError, CoverageError, InputError, StorageError, TrainingError
from .nets import (Adam, Params, flat_params, init_mlp, mlp_backward, mlp_forward, normalize_rows,
                   normalize_rows_backward, zeros_like_params)
from .store import Episode, checkpoint_array, load_checkpoint, save_checkpoint
from .world import OBS_DIM, instruction_ids

POOLED_DIM = 3 * OBS_DIM


@dataclass(frozen=True)
class FrozenFeaturizer:
    """Seeded random projection for trajectories plus a per-id instruction table."""

    projection: np.ndarray        # (POOLED_DIM, F)
    instruction_table: np.ndarray  # (n_instructions, F)
    feature_seed: int
    instruction_seed: int

    @property
    def feature_dim(self) -> int:
        return self.projection.shape[1]


def make_featurizer(cfg: Config) -> FrozenFeaturizer:
    f_dim = int(cfg.feature_dim)
    rng_p = np.random.default_rng([int(cfg.feature_seed), 0xF0])
    projection = rng_p.normal(0.0, 1.0 / np.sqrt(POOLED_DIM), size=(POOLED_DIM, f_dim))
    n_instr = len(instruction_ids(cfg))
    rng_i = np.random.default_rng([int(cfg.instruction_seed), 0x1A])
    table = rng_i.normal(0.0, 1.0, size=(n_instr, f_dim))
    return FrozenFeaturizer(
        projection=projection,
        instruction_table=table,
        feature_seed=int(cfg.feature_seed),
        instruction_seed=int(cfg.instruction_seed),
    )


def trajectory_feature(featurizer: FrozenFeaturizer, obs: np.ndarray) -> np.ndarray:
    """Frozen feature of a non-empty (t, OBS_DIM) observation prefix; pure
    function of the prefix."""
    if len(obs) == 0:
        raise InputError("cannot featurize an empty prefix")
    return np.concatenate([obs.mean(axis=0), obs[-1], obs[0]]) @ featurizer.projection


def instruction_feature(featurizer: FrozenFeaturizer, instruction_id: int) -> np.ndarray:
    if not (0 <= instruction_id < featurizer.instruction_table.shape[0]):
        raise ConfigError(f"unknown instruction_id {instruction_id}")
    return featurizer.instruction_table[instruction_id].copy()


@dataclass
class ProgressModel:
    """Frozen featurizer plus the two trainable adapters into the manifold,
    views into one flat buffer (``nets.flat_params``)."""

    featurizer: FrozenFeaturizer
    params: Params


def init_progress_model(cfg: Config, seed: int = 0) -> ProgressModel:
    featurizer = make_featurizer(cfg)
    rng = np.random.default_rng([int(seed), 0xADA])
    dims = featurizer.feature_dim, int(cfg.value_hidden), int(cfg.embed_dim)
    params = flat_params({**init_mlp(rng, "f", *dims), **init_mlp(rng, "g", *dims)})
    return ProgressModel(featurizer=featurizer, params=params)


def embed(params: Params, raw: np.ndarray, which: str) -> np.ndarray:
    """Adapter forward pass plus L2 normalization; ``which`` is visual|language."""
    prefix = {"visual": "f", "language": "g"}.get(which)
    if prefix is None:
        raise InputError(f"which must be visual or language, got {which!r}")
    single = raw.ndim == 1
    x = raw[None, :] if single else raw
    if x.shape[1] != params[f"{prefix}_w1"].shape[0]:
        raise InputError(f"feature dim {x.shape[1]} does not match adapter input")
    y, _ = mlp_forward(params, prefix, x)
    z, _ = normalize_rows(y)
    return z[0] if single else z


def embed_trajectory(model: ProgressModel, obs: np.ndarray) -> np.ndarray:
    return embed(model.params, trajectory_feature(model.featurizer, obs), "visual")


# ---------------------------------------------------------------------------
# alignment training


def _episode_prefix_features(featurizer: FrozenFeaturizer, episode: Episode) -> np.ndarray:
    """Frozen features of every prefix 0..t, t = 0..T, via cumulative sums."""
    obs = episode.frames.obs
    csum = np.cumsum(obs, axis=0)
    counts = np.arange(1, len(obs) + 1)[:, None]
    pooled = np.concatenate([csum / counts, obs, np.repeat(obs[:1], len(obs), axis=0)], axis=1)
    return pooled @ featurizer.projection


def alignment_loss_and_grads(
    params: Params, x_traj: np.ndarray, x_instr: np.ndarray, targets: np.ndarray, grads: Params | None = None
) -> tuple[float, Params]:
    """Mean squared gap between CosSim(z_traj, z_instr) and the progress target.

    Gradients flow through both adapters and the row normalizations; cosine
    similarity of unit vectors is computed as a plain dot product.  The
    gradients overwrite ``grads`` (laid out like ``params``) if given.
    """
    y_v, cache_v = mlp_forward(params, "f", x_traj)
    y_l, cache_l = mlp_forward(params, "g", x_instr)
    z_v, r_v = normalize_rows(y_v)
    z_l, r_l = normalize_rows(y_l)
    sim = np.sum(z_v * z_l, axis=1)
    err = sim - targets
    loss = float(np.mean(err * err))

    dsim = (2.0 / len(err)) * err
    dz_v = dsim[:, None] * z_l
    dz_l = dsim[:, None] * z_v
    dy_v = normalize_rows_backward(z_v, r_v, dz_v)
    dy_l = normalize_rows_backward(z_l, r_l, dz_l)
    if grads is None:
        grads = zeros_like_params(params)
    mlp_backward(params, "f", cache_v, dy_v, grads)
    mlp_backward(params, "g", cache_l, dy_l, grads)
    return loss, grads


def train_alignment(
    model: ProgressModel,
    success_episodes: list[Episode],
    cfg: Config,
    seed: int = 0,
) -> list[float]:
    """Fit the adapters for ``cfg.align_steps`` steps of sampled-prefix
    gradient descent; returns the loss curve.

    Each batch element picks an episode uniformly and a prefix end t uniformly
    in {1..T}, an unbiased subsample of the per-episode mean over prefixes.
    """
    if not success_episodes:
        raise TrainingError("no successful episodes to align on")
    n_steps = int(cfg.align_steps)
    batch = int(cfg.align_batch)
    # Every episode's prefix features, one block per episode, row t at starts + t.
    feats = [_episode_prefix_features(model.featurizer, ep) for ep in success_episodes]
    starts = np.cumsum([0] + [len(f) for f in feats[:-1]])
    feats = np.concatenate(feats)
    instr_feats = np.stack([instruction_feature(model.featurizer, ep.instruction_id) for ep in success_episodes])
    horizons = np.array([len(ep.frames) - 1 for ep in success_episodes])
    if np.any(horizons < 1):
        raise TrainingError("alignment needs episodes with at least two frames")

    rng = np.random.default_rng([int(seed), 0xA11])
    optimizer = Adam(model.params, lr=float(cfg.align_lr))
    grads = zeros_like_params(model.params)
    losses: list[float] = []
    for _ in range(n_steps):
        ep_idx = rng.integers(0, len(success_episodes), size=batch)
        t = (rng.random(size=batch) * horizons[ep_idx]).astype(int) + 1  # uniform on {1..T}
        x_traj = feats[starts[ep_idx] + t]
        x_instr = instr_feats[ep_idx]
        targets = t / horizons[ep_idx]
        loss, _ = alignment_loss_and_grads(model.params, x_traj, x_instr, targets, grads)
        if not np.isfinite(loss):
            raise TrainingError(f"alignment loss diverged at step {len(losses)}: {loss}")
        optimizer.step(model.params, grads)
        losses.append(loss)
    return losses


def similarity_curve(model: ProgressModel, episode: Episode) -> list[tuple[float, float]]:
    """Diagnostic (t/T, CosSim) pairs over every prefix of an episode."""
    feats = _episode_prefix_features(model.featurizer, episode)
    z_l = embed(model.params, instruction_feature(model.featurizer, episode.instruction_id), "language")
    z_v = embed(model.params, feats, "visual")
    horizon = max(len(episode.frames) - 1, 1)
    sims = z_v @ z_l
    return [(t / horizon, float(sims[t])) for t in range(len(episode.frames))]


# ---------------------------------------------------------------------------
# reference clusters and self-referential estimation


@dataclass
class ReferenceCluster:
    """Per-instruction unit-norm embeddings of completed successful episodes."""

    members: dict[int, np.ndarray] = field(default_factory=dict)  # id -> (n, D)

    def covered(self, instruction_id: int) -> bool:
        return instruction_id in self.members


def build_reference_cluster(model: ProgressModel, success_episodes: list[Episode]) -> ReferenceCluster:
    groups: dict[int, list[np.ndarray]] = {}
    for ep in success_episodes:
        groups.setdefault(ep.instruction_id, []).append(embed_trajectory(model, ep.frames.obs))
    cluster = ReferenceCluster()
    for instr, vecs in groups.items():
        cluster.members[instr] = np.stack(vecs)
    return cluster


def estimate_progress(model: ProgressModel, cluster: ReferenceCluster, episode: Episode) -> float:
    """Nearest cosine similarity between the full-episode embedding and the
    reference cluster for the episode's own instruction; raw value in [-1, 1]
    (clamping to the label range happens at labeling time)."""
    if not cluster.covered(episode.instruction_id):
        raise CoverageError(
            f"no reference embeddings for instruction {episode.instruction_id}"
        )
    z = embed_trajectory(model, episode.frames.obs)
    return float(np.max(cluster.members[episode.instruction_id] @ z))


# ---------------------------------------------------------------------------
# checkpointing


# The Config key each checkpoint metadata entry that sets one sets.
_CONFIG_KEYS = {"feature_seed": "feature_seed", "instruction_seed": "instruction_seed",
                "feature_dim": "feature_dim", "embed_dim": "embed_dim", "hidden_dim": "value_hidden"}


def _dims(model: ProgressModel) -> dict[str, int]:
    """The featurizer's seeds and the dimensions the weight shapes fix."""
    f = model.featurizer
    return {"feature_seed": f.feature_seed, "instruction_seed": f.instruction_seed, "feature_dim": f.feature_dim,
            "embed_dim": model.params["f_w2"].shape[1], "hidden_dim": model.params["f_w1"].shape[1]}


def save_progress_model(model: ProgressModel, path: str | Path, cluster: ReferenceCluster,
                        provenance: dict | None = None) -> Path:
    members = {str(k): v.tolist() for k, v in sorted(cluster.members.items())}
    return save_checkpoint(path, "progress-model", model.params, **_dims(model), cluster=members,
                           provenance=provenance or {})


def load_progress_model(cfg: Config, path: str | Path) -> tuple[ProgressModel, ReferenceCluster]:
    """Load a ``save_progress_model`` checkpoint (see ``store.load_checkpoint``)
    whose reference cluster has at least one instruction, with rows embed_dim
    wide."""
    model, payload = load_checkpoint(path, "progress-model", cfg, _CONFIG_KEYS, init_progress_model, _dims)
    cluster = payload.get("cluster")
    if not isinstance(cluster, dict) or not cluster or not all(k.isdigit() for k in cluster):
        raise StorageError(f"{path}: cluster is not a non-empty object keyed by instruction id")
    width = model.params["f_w2"].shape[1]
    members = {int(k): checkpoint_array(path, f"cluster {k}", v, (None, width)) for k, v in cluster.items()}
    return model, ReferenceCluster(members=members)
