"""Value-conditioned policy with explicit-gradient training.

The network maps [flattened observation history | current observation |
instruction embedding | value token] through one tanh hidden layer to an
8-dim bimanual action (absolute targets; grips squashed to [0, 1]).  The
value token is a tiny perceptron of the scalar v, so the same trunk can
express different action modes for the same observation at different
desired-progress levels.

Training treats actions as a Gaussian of fixed scale ``cfg.sigma`` around
the network mean, so the negative log-likelihood is squared error over
2*sigma^2 plus a constant.  Both phases run one training loop over weighted
parts.  Phase one imitates expert data mixed with sliced recovery suffixes
(histories reset at the recovery) at weight lambda, with v pinned to 1.0.
The refinement phase trains on the labeled mixed dataset (histories reach
back into the failure) with per-frame v driving the token.  Deployment pins
v = 1.0 and keeps the training-time window of its last w observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .config import Config
from .errors import InputError, StorageError, TrainingError, ValidationError
from .faults import Actor, ActorBatch
from .nets import (Adam, Params, flat_buffer, flat_params, init_linear, init_mlp, mlp_backward, mlp_forward,
                   zeros_like_params)
from .store import Episode, checkpoint_array, load_checkpoint, save_checkpoint
from .world import (
    ACTION_DIM,
    GRIP_DIMS,
    OBS_DIM,
    PROPRIO_DIM,
    THETA_DIMS,
    get_task,
    instruction_ids,
    wrap_angles,
    wrap_angles_in_place,
)

# Pose dims of the action vector and the proprio dims they anchor to.
POSE_DIMS = (0, 1, 2, 4, 5, 6)


@lru_cache(maxsize=8)
def _action_bounds(x_min: float, y_min: float, x_max: float, y_max: float) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper clip bounds of an action row's values, read-only."""
    lower = np.array([x_min, y_min, -np.inf, 0.0] * 2)
    upper = np.array([x_max, y_max, np.inf, 1.0] * 2)
    lower.flags.writeable = upper.flags.writeable = False
    return lower, upper


def action_from_vector(cfg: Config, vec: np.ndarray) -> np.ndarray:
    """Clamp raw network output into valid action rows: x and y into the
    workspace, grips into [0, 1], thetas wrapped into (-pi, pi].  Takes one
    (8,) vector or an (M, 8) stack and returns a new array of its shape."""
    vec = np.asarray(vec, dtype=float)
    # Checked before the clip, which would turn an infinite x into a bound.
    if vec.shape[-1:] != (ACTION_DIM,) or vec.ndim > 2 or not np.isfinite(vec).all():
        raise InputError(f"an action vector holds {ACTION_DIM} finite values, got {vec!r}")
    lower, upper = _action_bounds(cfg.workspace_x_min, cfg.workspace_y_min, cfg.workspace_x_max, cfg.workspace_y_max)
    clipped = np.clip(vec, lower, upper)
    wrap_angles_in_place(clipped[..., 2::4])  # the THETA_DIMS columns
    return clipped


@dataclass
class Policy:
    """Network parameters plus the history window they read.

    ``params`` are views into one flat buffer (``nets.flat_params``), and
    every other dimension is a weight shape.  Observations are standardized
    with per-dim stats fitted on the first training set; the stats ride along
    in the checkpoint so deployment uses the exact training-time scaling.
    """

    params: Params
    history_w: int
    obs_mean: np.ndarray
    obs_std: np.ndarray
    provenance: dict = field(default_factory=dict)

    def clone(self) -> "Policy":
        return replace(self, params=flat_params(self.params), obs_mean=self.obs_mean.copy(),
                       obs_std=self.obs_std.copy(), provenance=dict(self.provenance))


def fit_normalizer(policy: Policy, dataset: "FrameDataset") -> None:
    """Fit per-dim observation stats once, on the first dataset trained on.

    The std floor is a physical scale (5 cm / 0.05 rad / 0.05 grip), so dims
    that happen to be near-constant in training (an idle arm's grip, say)
    cannot blow small deploy-time deviations into off-manifold input spikes.
    """
    policy.obs_mean = dataset.obs.mean(axis=0)
    policy.obs_std = np.maximum(dataset.obs.std(axis=0), 0.05)
    policy.provenance["normalizer_fitted"] = True


def init_policy(cfg: Config, seed: int = 0) -> Policy:
    rng = np.random.default_rng([int(seed), 0xB0])
    w, vdim, edim = int(cfg.history_window), int(cfg.value_token_dim), int(cfg.instr_embed_dim)
    val_w, val_b = init_linear(rng, 1, vdim)
    params = {"val_w": val_w, "val_b": val_b, "instr": rng.normal(0.0, 0.5, size=(len(instruction_ids(cfg)), edim))}
    params.update(init_mlp(rng, "trunk", (w + 1) * OBS_DIM + edim + vdim, int(cfg.policy_hidden), ACTION_DIM))
    return Policy(params=flat_params(params), history_w=w, obs_mean=np.zeros(OBS_DIM), obs_std=np.ones(OBS_DIM))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _tokens(policy: Policy, instr: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The instruction embedding rows and value token rows of a batch."""
    p = policy.params
    return p["instr"][instr], np.tanh(v[:, None] @ p["val_w"] + p["val_b"])


def _forward_batch(policy: Policy, hist: np.ndarray, obs: np.ndarray, instr: np.ndarray, v: np.ndarray,
                   pad: np.ndarray):
    """Mean actions for a batch; returns (mu, cache) for backprop.  ``hist``
    holds the batch's flattened history windows and ``pad`` marks their
    (B, w) rows that are padding, as ``FrameDataset.history`` gathers them.
    The trunk reads one input row per frame: the normalized history window,
    the normalized observation, the instruction embedding and the value
    token."""
    batch = obs.shape[0]
    mean, std = policy.obs_mean, policy.obs_std
    obs_n = (obs - mean) / std
    # Keep padding rows zero after normalization, so padding stays a
    # neutral input, not a -mean/std outlier.
    hist_n = (hist.reshape(batch, policy.history_w, OBS_DIM) - mean) / std
    hist_n[pad] = 0.0
    hist_n = hist_n.reshape(batch, -1)
    instr_e, e_val = _tokens(policy, instr, v)
    x = np.concatenate([hist_n, obs_n, instr_e, e_val], axis=1)
    mu, trunk_cache = _trunk(policy, x, obs)
    return mu, (x, trunk_cache, e_val, instr, v, mu)


def _trunk(policy: Policy, x: np.ndarray, obs: np.ndarray):
    """The mean action rows of trunk input rows ``x`` (see ``_forward_batch``)
    whose observations are ``obs``, and the trunk's cache."""
    out, trunk_cache = mlp_forward(policy.params, "trunk", x)
    # An action row and an observation's proprio dims are both each arm's
    # (x, y, theta, grip): grips squash, poses anchor at the observed ones
    # (the head predicts pose displacement).
    arms = out.reshape(len(x), 2, 4)
    arms[..., 3] = _sigmoid(arms[..., 3])
    arms[..., :3] += obs[:, :PROPRIO_DIM].reshape(len(x), 2, 4)[..., :3]
    return out, trunk_cache


def loss_and_grads(policy: Policy, cfg: Config, hist: np.ndarray, obs: np.ndarray, instr: np.ndarray, v: np.ndarray,
                   targets: np.ndarray, pad: np.ndarray, grads: Params | None = None) -> tuple[float, Params]:
    """Batch-mean Gaussian negative log-likelihood, the sum of
    (a - mu)^2 / (2 sigma^2) per frame, and its analytic gradients, which
    overwrite ``grads`` (laid out like the parameters) if given."""
    p = policy.params
    mu, cache = _forward_batch(policy, hist, obs, instr, v, pad)
    x, trunk_cache, e_val, instr_idx, v_in, _ = cache
    diff = mu - targets
    batch = mu.shape[0]
    scale = 1.0 / (2.0 * float(cfg.sigma) ** 2)
    loss = float(scale * np.sum(diff * diff) / batch)

    dmu = (2.0 * scale / batch) * diff
    dout = dmu.copy()
    dout[:, GRIP_DIMS] = dmu[:, GRIP_DIMS] * mu[:, GRIP_DIMS] * (1.0 - mu[:, GRIP_DIMS])
    if grads is None:
        grads = zeros_like_params(p)
    dpre = mlp_backward(p, "trunk", trunk_cache, dout, grads)

    # Of x's inputs only the last ones, the instruction embedding and value
    # token, come from parameters: backprop through just their rows of w1.
    first = (policy.history_w + 1) * OBS_DIM
    e = p["instr"].shape[1]
    dx = dpre @ p["trunk_w1"][first:].T
    d_instr, d_eval = dx[:, :e], dx[:, e:]

    grads["instr"].fill(0.0)
    np.add.at(grads["instr"], instr_idx, d_instr)

    dpre_val = d_eval * (1.0 - e_val * e_val)
    np.matmul(v_in[None, :], dpre_val, out=grads["val_w"])
    dpre_val.sum(axis=0, out=grads["val_b"])
    return loss, grads


# ---------------------------------------------------------------------------
# frame datasets


@dataclass
class FrameDataset:
    """Flattened (obs, instruction, action, value) training rows, whose
    history windows index one observation table.

    ``table`` holds each row's observation once, then one zero row.  Row k
    of frame t's history window reads table row ``window[t, k]``: frame
    t-1-k of the same episode, or the zero row before frame 0, so a sliced
    recovery pads from its first frame.  ``history`` gathers a batch's
    windows.  ``sample_pool`` repeats grip-transition-adjacent frame indices
    so batches concentrate on the decision boundary where grasp timing is
    learned.
    """

    table: np.ndarray     # (N + 1, OBS_DIM)
    window: np.ndarray    # (N, W) rows of table
    instr: np.ndarray     # (N,)
    actions: np.ndarray   # (N, ACTION_DIM)
    values: np.ndarray    # (N,)
    seeds: frozenset[int]
    sample_pool: np.ndarray

    @property
    def obs(self) -> np.ndarray:
        """The (N, OBS_DIM) observation rows, a view of ``table``."""
        return self.table[:-1]

    def __len__(self) -> int:
        return len(self.window)

    def history(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (B, W * OBS_DIM) history windows of rows ``idx``, gathered
        into a new array, and their (B, W) padding mask: the rows before
        frame 0, which read the zero row."""
        rows = self.window[idx]
        return self.table[rows].reshape(len(rows), rows.shape[1] * OBS_DIM), rows == len(self.window)


def local_waypoint(cfg: Config, obs_vec: np.ndarray, action_vec: np.ndarray) -> np.ndarray:
    """Replace a far target with the dynamically equivalent one-step waypoint.

    The simulator clamps motion per axis at v_max*dt (omega_max*dt in angle),
    so any target along the clamped direction produces identical motion; the
    nearest such target keeps regression labels within one step of the arm
    and makes the fit scale with the step size instead of the workspace.
    Works on one (obs, action) pair or on matching rows of each.
    """
    dims = list(POSE_DIMS)
    theta = [dims.index(d) for d in THETA_DIMS]
    anchor = obs_vec[..., dims]
    diff = action_vec[..., dims] - anchor
    diff[..., theta] = wrap_angles(diff[..., theta])
    step = np.where(np.isin(dims, THETA_DIMS), cfg.omega_max * cfg.dt, cfg.v_max * cfg.dt)
    wp = action_vec.copy()
    wp[..., dims] = anchor + np.clip(diff, -step, step)
    return wp


def build_frame_dataset(cfg: Config, episodes: list[Episode], require_labels: bool = False) -> FrameDataset:
    """Training rows of every frame of every episode, with ``cfg.history_window``
    rows of history; unlabeled frames get v = 1.0."""
    if not episodes:
        raise TrainingError("cannot build a dataset from zero episodes")
    w = int(cfg.history_window)
    zero_row = sum(len(ep.frames) for ep in episodes)
    windows, obs_rows, instr_rows, act_rows, val_rows, boundary = [], [], [], [], [], []
    row = 0
    for ep in episodes:
        obs, actions, values = ep.frames.obs, ep.frames.actions, ep.frames.v
        unlabeled = np.isnan(values)
        if require_labels and unlabeled.any():
            raise ValidationError(f"{ep.episode_id}: frame {np.argmax(unlabeled)} is unlabeled")
        closed = actions[:, GRIP_DIMS] >= 0.5
        flips = 1 + np.flatnonzero(np.any(closed[1:] != closed[:-1], axis=1))
        near = np.abs(np.arange(len(obs))[:, None] - flips) <= 2
        back = np.arange(len(obs))[:, None] - 1 - np.arange(w)  # row k of frame t is frame t-1-k
        windows.append(np.where(back >= 0, row + back, zero_row))
        obs_rows.append(obs)
        instr_rows.append(np.full(len(obs), ep.instruction_id, dtype=np.int64))
        act_rows.append(local_waypoint(cfg, obs, actions))
        val_rows.append(np.where(unlabeled, 1.0, values))
        boundary.append(row + np.flatnonzero(np.any(near, axis=1)))
        row += len(obs)
    return FrameDataset(
        table=np.concatenate(obs_rows + [np.zeros((1, OBS_DIM))]),
        window=np.concatenate(windows),
        instr=np.concatenate(instr_rows),
        actions=np.concatenate(act_rows),
        values=np.concatenate(val_rows),
        seeds=frozenset(ep.seed for ep in episodes),
        sample_pool=np.concatenate([np.arange(row, dtype=np.int64)] + [np.concatenate(boundary)] * 3),
    )


# Pose-like observation dims: the proprio grips (3, 7) and the object-slot
# presence flags (8, 15) stay exact under input jitter.
_JITTER_MASK = np.ones(OBS_DIM)
_JITTER_MASK[[3, 7, 8, 15]] = 0.0


def _batch(ds: FrameDataset, idx: np.ndarray, pin_value: float | None, rng: np.random.Generator, jitter: float):
    """``loss_and_grads``' batch arguments for the rows ``idx``."""
    v = np.full(len(idx), pin_value) if pin_value is not None else ds.values[idx]
    (hist, pad), obs = ds.history(idx), ds.obs[idx]
    if jitter > 0.0:
        # Jitter pose inputs (not labels): smooths the learned function
        # against the small state deviations closed-loop execution produces.
        # Grip states, presence flags, and padding rows stay exact.
        rows = hist.reshape(len(idx), -1, OBS_DIM)
        rows += rng.normal(0.0, jitter, size=rows.shape) * _JITTER_MASK
        rows[pad] = 0.0
        obs += rng.normal(0.0, jitter, size=obs.shape) * _JITTER_MASK
    return hist, obs, ds.instr[idx], v, ds.actions[idx], pad


# One weighted term of the training loss: its dataset, the RNG that draws its
# batch indices, its weight, and the value input pinned for it (None reads
# the dataset's per-frame labels).
_Part = tuple[FrameDataset, np.random.Generator, float, float | None]


def _train(policy: Policy, cfg: Config, parts: list[_Part], n_steps: int,
           aug_seed: list[int], name: str) -> list[float]:
    """Adam over the weighted sum of the parts' batch losses; returns the
    loss curve.  Each step draws every part's indices and input jitter in
    turn, so each part keeps its own index stream.  The parts' weighted
    gradients add up in part order, in the first part's buffer."""
    batch = int(cfg.policy_batch)
    if not policy.provenance.get("normalizer_fitted"):
        fit_normalizer(policy, parts[0][0])
    jitter = float(cfg.input_noise)
    rng_aug = np.random.default_rng(aug_seed)
    optimizer = Adam(policy.params, lr=float(cfg.policy_lr), total_steps=n_steps)
    grads = [zeros_like_params(policy.params) for _ in parts]
    flats = [flat_buffer(g) for g in grads]
    losses: list[float] = []
    for _ in range(n_steps):
        loss = 0.0
        for (ds, rng, weight, pin_value), part_grads, flat in zip(parts, grads, flats):
            idx = ds.sample_pool[rng.integers(0, len(ds.sample_pool), size=batch)]
            part_loss, _ = loss_and_grads(policy, cfg, *_batch(ds, idx, pin_value, rng_aug, jitter), grads=part_grads)
            loss += weight * part_loss
            if weight != 1.0:
                flat *= weight
        for flat in flats[1:]:
            flats[0] += flat
        if not np.isfinite(loss):
            raise TrainingError(f"{name} loss diverged at step {len(losses)}")
        optimizer.step(policy.params, grads[0])
        losses.append(loss)
    return losses


def train_bc(
    policy: Policy,
    expert: FrameDataset,
    reset_recovery: FrameDataset | None,
    cfg: Config,
    seed: int = 0,
) -> list[float]:
    """Phase-one imitation for ``cfg.bc_steps`` steps: expert data plus
    reset-recovery data at weight ``cfg.lambda_recovery``.

    The value input is pinned to 1.0 for every sample so the later refinement
    phase is a strict fine-tune of the same architecture.  Recovery batches
    normally come from sliced episodes, whose histories pad at the recovery.
    """
    lam = float(cfg.lambda_recovery)
    parts: list[_Part] = [(expert, np.random.default_rng([int(seed), 0xE]), 1.0, 1.0)]
    if reset_recovery is not None and lam > 0.0:
        parts.append((reset_recovery, np.random.default_rng([int(seed), 0xF]), lam, 1.0))
    return _train(policy, cfg, parts, int(cfg.bc_steps), [int(seed), 0xA6], "imitation")


def train_value_conditioned(
    policy: Policy,
    labeled: FrameDataset,
    cfg: Config,
    seed: int = 0,
) -> list[float]:
    """Refinement for ``cfg.refine_steps`` steps on the labeled mixed dataset
    with per-frame value tokens.

    Recovery episodes must be unsliced: recovery frames keep their failure
    prefix in view and the label disambiguates drift from correction.
    """
    if np.any(np.isnan(labeled.values)):
        raise ValidationError("refinement dataset contains unlabeled frames")
    parts: list[_Part] = [(labeled, np.random.default_rng([int(seed), 0xC]), 1.0, None)]
    return _train(policy, cfg, parts, int(cfg.refine_steps), [int(seed), 0xA7], "refinement")


# ---------------------------------------------------------------------------
# rollouts


class LearnedBatch(ActorBatch):
    """Learned actors that share a policy and a ``v_fixed``, acting in one
    forward a tick.  ``rows`` holds one trunk input row per live actor, in
    ``_forward_batch``'s layout: the actor's normalized history window (row
    j is frame t-1-j, zero before frame 0), this tick's normalized
    observation, and its instruction embedding and value token, stacked
    from the actors' ``begin`` rows.  The batch holds no actors, so an
    ended trial's row goes with ``keep``."""

    polled = False

    def __init__(self, cfg, actors):
        self.policy, self.cfg = actors[0].policy, cfg
        self.rows = np.concatenate([actor._begin_row for actor in actors])

    @staticmethod
    def key(actor):
        return id(actor.policy), actor.v_fixed

    def act(self, states, obs):
        """The action rows for rows ``obs``; then each window takes its row."""
        x, policy, d = self.rows, self.policy, OBS_DIM
        w = policy.history_w
        now = x[:, w * d:(w + 1) * d]
        np.subtract(obs, policy.obs_mean, out=now)
        now /= policy.obs_std
        actions = action_from_vector(self.cfg, _trunk(policy, x, obs)[0])
        if w:  # this observation, then all but the oldest row
            x[:, d:w * d] = x[:, :(w - 1) * d]
            x[:, :d] = now
        return actions

    def keep(self, kept):
        self.rows = self.rows[kept]


class LearnedActor(Actor):
    """Wraps a Policy; sees observations only, through the training-time
    history window (``FrameDataset.window``: row k of frame t's window is
    frame t-1-k, zero before frame 0).  Alone it acts through a one-row
    ``Batch`` of its own."""

    Batch = LearnedBatch

    def __init__(self, policy: Policy, v_fixed: float = 1.0):
        if not (0.0 <= v_fixed <= 1.0):
            raise InputError(f"v_fixed must lie in [0, 1], got {v_fixed}")
        self.policy = policy
        self.v_fixed = float(v_fixed)

    def begin(self, cfg, state):
        policy = self.policy
        instr_e, e_val = _tokens(policy, np.array([get_task(cfg, state.task_id).instruction_id]),
                                 np.array([self.v_fixed]))
        history = np.zeros((1, (policy.history_w + 1) * OBS_DIM))
        self._begin_row = np.concatenate([history, instr_e, e_val], axis=1)
        self._alone = self.Batch(cfg, [self])

    def act(self, state, obs):
        return tuple(self._alone.act(None, obs[None])[0].tolist())


# ---------------------------------------------------------------------------
# checkpointing


# The Config key each checkpoint metadata entry that sets one sets.
_CONFIG_KEYS = {"history_w": "history_window", "value_token_dim": "value_token_dim",
                "instr_embed_dim": "instr_embed_dim", "hidden_dim": "policy_hidden"}


def _dims(policy: Policy) -> dict[str, int]:
    """The history window and the dimensions the weight shapes fix."""
    p = policy.params
    return {"history_w": policy.history_w, "obs_dim": OBS_DIM, "n_instructions": p["instr"].shape[0],
            "instr_embed_dim": p["instr"].shape[1], "value_token_dim": p["val_w"].shape[1],
            "hidden_dim": p["trunk_w1"].shape[1]}


def save_policy(policy: Policy, path: str | Path) -> Path:
    return save_checkpoint(path, "policy", policy.params, **_dims(policy), obs_mean=policy.obs_mean.tolist(),
                           obs_std=policy.obs_std.tolist(), provenance=policy.provenance)


def load_policy(path: str | Path) -> Policy:
    """Load a ``save_policy`` checkpoint (see ``store.load_checkpoint``) whose
    normalizer has one entry per observation dim, each std positive.  Keys the
    policy no longer has, such as the ``sigma`` of older files, are ignored."""
    policy, payload = load_checkpoint(path, "policy", Config(), _CONFIG_KEYS, init_policy, _dims)
    policy.obs_mean = checkpoint_array(path, "obs_mean", payload.get("obs_mean"), (OBS_DIM,))
    policy.obs_std = checkpoint_array(path, "obs_std", payload.get("obs_std"), (OBS_DIM,))
    if not (policy.obs_std > 0.0).all():
        raise StorageError(f"{path}: obs_std holds a value that is not positive")
    policy.provenance = payload.get("provenance", {})
    return policy
