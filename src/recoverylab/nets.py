"""Tiny numpy neural-net toolkit: 2-layer tanh perceptrons with hand-written
backprop and an Adam optimizer.  A model's parameters are named views into
one flat float64 buffer and its gradients views into another laid out alike,
so one in-place Adam step updates the whole model."""

from __future__ import annotations

import numpy as np

from .errors import TrainingError

Params = dict[str, np.ndarray]


def flat_params(arrays: dict[str, np.ndarray]) -> Params:
    """Copies of ``arrays`` as views into one new flat float64 buffer, in dict order."""
    buffer = np.concatenate([np.ravel(a) for a in arrays.values()], dtype=np.float64)
    views = np.split(buffer, np.cumsum([np.size(a) for a in arrays.values()])[:-1])
    return {name: view.reshape(np.shape(a)) for (name, a), view in zip(arrays.items(), views)}


def zeros_like_params(params: Params) -> Params:
    """Zeroed views into a new flat buffer laid out like ``params``."""
    return flat_params({k: np.zeros(v.shape) for k, v in params.items()})


def flat_buffer(params: Params) -> np.ndarray:
    """The flat buffer every entry of ``params`` views; raises TrainingError if
    an entry was replaced by an array of its own (write into it instead)."""
    buffer = next(iter(params.values())).base
    if buffer is None or any(v.base is not buffer for v in params.values()):
        raise TrainingError(f"parameters {sorted(params)} are not views of one flat buffer")
    return buffer


def init_linear(rng: np.random.Generator, d_in: int, d_out: int) -> tuple[np.ndarray, np.ndarray]:
    w = rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out))
    b = np.zeros(d_out)
    return w, b


def init_mlp(rng: np.random.Generator, prefix: str, d_in: int, d_hidden: int, d_out: int) -> Params:
    """Parameters of a d_in -> tanh(d_hidden) -> d_out perceptron."""
    w1, b1 = init_linear(rng, d_in, d_hidden)
    w2, b2 = init_linear(rng, d_hidden, d_out)
    return {f"{prefix}_w1": w1, f"{prefix}_b1": b1, f"{prefix}_w2": w2, f"{prefix}_b2": b2}


def mlp_forward(params: Params, prefix: str, x: np.ndarray):
    """Returns (y, cache) for a batch x of shape (B, d_in)."""
    h = np.tanh(x @ params[f"{prefix}_w1"] + params[f"{prefix}_b1"])
    y = h @ params[f"{prefix}_w2"] + params[f"{prefix}_b2"]
    return y, (x, h)


def mlp_backward(params: Params, prefix: str, cache, dy: np.ndarray, grads: Params) -> np.ndarray:
    """Writes the parameter gradients into ``grads`` and returns the hidden
    pre-activation's gradient; dL/dx is that times the ``w1`` rows of x, transposed."""
    x, h = cache
    np.matmul(h.T, dy, out=grads[f"{prefix}_w2"])
    dy.sum(axis=0, out=grads[f"{prefix}_b2"])
    dpre = (dy @ params[f"{prefix}_w2"].T) * (1.0 - h * h)
    np.matmul(x.T, dpre, out=grads[f"{prefix}_w1"])
    dpre.sum(axis=0, out=grads[f"{prefix}_b1"])
    return dpre


def normalize_rows(y: np.ndarray, eps: float = 1e-12):
    """Row-wise L2 normalization; returns (z, norms)."""
    r = np.maximum(np.linalg.norm(y, axis=-1, keepdims=True), eps)
    return y / r, r


def normalize_rows_backward(z: np.ndarray, r: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Backprop through z = y / ||y||: dy = (dz - (dz.z) z) / r."""
    inner = np.sum(dz * z, axis=-1, keepdims=True)
    return (dz - inner * z) / r


# Adam's moment decay rates and denominator floor.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Standard Adam over the flat buffer of a ``flat_params`` dict, in place.

    ``total_steps`` enables cosine decay of the learning rate to lr/20, which
    measurably sharpens the small regression fits used here.
    """

    def __init__(self, params: Params, lr: float, total_steps: int | None = None):
        self.lr = lr
        self.t = 0
        self.total_steps = total_steps
        self.theta = flat_buffer(params)
        self._state = np.zeros((4, self.theta.size))  # m, v and two scratch rows

    def _lr_now(self) -> float:
        if not self.total_steps:
            return self.lr
        frac = min(1.0, self.t / self.total_steps)
        floor = self.lr / 20.0
        return floor + 0.5 * (self.lr - floor) * (1.0 + np.cos(np.pi * frac))

    def step(self, params: Params, grads: Params) -> None:
        """Update ``params`` from ``grads``, views of a buffer laid out alike."""
        if flat_buffer(params) is not self.theta:
            raise TrainingError("these parameters are not the buffer this optimizer updates")
        g, (m, v, a, b) = flat_buffer(grads), self._state
        self.t += 1
        lr = self._lr_now()
        # m = B1 m + (1 - B1) g;  v = B2 v + (1 - B2) g^2;
        # theta -= lr (m / (1 - B1^t)) / (sqrt(v / (1 - B2^t)) + EPS): op for op, in place.
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=a)
        v *= BETA2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - BETA2, out=a)
        np.multiply(np.divide(m, 1.0 - BETA1 ** self.t, out=a), lr, out=a)
        np.add(np.sqrt(np.divide(v, 1.0 - BETA2 ** self.t, out=b), out=b), EPS, out=b)
        self.theta -= np.divide(a, b, out=a)
