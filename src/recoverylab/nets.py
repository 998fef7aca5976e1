"""Tiny numpy neural-net toolkit: 2-layer tanh perceptrons with hand-written
backprop, an Adam optimizer over named parameter dicts, and flat pack/unpack
helpers so analytic gradients can be checked against finite differences."""

from __future__ import annotations

import numpy as np

Params = dict[str, np.ndarray]


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
    """Accumulates parameter gradients into ``grads`` and returns dL/dx."""
    x, h = cache
    grads[f"{prefix}_w2"] = grads.get(f"{prefix}_w2", 0.0) + h.T @ dy
    grads[f"{prefix}_b2"] = grads.get(f"{prefix}_b2", 0.0) + dy.sum(axis=0)
    dh = dy @ params[f"{prefix}_w2"].T
    dpre = dh * (1.0 - h * h)
    grads[f"{prefix}_w1"] = grads.get(f"{prefix}_w1", 0.0) + x.T @ dpre
    grads[f"{prefix}_b1"] = grads.get(f"{prefix}_b1", 0.0) + dpre.sum(axis=0)
    return dpre @ params[f"{prefix}_w1"].T


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
    """Standard Adam over a named parameter dict; updates in place.

    ``total_steps`` enables cosine decay of the learning rate to lr/20, which
    measurably sharpens the small regression fits used here.
    """

    def __init__(self, params: Params, lr: float, total_steps: int | None = None):
        self.lr = lr
        self.t = 0
        self.total_steps = total_steps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def _lr_now(self) -> float:
        if not self.total_steps:
            return self.lr
        frac = min(1.0, self.t / self.total_steps)
        floor = self.lr / 20.0
        return floor + 0.5 * (self.lr - floor) * (1.0 + np.cos(np.pi * frac))

    def step(self, params: Params, grads: Params) -> None:
        self.t += 1
        lr = self._lr_now()
        b1c = 1.0 - BETA1 ** self.t
        b2c = 1.0 - BETA2 ** self.t
        for k in params:
            g = grads[k]
            self.m[k] = BETA1 * self.m[k] + (1.0 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1.0 - BETA2) * (g * g)
            params[k] = params[k] - lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + EPS)


def pack(params: Params) -> np.ndarray:
    """Flatten parameters into one vector (keys in sorted order)."""
    return np.concatenate([params[k].ravel() for k in sorted(params)])


def unpack(vector: np.ndarray, template: Params) -> Params:
    out: Params = {}
    i = 0
    for k in sorted(template):
        n = template[k].size
        out[k] = vector[i:i + n].reshape(template[k].shape).copy()
        i += n
    return out


def finite_difference(loss_fn, params: Params, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar loss over packed parameters."""
    theta = pack(params)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (loss_fn(unpack(plus, params)) - loss_fn(unpack(minus, params))) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
