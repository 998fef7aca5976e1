"""Finite-difference checks of analytic gradients."""

import numpy as np

from recoverylab.nets import Params, flat_buffer


def finite_difference(loss_fn, params: Params, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the scalar ``loss_fn(params)`` over the
    flat buffer of ``params``, in buffer order.  Each entry is perturbed in
    place and restored, so ``loss_fn`` may read the parameters from wherever
    the model keeps them."""
    theta = flat_buffer(params)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        saved = theta[i]
        theta[i] = saved + h
        plus = loss_fn(params)
        theta[i] = saved - h
        minus = loss_fn(params)
        theta[i] = saved
        grad[i] = (plus - minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
