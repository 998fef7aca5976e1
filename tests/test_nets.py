import numpy as np
import pytest

from recoverylab.errors import TrainingError
from recoverylab.nets import (
    BETA1,
    BETA2,
    EPS,
    Adam,
    flat_buffer,
    flat_params,
    init_mlp,
    mlp_backward,
    mlp_forward,
    normalize_rows,
    normalize_rows_backward,
    zeros_like_params,
)
from tests.gradcheck import finite_difference, relative_error


def test_flat_params_round_trip(rng):
    arrays = init_mlp(rng, "m", 7, 5, 3)
    params = flat_params(arrays)
    assert list(params) == list(arrays)
    for k in arrays:
        assert np.array_equal(params[k], arrays[k]) and not np.shares_memory(params[k], arrays[k])
    buffer = flat_buffer(params)
    assert buffer.size == sum(v.size for v in arrays.values())
    buffer[0] = 7.0
    assert params["m_w1"][0, 0] == 7.0
    zeros = zeros_like_params(params)
    assert all(zeros[k].shape == params[k].shape for k in params) and not flat_buffer(zeros).any()


def test_mlp_backward_matches_fd(rng):
    params = flat_params(init_mlp(rng, "m", 6, 4, 2))
    x = rng.normal(size=(3, 6))
    target = rng.normal(size=(3, 2))

    def loss_of(p):
        y, _ = mlp_forward(p, "m", x)
        return float(np.sum((y - target) ** 2))

    y, cache = mlp_forward(params, "m", x)
    grads = zeros_like_params(params)
    dpre = mlp_backward(params, "m", cache, 2.0 * (y - target), grads)
    fd = finite_difference(loss_of, params, h=1e-5)
    assert relative_error(flat_buffer(grads), fd) < 1e-6

    # The returned pre-activation gradient times w1.T is dL/dx.
    fd_x = np.zeros(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = 1e-5
        plus = float(np.sum((mlp_forward(params, "m", x + step.reshape(x.shape))[0] - target) ** 2))
        minus = float(np.sum((mlp_forward(params, "m", x - step.reshape(x.shape))[0] - target) ** 2))
        fd_x[i] = (plus - minus) / 2e-5
    assert relative_error((dpre @ params["m_w1"].T).ravel(), fd_x) < 1e-6


def test_normalize_rows_backward_matches_fd(rng):
    y = rng.normal(size=(4, 5))
    w = rng.normal(size=5)

    def loss_of(y_flat):
        z, _ = normalize_rows(y_flat.reshape(4, 5))
        return float(np.sum(z @ w))

    z, r = normalize_rows(y)
    dy = normalize_rows_backward(z, r, np.tile(w, (4, 1)))
    fd = np.zeros(y.size)
    flat = y.ravel().copy()
    for i in range(flat.size):
        plus, minus = flat.copy(), flat.copy()
        plus[i] += 1e-6
        minus[i] -= 1e-6
        fd[i] = (loss_of(plus) - loss_of(minus)) / 2e-6
    assert relative_error(dy.ravel(), fd) < 1e-6


def _random_grads(g, params):
    return flat_params({k: g.normal(size=v.shape) for k, v in params.items()})


def test_adam_deterministic(rng):
    runs = []
    for _ in range(2):
        params = flat_params(init_mlp(np.random.default_rng(0), "m", 4, 4, 2))
        opt = Adam(params, lr=1e-2, total_steps=50)
        g = np.random.default_rng(1)
        for _ in range(50):
            opt.step(params, _random_grads(g, params))
        runs.append(flat_buffer(params).copy())
    assert np.array_equal(runs[0], runs[1])


def test_adam_matches_per_array_formula():
    # The in-place buffer update is the textbook expression, bit for bit.
    params = flat_params(init_mlp(np.random.default_rng(0), "m", 5, 6, 3))
    ref = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in ref.items()}
    v2 = {k: np.zeros_like(v) for k, v in ref.items()}
    opt = Adam(params, lr=3e-2, total_steps=40)
    g = np.random.default_rng(2)
    for t in range(1, 41):
        grads = _random_grads(g, params)
        opt.step(params, grads)
        lr, b1c, b2c = opt._lr_now(), 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
        for k, gk in grads.items():
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * gk
            v2[k] = BETA2 * v2[k] + (1.0 - BETA2) * (gk * gk)
            ref[k] = ref[k] - lr * (m[k] / b1c) / (np.sqrt(v2[k] / b2c) + EPS)
    for k in ref:
        assert np.array_equal(params[k], ref[k])


def test_adam_rejects_replaced_entry(rng):
    params = flat_params(init_mlp(rng, "m", 4, 4, 2))
    grads = zeros_like_params(params)
    opt = Adam(params, lr=1e-2)
    params["m_b1"] = np.zeros(4)
    with pytest.raises(TrainingError):
        opt.step(params, grads)
    with pytest.raises(TrainingError):
        Adam(params, lr=1e-2)
    with pytest.raises(TrainingError):
        opt.step(flat_params(params), grads)  # a copy, not the buffer it was built on


def test_adam_lr_decays():
    params = flat_params({"w": np.zeros(3)})
    opt = Adam(params, lr=1e-2, total_steps=100)
    opt.t = 0
    lr0 = opt._lr_now()
    opt.t = 100
    lr_end = opt._lr_now()
    assert lr0 > lr_end >= 1e-2 / 20
