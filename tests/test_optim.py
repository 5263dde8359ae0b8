"""Tests for SGD."""

import tracemalloc

import numpy as np
import pytest

from repro.nn import Linear
from repro.nn.module import Parameter
from repro.optim import SGD


def _quadratic_param():
    return Parameter(np.array([4.0, -2.0]))


def test_sgd_plain_step():
    p = _quadratic_param()
    opt = SGD([p], lr=0.1)
    p.grad[...] = np.array([1.0, -1.0])
    opt.step()
    np.testing.assert_allclose(p.data, [3.9, -1.9])


def test_sgd_weight_decay():
    p = Parameter(np.array([2.0]))
    opt = SGD([p], lr=0.1, weight_decay=0.5)
    p.grad[...] = 0.0
    opt.step()
    np.testing.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0])


def test_sgd_momentum_accumulates():
    p = Parameter(np.array([0.0]))
    opt = SGD([p], lr=1.0, momentum=0.9)
    p.grad[...] = 1.0
    opt.step()  # v=1, p=-1
    p.grad[...] = 1.0
    opt.step()  # v=1.9, p=-2.9
    np.testing.assert_allclose(p.data, [-2.9])


def test_sgd_converges_on_quadratic():
    """Minimise f(w) = 0.5 ||w - target||^2."""
    target = np.array([1.0, -3.0, 2.0])
    p = Parameter(np.zeros(3))
    opt = SGD([p], lr=0.1, momentum=0.9)
    for _ in range(500):
        opt.zero_grad()
        p.grad[...] = p.data - target
        opt.step()
    np.testing.assert_allclose(p.data, target, atol=1e-5)


def test_sgd_zero_grad():
    p = _quadratic_param()
    opt = SGD([p], lr=0.1)
    p.grad[...] = 5.0
    opt.zero_grad()
    np.testing.assert_array_equal(p.grad, np.zeros(2))


def test_sgd_state_size():
    layer = Linear(4, 3)
    with_m = SGD(layer.parameters(), lr=0.1, momentum=0.9)
    without_m = SGD(layer.parameters(), lr=0.1, momentum=0.0)
    assert with_m.state_size() == layer.num_parameters()
    assert without_m.state_size() == 0


@pytest.mark.scheduler
def test_plain_sgd_keeps_no_velocity_and_steps_as_before():
    rng = np.random.default_rng(0)
    params = [Parameter(rng.normal(size=(64, 64)).astype(np.float32)) for _ in range(4)]
    for p in params:
        p.grad[...] = rng.normal(size=p.shape)
    start = [(p.data.copy(), p.grad.copy()) for p in params]
    tracemalloc.start()
    try:
        opt = SGD(params, lr=0.1, momentum=0.0, weight_decay=1e-3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1024  # no 16 KiB of zeros per parameter
    opt.step()
    for p, (w, g) in zip(params, start):
        assert p.data.tobytes() == (w - 0.1 * (g + 1e-3 * w)).tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lr": 0.0},
        {"lr": -1.0},
        {"lr": 0.1, "momentum": 1.0},
        {"lr": 0.1, "momentum": -0.1},
        {"lr": 0.1, "weight_decay": -1e-4},
    ],
)
def test_sgd_validates_hyperparameters(kwargs):
    with pytest.raises(ValueError):
        SGD([Parameter(np.zeros(1))], **kwargs)


def test_sgd_empty_params_rejected():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)

