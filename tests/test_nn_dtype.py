"""Compute-dtype policy: float32 end-to-end, float64 opt-in.

Every exported layer must map float32 inputs to float32 outputs, input
gradients, and parameter gradients under the default policy — a single
float64 leak anywhere silently doubles memory and halves throughput for
everything downstream, which is exactly the failure mode the policy
exists to prevent.
"""

import numpy as np
import pytest

from repro import nn
from repro.attacks import ModelWithLoss, PGDConfig, pgd_attack
from repro.attacks.fgsm import fgsm_attack
from repro.core.aggregator import aggregate_heads
from repro.data.synthetic import make_cifar10_like
from repro.flsim.aggregation import fedavg
from repro.nn import (
    AvgPool2d,
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    ConvBNReLU,
    CrossEntropyLoss,
    DualBatchNorm2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
    compute_dtype,
    dtype_scope,
)
from repro.nn.functional import one_hot

RNG = np.random.default_rng(7)


def _train_bn(n):
    bn = BatchNorm2d(n)
    bn.train()
    return bn


def _eval_bn(n):
    bn = BatchNorm2d(n)
    bn.eval()
    return bn


# (name, layer factory, input shape) — covers every layer exported by
# repro.nn that has a forward/backward pair.
LAYER_CASES = [
    ("Linear", lambda: Linear(6, 4, rng=RNG), (3, 6)),
    ("Linear_nobias", lambda: Linear(6, 4, bias=False, rng=RNG), (3, 6)),
    ("Flatten", Flatten, (3, 2, 2, 2)),
    ("Identity", Identity, (3, 5)),
    ("Conv2d", lambda: Conv2d(3, 4, 3, padding=1, rng=RNG), (2, 3, 6, 6)),
    ("Conv2d_nobias", lambda: Conv2d(3, 4, 3, bias=False, rng=RNG), (2, 3, 6, 6)),
    ("MaxPool2d", lambda: MaxPool2d(2), (2, 3, 4, 4)),
    ("AvgPool2d", lambda: AvgPool2d(2), (2, 3, 4, 4)),
    ("GlobalAvgPool2d", GlobalAvgPool2d, (2, 3, 4, 4)),
    ("BatchNorm2d_train", lambda: _train_bn(3), (4, 3, 4, 4)),
    ("BatchNorm2d_eval", lambda: _eval_bn(3), (4, 3, 4, 4)),
    ("DualBatchNorm2d", lambda: DualBatchNorm2d(3), (4, 3, 4, 4)),
    ("ReLU", ReLU, (3, 5)),
    ("LeakyReLU", lambda: LeakyReLU(0.1), (3, 5)),
    ("Tanh", Tanh, (3, 5)),
    ("ConvBNReLU", lambda: ConvBNReLU(3, 4, rng=RNG), (2, 3, 6, 6)),
    ("BasicBlock", lambda: BasicBlock(3, 3, rng=RNG), (2, 3, 6, 6)),
    ("BasicBlock_down", lambda: BasicBlock(3, 6, stride=2, rng=RNG), (2, 3, 6, 6)),
    (
        "Sequential",
        lambda: Sequential(Conv2d(1, 2, 3, padding=1, rng=RNG), ReLU(), Flatten(), Linear(2 * 16, 3, rng=RNG)),
        (2, 1, 4, 4),
    ),
]


@pytest.mark.parametrize("name,factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_layer_preserves_float32(name, factory, shape):
    layer = factory()
    x = RNG.normal(size=shape).astype(np.float32)
    out = layer(x)
    assert out.dtype == np.float32, f"{name} forward promoted to {out.dtype}"
    grad_in = layer.backward(np.ones_like(out))
    assert grad_in.dtype == np.float32, f"{name} backward promoted to {grad_in.dtype}"
    for pname, p in layer.named_parameters():
        assert p.data.dtype == np.float32, f"{name}.{pname} data is {p.data.dtype}"
        assert p.grad.dtype == np.float32, f"{name}.{pname} grad is {p.grad.dtype}"


@pytest.mark.parametrize("name,factory,shape", LAYER_CASES, ids=[c[0] for c in LAYER_CASES])
def test_layer_respects_float64_scope(name, factory, shape):
    with dtype_scope(np.float64):
        layer = factory()
        x = RNG.normal(size=shape)
        out = layer(x)
        assert out.dtype == np.float64
        grad_in = layer.backward(np.ones_like(out))
        assert grad_in.dtype == np.float64


def test_default_policy_is_float32():
    assert compute_dtype() == np.float32


def test_dtype_scope_restores_on_exit():
    with dtype_scope("float64"):
        assert compute_dtype() == np.float64
    assert compute_dtype() == np.float32


def test_invalid_dtype_rejected():
    with pytest.raises(ValueError):
        nn.set_compute_dtype(np.int32)


def test_one_hot_follows_policy():
    labels = np.array([0, 2, 1])
    assert one_hot(labels, 3).dtype == np.float32
    with dtype_scope(np.float64):
        assert one_hot(labels, 3).dtype == np.float64
    # explicit dtype still wins
    assert one_hot(labels, 3, dtype=np.float64).dtype == np.float64


def test_cross_entropy_grad_keeps_dtype():
    ce = CrossEntropyLoss()
    logits = RNG.normal(size=(4, 3)).astype(np.float32)
    loss = ce(logits, np.array([0, 1, 2, 0]))
    assert isinstance(loss, float)
    assert ce.backward().dtype == np.float32


def test_synthetic_data_follows_policy():
    task = make_cifar10_like(image_size=8, train_per_class=2, test_per_class=1, seed=0)
    assert task.train.x.dtype == np.float32
    assert task.test.x.dtype == np.float32


def test_attacks_preserve_float32():
    model = Sequential(Flatten(), Linear(12, 3, rng=RNG))
    mwl = ModelWithLoss(model)
    x = RNG.uniform(0, 1, size=(4, 3, 2, 2)).astype(np.float32)
    y = np.array([0, 1, 2, 0])
    adv = pgd_attack(mwl, x, y, PGDConfig(eps=0.1, steps=3), rng=np.random.default_rng(0))
    assert adv.dtype == np.float32
    assert fgsm_attack(mwl, x, y, eps=0.1).dtype == np.float32


def test_aggregation_accumulates_in_policy_dtype():
    states = [
        {"w": np.ones(3, dtype=np.float32)},
        {"w": np.full(3, 2.0, dtype=np.float32)},
    ]
    out = fedavg(states, [1, 1])
    assert out["w"].dtype == np.float32
    np.testing.assert_allclose(out["w"], 1.5)
    # float64 inputs are never downcast
    out64 = fedavg([{"w": s["w"].astype(np.float64)} for s in states], [1, 1])
    assert out64["w"].dtype == np.float64


@pytest.mark.scheduler
def test_aggregation_fold_never_downcasts_a_mixed_cohort():
    """The fold's accumulator takes the first state's dtype: a float32 state
    folds into a float64 accumulator exactly, a float64 state would be
    downcast into a float32 one and is refused, naming the key."""
    f32 = {"w": np.full(3, 1.0, dtype=np.float32), "b": np.zeros(1, dtype=np.float32)}
    f64 = {"w": np.full(3, 2.0), "b": np.ones(1)}
    out = fedavg(iter([f64, f32]), [1, 1])
    assert out["w"].dtype == out["b"].dtype == np.float64
    np.testing.assert_array_equal(out["w"], 1.5)
    with pytest.raises(ValueError, match="'w'.*float64.*float32"):
        fedavg(iter([f32, f64]), [1, 1])


def test_head_aggregation_policy_dtype():
    heads = [Linear(4, 2, rng=RNG)]
    states = [heads[0].state_dict(), heads[0].state_dict()]
    aggregate_heads(heads, states, [0, 0], [0.5, 0.5])
    assert heads[0].weight.data.dtype == np.float32
