"""Input-grad-only backward: the no_param_grads scope and param_grads flag.

The correctness contract: skipping parameter gradients must not change
the *input* gradient (which is all attacks consume), must leave
``Parameter.grad`` untouched, and must be loud — not silently wrong —
when a caller asks for parameter gradients after an input-grad-only
forward.
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Linear,
    Sequential,
    attack_grad_scope,
    no_param_grads,
    param_grads_enabled,
)


def _grads_all_zero(layer):
    return all(np.all(p.grad == 0) for p in layer.parameters())


PARAM_LAYERS = [
    ("Conv2d", lambda: Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(0)), (2, 2, 5, 5)),
    ("Linear", lambda: Linear(6, 4, rng=np.random.default_rng(0)), (3, 6)),
    ("BatchNorm2d", lambda: BatchNorm2d(3), (4, 3, 4, 4)),
]


@pytest.mark.parametrize("name,factory,shape", PARAM_LAYERS, ids=[c[0] for c in PARAM_LAYERS])
class TestInputGradOnly:
    def test_scope_skips_param_grads_but_matches_input_grad(self, name, factory, shape):
        rng = np.random.default_rng(1)
        x = rng.normal(size=shape).astype(np.float32)
        g = rng.normal(size=factory()(x.copy()).shape).astype(np.float32)

        full = factory()
        full(x)
        ref = full.backward(g)
        assert not _grads_all_zero(full)

        lean = factory()
        with no_param_grads():
            lean(x)
            got = lean.backward(g)
        np.testing.assert_array_equal(got, ref)
        assert _grads_all_zero(lean)

    def test_explicit_param_grads_false_kwarg(self, name, factory, shape):
        """The per-call API: backward(g, param_grads=False) outside any scope."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=shape).astype(np.float32)
        layer = factory()
        out = layer(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        ref_layer = factory()
        ref_layer(x)
        ref = ref_layer.backward(g)
        got = layer.backward(g, param_grads=False)
        np.testing.assert_array_equal(got, ref)
        assert _grads_all_zero(layer)

    def test_param_grads_after_lean_forward_raises(self, name, factory, shape):
        """An input-grad-only forward cannot serve a full backward."""
        if name == "BatchNorm2d":
            layer = factory()
            layer.eval()  # train-mode BN keeps x_hat for the input grad
        else:
            layer = factory()
        x = np.random.default_rng(3).normal(size=shape).astype(np.float32)
        with no_param_grads():
            out = layer(x)
        with pytest.raises(RuntimeError, match="input-grad-only"):
            layer.backward(np.ones_like(out))


def test_scope_nests_and_restores():
    assert param_grads_enabled()
    with no_param_grads():
        assert not param_grads_enabled()
        with no_param_grads():
            assert not param_grads_enabled()
        assert not param_grads_enabled()
    assert param_grads_enabled()


def test_attack_scope_is_the_scope():
    assert attack_grad_scope is no_param_grads


def test_composite_under_scope_matches_full_input_grad():
    rng = np.random.default_rng(4)
    model = Sequential(
        Conv2d(1, 2, 3, padding=1, rng=rng),
        BatchNorm2d(2),
        Conv2d(2, 2, 3, padding=1, rng=rng),
    )
    model.eval()
    x = rng.normal(size=(2, 1, 4, 4)).astype(np.float32)
    out = model(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    ref = model.backward(g)
    model.zero_grad()
    with no_param_grads():
        model(x)
        lean = model.backward(g)
    np.testing.assert_allclose(lean, ref, rtol=1e-6, atol=1e-7)
    assert all(np.all(p.grad == 0) for p in model.parameters())
