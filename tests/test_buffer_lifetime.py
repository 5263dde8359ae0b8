"""Nothing outlives its last reader.

Three buffers of the ``nn`` substrate used to live past the last pass that
reads them.  Each lifetime is pinned here:

* **Gradients** exist once a backward (or an optimizer step) writes one.
  A model that only runs forwards and input-grad-only backwards — the
  server model of jFAT, FedRBN and the partial family — holds none, and
  copies and pickles carry none.
* A **frozen scope** keeps each conv's two weight layouts and its folded
  bias, never the BatchNorm-folded ``w·scale`` copy they were built from.
* A **2×2 max-pool** keeps a one-byte first-maximum index between forward
  and backward instead of its input and output, and routes exactly as the
  two-array version (inlined below as the oracle) did.
"""

import copy
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.attacks import ModelWithLoss
from repro.baselines import JointFAT
from repro.data import make_cifar10_like
from repro.flsim import EvalExecutor, EvalTarget, FLConfig
from repro.metrics import EvalPlan
from repro.metrics.evaluation import AttackSpec
from repro.models import build_vgg
from repro.nn import BatchNorm2d, Conv2d, MaxPool2d, Parameter, frozen_cache, no_param_grads
from repro.nn.functional import channel_last
from repro.nn.pooling import _quads
from repro.optim import SGD
from tests.test_frozen_scope import _test_set, _vgg


def _holds_grad(p: Parameter) -> bool:
    """Whether ``p.grad`` has been allocated (read without the allocating fallback)."""
    try:
        object.__getattribute__(p, "grad")
    except AttributeError:
        return False
    return True


def _vgg16x16(rng=None):
    """``jfat_dense``'s model: VGG11×0.25 on 16×16 inputs."""
    rng = np.random.default_rng(0) if rng is None else rng
    return build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25, rng=rng)


def _batch():
    return np.random.default_rng(1).uniform(0, 1, size=(8, 3, 16, 16)).astype(np.float32)


# ---------------------------------------------------------------------------
# Gradients: allocated on first write
# ---------------------------------------------------------------------------


class TestGradientLifecycle:
    def test_a_parameter_holds_no_gradient_until_one_is_read(self):
        p = Parameter(np.ones((3, 2), dtype=np.float32))
        assert not _holds_grad(p)
        p.zero_grad()
        assert not _holds_grad(p)
        grad = p.grad
        assert _holds_grad(p) and p.grad is grad
        assert grad.dtype == p.data.dtype and grad.shape == p.shape and not grad.any()

    def test_forwards_and_frozen_backwards_write_no_gradient(self):
        model = _vgg16x16()
        x = _batch()
        model.forward(x)  # a train-mode forward reads values only
        model.eval()
        with no_param_grads():
            out = model.forward(x)
            model.backward(np.ones_like(out))  # input gradient only
        assert not any(_holds_grad(p) for p in model.parameters())
        model.train()
        out = model.forward(x)
        model.backward(np.ones_like(out))
        assert all(_holds_grad(p) for p in model.parameters())

    def test_zero_grad_on_a_fresh_model_allocates_nothing(self):
        model = _vgg16x16()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        tracemalloc.start()
        try:
            model.zero_grad()
            opt.zero_grad()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held == 0 and peak < 4096  # the parameter list, no array
        assert not any(_holds_grad(p) for p in model.parameters())

    def test_copies_and_pickles_carry_no_gradient(self):
        model = _vgg16x16()
        x = _batch()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        out = model.forward(x)
        model.backward(np.ones_like(out))
        opt.step()
        assert all(_holds_grad(p) for p in model.parameters())
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert not any(_holds_grad(p) for p in clone.parameters())
            for (name, p), q in zip(model.named_parameters(), clone.parameters()):
                assert p.data.tobytes() == q.data.tobytes(), name
            # The clone's first backward adds into fresh zeros: the gradient a
            # zeroed original accumulates from the same pass.
            model.zero_grad()
            for m in (model, clone):
                out = m.forward(x)
                m.backward(np.ones_like(out))
            for (name, p), q in zip(model.named_parameters(), clone.parameters()):
                assert p.grad.tobytes() == q.grad.tobytes(), name

    def test_a_jfat_round_leaves_the_global_model_without_gradients(self):
        task = make_cifar10_like(image_size=16, train_per_class=8, test_per_class=4, seed=0)
        cfg = FLConfig(num_clients=4, clients_per_round=2, local_iters=2, batch_size=32,
                       lr=0.08, rounds=1, train_pgd_steps=1, eval_pgd_steps=2, eval_every=0,
                       seed=0)
        with JointFAT(task, _vgg16x16, cfg) as exp:
            exp.run()
            exp.evaluate(max_samples=16)  # clean + PGD on the global model
            assert not any(_holds_grad(p) for p in exp.global_model.parameters())
            (replica,) = exp._async_models.values()  # the serial round's training slot
            assert all(_holds_grad(p) for p in replica.parameters())


# ---------------------------------------------------------------------------
# The frozen scope: layouts and a folded bias, not the folded weight
# ---------------------------------------------------------------------------


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


class TestScopeCache:
    def test_a_scope_keeps_two_layouts_and_a_folded_bias_per_conv_not_the_folded_weight(self):
        model = _vgg()
        convs = [m for m in model.modules() if isinstance(m, Conv2d)]
        norms = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
        plan = EvalPlan(attacks=(AttackSpec.pgd(8 / 255, 3),), batch_size=16, max_samples=32)
        with no_param_grads():  # the shard's scope nests in this one and shares its cache
            cache = frozen_cache()
            result = EvalExecutor().run(plan, _test_set(32), lambda slot: EvalTarget(ModelWithLoss(model)))
            entries = dict(cache)
        assert result.pgd_acc is not None
        per_conv = 0
        for conv in convs:
            keys = [key for key in entries if key[0] is conv]
            layouts = sorted(key[2] for key in keys if len(key) == 5)  # direction: backward?
            # The image layer (C_out > 4·C) scatters its input gradient through col2im
            # with per-call weights: it keeps no flipped layout.
            assert layouts == ([False] if conv.out_channels > 4 * conv.in_channels else [False, True])
            assert sum(len(key) == 2 for key in keys) == 1  # the folded bias
            per_conv += len(keys)
        assert all(sum(key[0] is norm for key in entries) == 1 for norm in norms)  # its fold
        assert len(entries) == per_conv + len(norms)  # and nothing else
        folded = {conv.weight.stacked().shape for conv in convs}
        assert not any(a.shape in folded for value in entries.values() for a in _arrays(value))


# ---------------------------------------------------------------------------
# The 2x2 max-pool's first-maximum index
# ---------------------------------------------------------------------------


def _parent_route_2x2(x, out, grad_out):
    """The routing that kept ``x`` and ``out`` until backward, inlined as the oracle."""
    grad_in = np.empty_like(x, dtype=grad_out.dtype)
    taken = np.zeros_like(out, dtype=bool)  # in out's memory layout
    for q, dst in zip(_quads(x), _quads(grad_in)):
        hit = np.greater(q == out, taken)  # a maximum, and none before it
        taken |= hit
        np.multiply(grad_out, hit, out=dst)
    return grad_in


def _hostile_input(dtype, seed=3):
    """Post-ReLU-like values with every tie a window can hold."""
    rng = np.random.default_rng(seed)
    # Large enough that the interpreter's own few hundred bytes of bookkeeping
    # stay well under the retained-bytes bound.
    x = np.maximum(rng.normal(size=(4, 6, 32, 32)).round(), 0).astype(dtype)
    w = x.reshape(4, 6, 16, 2, 16, 2).transpose(0, 1, 2, 4, 3, 5)  # (.., window, 2, 2) view
    w[0, :, 0, 0] = 1.5  # all four positions equal
    w[0, :, 0, 1] = [[-0.0, 0.0], [0.0, -0.0]]  # signed-zero ties
    w[0, :, 0, 2] = [[0.0, -0.0], [-1.0, -0.0]]
    w[0, :, 0, 3] = [[-2.0, -1.0], [-1.0, -3.0]]  # a negative maximum, tied
    w[1, :, 1, 1] = [[np.nan, 2.0], [3.0, 1.0]]  # NaN first
    w[1, :, 1, 2] = [[1.0, 2.0], [3.0, np.nan]]  # NaN last: still no maximum
    w[1, :, 1, 3] = np.nan
    w[2, :, 2, 2] = [[np.inf, np.inf], [-np.inf, 0.0]]
    return x


class TestPoolIndex:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["nchw", "channel_last"])
    def test_routing_equals_the_parent_and_keeps_one_byte_per_window(self, dtype, layout):
        x = _hostile_input(dtype)
        if layout == "channel_last":
            x = channel_last(x).transpose(0, 3, 1, 2)
        q = _quads(x)
        want_out = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
        grad_out = np.random.default_rng(4).normal(size=want_out.shape).astype(dtype)
        grad_out[0, 0, 0, :2] = [np.nan, -np.inf]  # non-finite gradients route (or zero) alike
        with np.errstate(invalid="ignore"):  # inf·0 on the positions a window does not route to
            want = _parent_route_2x2(x, want_out, grad_out)
        del q

        pool, nbytes, x_alive = MaxPool2d(2), x.nbytes, weakref.ref(x)
        tracemalloc.start()
        try:
            out = pool.forward(x)
            assert out.tobytes() == want_out.tobytes() and out.strides == want_out.strides
            del out, x
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert x_alive() is None  # the pool keeps no reference to its input
        assert held < nbytes / 8, f"{held} bytes kept between forward and backward"
        assert pool._first.dtype == np.uint8 and pool._first.max() == 4  # NaN windows: no maximum

        with np.errstate(invalid="ignore"):
            got = pool.backward(grad_out)
        assert got.dtype == want.dtype and got.strides == want.strides  # laid out like x
        assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros and NaN included
        assert pool._first is None

    @pytest.mark.parametrize("layout", ["nchw", "channel_last"])
    def test_a_one_pixel_output_still_routes_into_the_input_layout(self, layout):
        # A (N, C, 1, 1) index is the same memory in either layout, so the
        # gradient buffer cannot take its layout from the index.
        x = np.random.default_rng(5).normal(size=(3, 5, 2, 2)).astype(np.float32)
        if layout == "channel_last":
            x = channel_last(x).transpose(0, 3, 1, 2)
        pool = MaxPool2d(2)
        out = pool.forward(x)
        grad_out = np.ones_like(out)
        want = _parent_route_2x2(x, out, grad_out)
        got = pool.backward(grad_out)
        assert got.strides == want.strides == np.empty_like(x).strides
        assert got.tobytes() == want.tobytes()
