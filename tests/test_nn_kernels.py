"""The conv / pool / ReLU kernels and the contracts they carry.

* the channel-last convolution against the im2col-matmul formula it
  replaced (inlined here as the oracle),
* **batch invariance** — a sample's forward result does not depend on
  which other samples share its batch (``PrefixCache``, ``fetch_stacked``
  and sharded evaluation rest on this),
* dead-tap elimination, the im2col-free 2x2 max-pool, the ``where``-free
  ReLU, and unfold buffers that belong to the geometry — not to a
  layer, and not state,
* columns streamed through the bounded scratch ≡ kept whole, bit for bit,
  and a final evaluation that builds none beyond the scratch,
* the SciPy-free ``_smooth_field`` and a cold start that stays light.
"""

import copy
import hashlib
import itertools
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.synthetic import _smooth_field, make_caltech256_like, make_cifar10_like
from repro.models import build_cnn, build_vgg
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    MaxPool2d,
    ReLU,
    Sequential,
    attack_grad_scope,
    dtype_scope,
)
from repro.nn import conv as conv_module
from repro.nn.blocks import ConvBNReLU, _conv_bn, _conv_bn_backward
from repro.nn.cohort import install_cohort
from repro.nn.functional import channel_last, col2im, im2col
from tests.helpers import empty_workspace, workspace_buffers


# ---------------------------------------------------------------------------
# Oracles: the formulas the kernels replaced
# ---------------------------------------------------------------------------


def _conv_reference(conv, x, g):
    """Forward, weight/bias gradient and input gradient via im2col + matmul."""
    k, s, p = conv.kernel_size, conv.stride, conv.padding
    n, c_out = x.shape[0], conv.out_channels
    cols, oh, ow = im2col(x, k, k, s, p)
    w2d = conv.weight.data.reshape(c_out, -1)
    out = np.matmul(w2d, cols)
    if conv.use_bias:
        out = out + conv.bias.data[None, :, None]
    g2d = g.reshape(n, c_out, -1)
    grad_w = np.tensordot(g2d, cols, axes=([0, 2], [0, 2])).reshape(conv.weight.data.shape)
    grad_x = col2im(np.matmul(w2d.T, g2d), x.shape, k, k, s, p)
    return out.reshape(n, c_out, oh, ow), grad_w, g2d.sum(axis=(0, 2)), grad_x


def _pool_reference(x, g, k=2, s=2, p=0):
    """Max-pool forward/backward through im2col + argmax (first maximum wins)."""
    n, c = x.shape[:2]
    cols, oh, ow = im2col(x, k, k, s, p)
    cols = cols.reshape(n, c, k * k, oh * ow)
    arg = cols.argmax(axis=2)[:, :, None, :]
    out = np.take_along_axis(cols, arg, axis=2).reshape(n, c, oh, ow)
    grad_cols = np.zeros_like(cols)
    np.put_along_axis(grad_cols, arg, g.reshape(n, c, 1, oh * ow), axis=2)
    return out, col2im(grad_cols.reshape(n, c * k * k, oh * ow), x.shape, k, k, s, p)


# ---------------------------------------------------------------------------
# Convolution against the oracle
# ---------------------------------------------------------------------------

MAPS = [(1, 1), (2, 2), (3, 3), (4, 5), (9, 7), (6, 12)]  # the last is "narrow" for k=3, C=3
GEOMETRIES = [
    (k, s, p, hw)
    for k, s, p, hw in itertools.product((1, 3), (1, 2), (0, 1), MAPS)
    if min(hw) + 2 * p >= k
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("c_in", [3, 1])  # 1 -> 5 channels scatters its input gradient (col2im)
@pytest.mark.parametrize("k,s,p,hw", GEOMETRIES)
def test_conv_matches_im2col_reference(k, s, p, hw, c_in, dtype):
    rng = np.random.default_rng(hash((k, s, p, hw)) % 2**32)
    with dtype_scope(dtype):
        conv = Conv2d(c_in, 5, k, stride=s, padding=p, rng=rng)
    conv.bias.data[...] = rng.normal(size=5)
    x = rng.normal(size=(4, c_in) + hw).astype(dtype)
    out = conv.forward(x)
    g = rng.normal(size=out.shape).astype(dtype)
    grad_x = conv.backward(g)
    want_out, want_w, want_b, want_x = _conv_reference(conv, x, g)
    tol = dict(rtol=1e-4, atol=1e-5) if dtype == np.float32 else dict(rtol=1e-10, atol=1e-12)
    assert out.dtype == dtype and grad_x.dtype == dtype
    np.testing.assert_allclose(out, want_out, **tol)
    np.testing.assert_allclose(grad_x, want_x, **tol)
    np.testing.assert_allclose(conv.weight.grad, want_w, **tol)
    np.testing.assert_allclose(conv.bias.grad, want_b, **tol)

    # Under the attack scope: same forward bits, same input gradient, no
    # parameter gradients, no columns kept.
    conv.zero_grad()
    with attack_grad_scope():
        np.testing.assert_array_equal(conv.forward(x), out)
        assert conv._cols is None
        np.testing.assert_array_equal(conv.backward(g), grad_x)
    assert not conv.weight.grad.any() and not conv.bias.grad.any()


@pytest.mark.parametrize("c_in", [2, 8])  # the narrow (im2col) and the channel-last unfold
def test_conv_padding_wider_than_kernel_and_empty_batch(c_in):
    rng = np.random.default_rng(0)
    conv = Conv2d(c_in, 3, 1, padding=1, rng=rng)  # every border window is dead
    x = rng.normal(size=(2, c_in, 3, 3)).astype(np.float32)
    out = conv.forward(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    want_out, _, _, want_x = _conv_reference(conv, x, g)
    np.testing.assert_allclose(out, want_out, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(conv.backward(g), want_x, rtol=1e-5, atol=1e-6)
    empty = conv.forward(x[:0])
    assert conv._narrow(5) == (c_in == 2)
    assert empty.shape == (0, 3, 5, 5)
    assert conv.backward(np.zeros_like(empty)).shape == (0, c_in, 3, 3)


def test_conv_mixed_precision_input_keeps_working():
    """float64 activations through float32 weights (perfbench/micro.py does this)."""
    rng = np.random.default_rng(1)
    conv = Conv2d(3, 4, 3, padding=1, rng=rng)
    x = rng.standard_normal((2, 3, 4, 4))
    out = conv.forward(x)
    assert out.dtype == np.float64
    assert conv.backward(np.ones_like(out)).dtype == np.float64
    out32 = conv.forward(x.astype(np.float32))  # a second workspace, keyed by dtype
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32, out, rtol=1e-4, atol=1e-5)


# ---------------------------------------------------------------------------
# Batch invariance
# ---------------------------------------------------------------------------


def _model_layer_shapes(monkeypatch):
    """(label, conv, input shape) for every conv of the benchmark's models."""
    seen = []
    forward = Conv2d.forward
    monkeypatch.setattr(
        Conv2d, "forward", lambda conv, x: seen.append((conv, x.shape[1:])) or forward(conv, x)
    )
    rng = np.random.default_rng(0)
    cases = []
    for label, build, shape in [
        ("vgg11@8", lambda: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng), (3, 8, 8)),
        ("vgg11@16", lambda: build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25, rng=rng), (3, 16, 16)),
        ("cnn@8", lambda: build_cnn(2, 10, (3, 8, 8), base_channels=8, rng=rng), (3, 8, 8)),
    ]:
        del seen[:]
        build().eval()(np.zeros((1,) + shape, np.float32))  # one sample visits every conv once
        cases += [(label, conv, in_shape) for conv, in_shape in seen]
    monkeypatch.undo()
    return cases


def test_conv_forward_is_batch_invariant_on_every_model_layer_shape(monkeypatch):
    rng = np.random.default_rng(2)
    cases = _model_layer_shapes(monkeypatch)
    assert len(cases) == 8 + 8 + 2
    assert {s[1:] for _, _, s in cases} >= {(1, 1), (2, 2)}  # the shapes a batch-wide GEMM breaks
    for label, conv, shape in cases:
        x = rng.normal(size=(32,) + shape).astype(np.float32)
        with attack_grad_scope():
            full = conv.forward(x).copy()
            for a, b in [(0, 1), (5, 6), (3, 11), (16, 32), (31, 32)]:
                np.testing.assert_array_equal(
                    conv.forward(x[a:b]), full[a:b], err_msg=f"{label} {shape} rows {a}:{b}"
                )
            # and independent of the memory layout the rows arrive in
            np.testing.assert_array_equal(
                conv.forward(channel_last(x).transpose(0, 3, 1, 2)), full
            )


def test_eval_chain_is_batch_invariant():
    rng = np.random.default_rng(3)
    chain = Sequential(
        Conv2d(3, 8, 3, padding=1, bias=False, rng=rng), BatchNorm2d(8), ReLU(), MaxPool2d(2),
        Conv2d(8, 16, 3, padding=1, bias=False, rng=rng), BatchNorm2d(16), ReLU(), MaxPool2d(2),
    )
    for m in chain.modules():
        if isinstance(m, BatchNorm2d):
            m.set_buffer("running_mean", rng.normal(size=m.num_features))
            m.set_buffer("running_var", rng.uniform(0.5, 2.0, size=m.num_features))
    chain.eval()
    x = rng.normal(size=(24, 3, 4, 4)).astype(np.float32)  # ends on a 1x1 map
    with attack_grad_scope():
        full = chain(x).copy()
        for a, b in [(0, 1), (7, 9), (12, 24)]:
            np.testing.assert_array_equal(chain(x[a:b]), full[a:b])
    full_pg = chain(x).copy()  # the x_hat-keeping eval branch
    np.testing.assert_array_equal(chain(x[7:9]), full_pg[7:9])


def test_batchnorm_result_does_not_depend_on_input_layout():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 5, 4, 3)).astype(np.float32)
    g = rng.normal(size=x.shape).astype(np.float32)
    results = []
    for relayout in (np.ascontiguousarray, lambda a: channel_last(a).transpose(0, 3, 1, 2)):
        bn = BatchNorm2d(5)
        bn.train()
        out = bn.forward(relayout(x))
        results.append((out.copy(), bn.backward(relayout(g)).copy(), bn.weight.grad.copy(),
                        bn.running_var.copy()))
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# Dead taps
# ---------------------------------------------------------------------------


def test_dead_taps_get_exactly_zero_weight_gradient():
    rng = np.random.default_rng(5)
    conv = Conv2d(4, 6, 3, padding=1, rng=rng)
    x = rng.normal(size=(8, 4, 1, 1)).astype(np.float32)
    out = conv.forward(x)
    conv.backward(rng.normal(size=out.shape).astype(np.float32))
    live = np.zeros((3, 3), dtype=bool)
    live[1, 1] = True  # on a 1x1 map only the centre tap ever sees data
    assert conv.weight.grad[:, :, live].any()
    assert not conv.weight.grad[:, :, ~live].any()
    (unfold,) = [u for (_, _, backward), u in conv._unfolds.items() if not backward]
    assert unfold.taps == (1, 2, 1, 2)

    # A 2-wide map under stride 2 never reaches the last kernel column.
    conv = Conv2d(2, 3, 3, stride=2, padding=1, rng=rng)
    x = rng.normal(size=(3, 2, 2, 2)).astype(np.float32)
    out = conv.forward(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    conv.backward(g)
    _, want_w, _, _ = _conv_reference(conv, x, g)
    np.testing.assert_allclose(conv.weight.grad, want_w, rtol=1e-5, atol=1e-6)
    assert not conv.weight.grad[:, :, 0, :].any() and not conv.weight.grad[:, :, :, 0].any()


# ---------------------------------------------------------------------------
# Max-pool and ReLU
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(3, 4, 2, 2), (2, 5, 8, 6), (4, 16, 16, 16)])
@pytest.mark.parametrize("layout", ["nchw", "channel_last"])
def test_maxpool_2x2_equals_argmax_path_on_ties(shape, layout):
    rng = np.random.default_rng(6)
    x = np.maximum(rng.normal(size=shape).round(), 0).astype(np.float32)  # post-ReLU: many ties
    assert (x == 0).mean() > 0.4
    if layout == "channel_last":
        x = channel_last(x).transpose(0, 3, 1, 2)
    pool = MaxPool2d(2)
    out = pool.forward(x)
    g = rng.normal(size=out.shape).astype(np.float32)
    want_out, want_grad = _pool_reference(np.ascontiguousarray(x), g)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(pool.backward(g), want_grad)
    assert pool._first is None  # single-shot cache released


@pytest.mark.parametrize("k,s,p,hw", [(2, 2, 0, (5, 4)), (2, 2, 0, (4, 7)), (3, 2, 1, (6, 6)), (2, 1, 0, (4, 4))])
def test_maxpool_other_geometries_fall_back_to_the_generic_path(k, s, p, hw):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3) + hw).astype(np.float32)
    pool = MaxPool2d(k, stride=s, padding=p)
    out = pool.forward(x)
    assert pool._first is None  # not the fast path
    g = rng.normal(size=out.shape).astype(np.float32)
    want_out, want_grad = _pool_reference(x, g, k, s, p)
    np.testing.assert_array_equal(out, want_out)
    np.testing.assert_array_equal(pool.backward(g), want_grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_propagates_nan_and_keeps_dtype(dtype):
    relu = ReLU()
    x = np.array([[-1.0, 0.0, 2.5, np.nan, -np.inf, np.inf]], dtype=dtype)
    out = relu.forward(x)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, np.array([[0.0, 0.0, 2.5, np.nan, 0.0, np.inf]], dtype=dtype))
    grad = relu.backward(np.full_like(x, 3.0))
    assert grad.dtype == dtype
    np.testing.assert_array_equal(grad, np.array([[0, 0, 3, 0, 0, 3]], dtype=dtype))


# ---------------------------------------------------------------------------
# Scratch belongs to the geometry: one buffer per unfold geometry
# ---------------------------------------------------------------------------


def _fwd_bwd(conv, x, g):
    """Output, input gradient and weight gradient of one training step, as copies."""
    conv.zero_grad()
    out = conv.forward(x).copy()
    grad_x = conv.backward(g).copy()
    return out, grad_x, conv.weight.grad.copy()


def _arena_layers(rng):
    """Two 3x3/pad-1 layers of one geometry, a stride-2 layer (its backward
    unfolds a gradient with dilation holes) on the same input, and a layer of
    another geometry; all on the gathered channel-last path."""
    return [
        (Conv2d(8, 16, 3, padding=1, rng=rng), (8, 6, 6)),
        (Conv2d(16, 8, 3, padding=1, rng=rng), (16, 4, 4)),
        (Conv2d(8, 16, 3, stride=2, padding=1, rng=rng), (8, 6, 6)),
        (Conv2d(8, 16, 3, padding=1, rng=rng), (8, 6, 6)),
    ]


def _arena_sequence(layers, rng, fresh):
    """Batch sizes 3 -> 64 -> 28 -> 32 through every layer in turn; ``fresh``
    empties the workspace before every call (the reference)."""
    results = []
    for n in (3, 64, 28, 32):
        for conv, shape in layers:
            x = rng.normal(size=(n,) + shape).astype(np.float32)
            g = rng.normal(size=conv.forward(x).shape).astype(np.float32)
            if fresh:
                empty_workspace()
                conv.zero_grad()
                out = conv.forward(x).copy()
                empty_workspace()
                results.append((out, conv.backward(g).copy(), conv.weight.grad.copy()))
            else:
                results.append(_fwd_bwd(conv, x, g))
    return results


def test_shared_workspace_is_bit_identical_to_fresh_buffers():
    layers = _arena_layers(np.random.default_rng(8))
    want = _arena_sequence(layers, np.random.default_rng(9), fresh=True)
    empty_workspace()
    got = _arena_sequence(layers, np.random.default_rng(9), fresh=False)
    for a, b in zip(got, want):
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
    hole = next(u for (_, _, backward), u in layers[2][0]._unfolds.items() if backward)
    assert hole._key[5] == 2  # the stride-2 gradient lands on every other position

    # One buffer per geometry, sized to its largest fill: the forward keeps
    # whole-batch columns for the weight gradient, the input gradient streams
    # a scratch's worth of samples at a time.  The layers that share a
    # geometry share it, and each direction has its own.
    largest = {
        u._key: _piece_rows(u, 64) if backward else 64
        for conv, _ in layers for (_, _, backward), u in conv._unfolds.items()
    }
    buffers = workspace_buffers()
    assert len(largest) == 6 and {key: len(buf) for key, buf in buffers.items()} == largest


def _piece_rows(unfold, n, itemsize=4):
    """Samples in the largest piece an n-sample, one-client streamed pass fills."""
    size = math.prod(unfold.cols_shape) * itemsize
    return min(n, max(1, conv_module.STREAM_SCRATCH_BYTES // size))


def test_a_larger_batch_frees_the_smaller_buffer():
    rng = np.random.default_rng(10)
    conv = Conv2d(8, 16, 3, padding=1, rng=rng)
    empty_workspace()
    conv.backward(np.ones_like(conv.forward(rng.normal(size=(3, 8, 6, 6)).astype(np.float32))))
    small = {key: weakref.ref(buf) for key, buf in workspace_buffers().items()}
    conv.backward(np.ones_like(conv.forward(rng.normal(size=(64, 8, 6, 6)).astype(np.float32))))
    assert set(workspace_buffers()) == set(small) and len(small) == 2
    assert all(ref() is None for ref in small.values())
    conv.forward(rng.normal(size=(28, 8, 6, 6)).astype(np.float32))  # a smaller one reuses it
    gather = conv._unfolds[((8, 6, 6), np.dtype(np.float32), True)]
    assert 3 < _piece_rows(gather, 64) < 64  # the input gradient streamed 64 rows in pieces
    assert sorted(len(buf) for buf in workspace_buffers().values()) == [_piece_rows(gather, 64), 64]


def test_workspaces_are_lazy_and_not_state():
    rng = np.random.default_rng(8)
    empty_workspace()
    conv = Conv2d(3, 4, 3, padding=1, rng=rng)
    assert "_unfolds" not in conv.__dict__ and not workspace_buffers()  # nothing at construction
    x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
    out = conv.forward(x).copy()
    conv.backward(np.ones_like(out))
    assert {key[2] for key in conv._unfolds} == {False, True}
    assert set(conv.state_dict()) == {"weight", "bias"}
    before = workspace_buffers()

    # Clones drop the layer's caches and unfold into the same buffers.
    for clone in (copy.deepcopy(conv), pickle.loads(pickle.dumps(conv))):
        assert "_unfolds" not in clone.__dict__ and "_cols" not in clone.__dict__
        np.testing.assert_array_equal(clone.forward(x), out)
        clone.backward(np.ones_like(out))
        after = workspace_buffers()
        assert set(after) == set(before) and all(after[k] is before[k] for k in before)
    # a result never aliases the reusable buffer: a second call leaves it intact
    first = conv.forward(x)
    conv.forward(2 * x)
    np.testing.assert_array_equal(first, out)
    assert not any(np.shares_memory(first, buf) for buf in before.values())


# ---------------------------------------------------------------------------
# Streamed columns: a piece of the batch at a time changes no bit
# ---------------------------------------------------------------------------

WHOLE_BATCH = 1 << 40  # a scratch no batch here fills: every pass is one piece


@st.composite
def stream_cases(draw):
    k, s, p = (draw(st.sampled_from(values)) for values in ([1, 3], [1, 2], [0, 1]))
    hw = draw(st.tuples(*[st.integers(max(1, k - 2 * p), 9)] * 2))
    # c_in 1-2 on a wide map is the image layer (im2col forward; col2im input
    # gradient under 9 output channels); 6 -> 4 unfolds and gathers channel-last.
    c_in, c_out = draw(st.sampled_from([(1, 9), (2, 9), (2, 4), (6, 4), (6, 9)]))
    return dict(
        k=k, s=s, p=p, hw=hw, c_in=c_in, c_out=c_out,
        clients=draw(st.sampled_from([1, 3])), batch=draw(st.integers(1, 7)),
        fold=draw(st.booleans()), dtype=draw(st.sampled_from([np.float32, np.float64])),
        rows=draw(st.integers(2, 5)), seed=draw(st.integers(0, 2**16)),
    )


def _stream_layer(case):
    """The case's conv -> BatchNorm pair (BatchNorm ``Identity`` unless it folds),
    with ``clients`` distinct slabs installed when more than one, and its input."""
    rng = np.random.default_rng(case["seed"])
    c_in, c_out, k = case["c_in"], case["c_out"], case["k"]

    def block(seed):
        r = np.random.default_rng(seed)
        layer = ConvBNReLU(c_in, c_out, k, case["s"], case["p"], batch_norm=case["fold"], rng=r)
        if case["fold"]:
            bn = layer.bn
            for name in ("weight", "bias"):
                getattr(bn, name).data[...] = r.normal(size=c_out)
            bn.set_buffer("running_mean", r.normal(size=c_out))
            bn.set_buffer("running_var", r.uniform(0.5, 2.0, size=c_out))
        else:
            layer.conv.bias.data[...] = r.normal(size=c_out)
        return layer

    with dtype_scope(case["dtype"]):
        layer = block(case["seed"])
        if case["clients"] > 1:
            install_cohort(layer, [block(case["seed"] + 1 + i).state_dict()
                                   for i in range(case["clients"])])
    layer.eval()
    n = case["clients"] * case["batch"]
    x = rng.normal(size=(n, c_in) + case["hw"]).astype(case["dtype"])
    return layer, x


def _scope_pass(layer, x, g, scratch):
    """Forward and input gradient under the attack scope with a ``scratch``-byte scratch."""
    with mock.patch.object(conv_module, "STREAM_SCRATCH_BYTES", scratch), attack_grad_scope():
        out = _conv_bn(layer.conv, layer.bn, x).copy()
        assert layer.conv._cols is None
        return out, _conv_bn_backward(layer.conv, layer.bn, g).copy()


@pytest.mark.fusion
@settings(max_examples=60, deadline=None)
@given(stream_cases())
@example(dict(k=3, s=1, p=1, hw=(8, 8), c_in=1, c_out=9, clients=3, batch=5,
              fold=True, dtype=np.float32, rows=2, seed=0))  # image layer, cohort, fold
@example(dict(k=3, s=2, p=1, hw=(5, 6), c_in=6, c_out=4, clients=1, batch=7,
              fold=False, dtype=np.float64, rows=3, seed=1))  # dilated gather, 7 = 3+3+1
def test_streamed_columns_equal_materialised_ones_bit_for_bit(case):
    layer, x = _stream_layer(case)
    conv = layer.conv
    oh, ow = (conv_module.conv_output_size(size, case["k"], case["s"], case["p"])
              for size in case["hw"])
    g = np.random.default_rng(case["seed"] + 99).normal(
        size=(len(x), case["c_out"], oh, ow)).astype(case["dtype"])
    # One piece per pass, then one sample, then ``rows`` samples' worth of
    # the forward's columns (a count the batch need not divide).
    sample = oh * ow * case["c_in"] * case["k"] ** 2 * np.dtype(case["dtype"]).itemsize
    whole = _scope_pass(layer, x, g, WHOLE_BATCH)
    for scratch in (1, case["rows"] * sample):
        for got, want in zip(_scope_pass(layer, x, g, scratch), whole):
            assert got.tobytes() == want.tobytes()
    if not case["fold"]:
        # A forward with parameter gradients keeps its columns, in one piece.
        with mock.patch.object(conv_module, "STREAM_SCRATCH_BYTES", 1):
            out = conv.forward(x)
            (cols, _), grad = conv._cols, conv.backward(g)
        assert cols.shape[:2] == (case["clients"], case["batch"])
        assert out.tobytes() == whole[0].tobytes() and grad.tobytes() == whole[1].tobytes()


@pytest.mark.fusion
def test_a_jfat_dense_final_eval_builds_no_columns_beyond_the_scratch(monkeypatch):
    """After one round at jfat_dense's geometry (VGG11x0.25, 16x16, B=32, two
    clients), a 64-row final evaluation (clean, PGD, AutoAttack), traced with
    the scratch reset: no conv call holds more transient memory than the
    scratch plus its weight-sized fold temporary — where the batch-wide input
    gradient of the 16->32 layer at 8x8 held 4.5 MiB of columns."""
    from repro.baselines import JointFAT
    from repro.flsim import FLConfig
    from repro.flsim import executor as executor_module

    monkeypatch.setattr(executor_module, "spare_cores", lambda: 0)  # every call in this process
    task = make_cifar10_like(image_size=16, train_per_class=120, test_per_class=24, seed=0)
    cfg = FLConfig(num_clients=20, clients_per_round=2, local_iters=5, batch_size=32, lr=0.02,
                   rounds=1, train_pgd_steps=2, eval_pgd_steps=5, eval_every=0, seed=0)
    builder = lambda rng=None: build_vgg("vgg11", 10, (3, 16, 16), width_mult=0.25, rng=rng)
    worst, calls = {}, []

    def traced(method):
        def call(self, *args, **kwargs):
            tracemalloc.reset_peak()
            result = method(self, *args, **kwargs)
            current, peak = tracemalloc.get_traced_memory()
            # What the call allocated and freed again before returning, less
            # the weight-sized fold temporary a scope's first call makes.
            calls.append(peak - current - self.weight.data.nbytes)
            key = (self.in_channels, self.out_channels, method.__name__)
            worst[key] = max(worst.get(key, -np.inf), calls[-1])
            return result
        return call

    with JointFAT(task, builder, cfg) as exp:
        exp.run()
        empty_workspace()
        monkeypatch.setattr(Conv2d, "forward", traced(Conv2d.forward))
        monkeypatch.setattr(Conv2d, "backward", traced(Conv2d.backward))
        tracemalloc.start()
        try:
            exp.final_eval(64)
        finally:
            tracemalloc.stop()
    assert len(calls) > 100 and (16, 32, "backward") in worst
    assert max(calls) <= conv_module.STREAM_SCRATCH_BYTES + (16 << 10), worst
    assert len(vars(conv_module._workspaces)["scratch"]) <= conv_module.STREAM_SCRATCH_BYTES


# ---------------------------------------------------------------------------
# Cold start: no SciPy, and nothing heavy imported on the way in
# ---------------------------------------------------------------------------


def test_smooth_field_is_bit_identical_to_scipy_zoom():
    ndimage = pytest.importorskip("scipy.ndimage")
    for seed, coarse, (h, w) in itertools.product(
        range(6), (2, 3, 4, 7), [(2, 2), (5, 8), (8, 8), (16, 16), (33, 12)]
    ):
        got = _smooth_field((3, h, w), coarse, np.random.default_rng(seed))
        c = max(2, min(coarse, h, w))
        low = np.random.default_rng(seed).normal(size=(3, c, c))
        np.testing.assert_array_equal(got, ndimage.zoom(low, (1, h / c, w / c), order=1))


def test_synthetic_datasets_are_pinned():
    """sha256 of the default tasks, recorded while SciPy still built them."""
    pinned = {
        make_cifar10_like: "7941910c8e1f0660ae2c842161031dde1223000c2c2564f0320daf3276bf8537",
        make_caltech256_like: "9b0aa18c6fdba0d12d86c69564b3333f48cb03a2b13ab35f811ec285f3812565",
    }
    for make, want in pinned.items():
        task = make()
        blob = b"".join(a.tobytes() for a in (task.train.x, task.train.y, task.test.x, task.test.y))
        assert hashlib.sha256(blob).hexdigest() == want, make.__name__


def test_import_does_not_pull_in_scipy_http_server_or_unittest():
    code = (
        "import sys, repro, repro.baselines\n"
        "print([m for m in ('scipy', 'http.server', 'unittest') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout.strip() == "[]", done.stdout
