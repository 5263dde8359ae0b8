"""The BatchNorm kernel and the spatial means, proven bit-identical to the
reductions and broadcasts they replaced, not assumed to be.

``functional.channel_sum`` sums a ``(K, rows, C)`` stack with einsum, one
pass per channel over its rows; the previous kernel used ``x.sum(axis=1)``,
whose inner loop is only C elements long.  The property below checks the
two agree bit for bit (NaN payloads aside: both put a NaN in the same
places).  The previous ``BatchNorm2d.forward`` / ``backward`` are kept here
verbatim as ``_Reference`` and run beside the current kernel on every
BatchNorm shape the four perfbench workloads call, comparing outputs,
input gradients, parameter gradients and running buffers.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.heads import AuxHead
from repro.nn import BatchNorm2d, DualBatchNorm2d
from repro.nn.cohort import extract_cohort, install_cohort
from repro.nn.dtype import dtype_scope
from repro.nn.functional import channel_last, channel_sum
from repro.nn.grad_mode import no_param_grads, param_grads_enabled
from repro.nn.pooling import GlobalAvgPool2d


def _same_bits(a, b):
    """Equal dtype, shape and bits, except that any NaN matches any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


# ---------------------------------------------------------------------------
# The primitive: einsum's per-channel order is the axis-1 reduce's order
# ---------------------------------------------------------------------------

ELEMENTS = 1 << 21  # memory cap: rows shrink so K·rows·C stays under it


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 8), rows=st.integers(1, 10_000), c=st.integers(1, 256),
    dtype=st.sampled_from([np.float32, np.float64]),
    layout=st.sampled_from(["contiguous", "strided", "transposed"]),
    specials=st.sampled_from([(), (0.0, -0.0), (np.inf, -np.inf), (np.nan,),
                              (0.0, -0.0, np.inf, -np.inf, np.nan)]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=1, rows=10_000, c=2, dtype=np.float32, layout="contiguous", specials=(), seed=0)
@example(k=8, rows=1024, c=256, dtype=np.float64, layout="strided", specials=(), seed=1)
@example(k=3, rows=10_000, c=1, dtype=np.float32, layout="contiguous", specials=(), seed=2)
@example(k=2, rows=5, c=3, dtype=np.float32, layout="contiguous", specials=(-0.0,), seed=3)
def test_channel_sum_is_the_axis1_reduce(k, rows, c, dtype, layout, specials, seed):
    rows = max(1, min(rows, ELEMENTS // (k * c)))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-4, 5)
    if layout == "strided":  # every other channel of a wider stack
        x = (rng.standard_normal((k, rows, 2 * c)) * scale).astype(dtype)[:, :, ::2]
    elif layout == "transposed":  # clients innermost-but-one: not C-contiguous
        x = (rng.standard_normal((rows, k, c)) * scale).astype(dtype).transpose(1, 0, 2)
    else:
        x = (rng.standard_normal((k, rows, c)) * scale).astype(dtype)
    if specials:
        hit = rng.random(x.shape) < 0.05
        x[hit] = rng.choice(np.array(specials, dtype=dtype), size=int(hit.sum()))
        if -0.0 in specials and rng.random() < 0.5:
            x[..., 0] = -0.0  # a whole channel of negative zeros
    with np.errstate(invalid="ignore"):
        got, want = channel_sum(x), x.sum(axis=1)
    _same_bits(got, want)


@pytest.mark.parametrize("shape", [(32, 64, 2, 2), (28, 128, 1, 1), (32, 16, 8, 8),
                                   (8, 1, 4, 4), (3, 2, 16, 16), (6, 8, 3, 3), (5, 3, 7, 5)])
def test_spatial_means_match_the_reduce(shape):
    """GlobalAvgPool2d and AuxHead pool through channel_sum, bit for bit."""
    rng = np.random.default_rng(5)
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=shape).astype(dtype)
        want = channel_last(x).mean(axis=(1, 2))
        _same_bits(GlobalAvgPool2d()(x), want)
        with dtype_scope(dtype):
            head = AuxHead(shape[1:], 10, rng=np.random.default_rng(0))
            seen = []
            head.linear.forward = seen.append  # capture the pooled features
            head(x)
        _same_bits(seen[0], want)


# ---------------------------------------------------------------------------
# The kernel: the previous BatchNorm, verbatim, as the reference
# ---------------------------------------------------------------------------


class _Reference:
    """The previous kernel, verbatim: axis-1 reduces and ``(K, 1, C)`` broadcasts."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(f"BatchNorm2d({self.num_features}) got shape {x.shape}")
        n, c, h, w = x.shape
        weight, bias = self.weight.stacked(), self.bias.stacked()
        xv = channel_last(x).reshape(weight.shape[0], -1, c)
        mean, var = self._running()
        self._batch_stats = self.training
        if self.training:
            batch_mean = xv.mean(axis=1)
            centered = xv - batch_mean[:, None]
            batch_var = np.mean(centered * centered, axis=1)
            m = self.momentum
            self._set_running((1 - m) * mean + m * batch_mean, (1 - m) * var + m * batch_var)
            var = batch_var
        self._inv_std = 1.0 / np.sqrt(var + self.eps)  # (K, C)
        if not (self.training or param_grads_enabled()):
            # Input-grad-only eval forward (attacks on a frozen model, the
            # frozen-prefix cascade): nothing downstream needs x_hat, so
            # fold the affine transform into one scale-and-shift.
            self._x_hat = None
            scale = weight * self._inv_std
            out = xv * scale[:, None]
            out += (bias - mean * scale)[:, None]
        else:
            # x_hat: for the weight gradient and the train-mode input gradient.
            if not self.training:
                centered = xv - mean[:, None]
            centered *= self._inv_std[:, None]
            self._x_hat = centered
            out = centered * weight[:, None]
            out += bias[:, None]
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray, param_grads: bool = True) -> np.ndarray:
        n, c, h, w = grad_out.shape
        weight = self.weight.stacked()
        g = channel_last(grad_out).reshape(weight.shape[0], -1, c)
        x_hat, self._x_hat = self._x_hat, None
        param_grads = param_grads and param_grads_enabled()
        if param_grads and x_hat is None:
            raise RuntimeError(
                "BatchNorm2d.backward needs parameter gradients but the "
                "forward pass ran input-grad-only (no x_hat cache)"
            )
        if param_grads or self._batch_stats:
            sum_g, sum_gx = g.sum(axis=1), (g * x_hat).sum(axis=1)  # (K, C): the bias/weight grads
        if param_grads:
            w_grad, b_grad = self.weight.stacked_grad(), self.bias.stacked_grad()
            w_grad += sum_gx
            b_grad += sum_g
        if not self._batch_stats:
            # Eval mode: statistics are constants.
            out = g * (weight * self._inv_std)[:, None]
        else:
            # weight*inv_std * (g - mean(g) - x_hat * mean(g * x_hat)), over one
            # client's rows; the consumed x_hat is ours to overwrite.
            count = g.shape[1]
            x_hat *= (sum_gx / count)[:, None]
            x_hat += (sum_g / count)[:, None]
            out = g - x_hat
            out *= (weight * self._inv_std)[:, None]
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)


class _ReferenceBN(_Reference, BatchNorm2d):
    pass


class _ReferenceDualBN(_Reference, DualBatchNorm2d):
    pass


# Every BatchNorm input the four workloads feed one client, (B, C, H, W),
# with the cohort width K they run it at; 28 is the tail batch of
# 120-sample shards at B = 32, and swarm_async's cohorts of 4-7 are its
# 32/40/48/56-row stacks.  robust_eval trains prophet_cascade's model.
WORKLOAD_SHAPES = (
    [("jfat_dense", (b, c, s, s), 1) for b in (32, 28)
     for c, s in ((16, 16), (32, 8), (64, 4), (128, 2), (128, 1))]
    + [("prophet_cascade", (b, c, s, s), 1) for b in (32, 28)
       for c, s in ((16, 8), (32, 4), (64, 2), (128, 1))]
    + [("swarm_async", (8, c, s, s), k) for k in (4, 5, 6, 7, 8) for c, s in ((8, 8), (16, 4))]
)
LAYERS = {
    "bn": (BatchNorm2d, _ReferenceBN, None),
    "dual-clean": (DualBatchNorm2d, _ReferenceDualBN, False),
    "dual-adv": (DualBatchNorm2d, _ReferenceDualBN, True),
}


def _run(cls, adversarial, shape, k, train, scoped, dtypes, seed):
    """One forward + backward; every array the layer produced or updated.

    ``dtypes`` is (the layer's dtype, the input's dtype).
    """
    b, c, h, w = shape
    dtype, x_dtype = dtypes
    rng = np.random.default_rng(seed)
    with dtype_scope(dtype):
        layer = cls(c)
        states = []
        for _ in range(k):
            state = {name: rng.normal(size=v.shape).astype(v.dtype)
                     for name, v in layer.state_dict().items()}
            for name in state:
                if name.startswith("running_var"):
                    state[name] = np.abs(state[name]) + 0.5
            states.append(state)
        if k == 1:
            layer.load_state_dict(states[0])
        else:
            install_cohort(layer, states)
        if adversarial is not None:
            layer.set_mode(adversarial)
        layer.train() if train else layer.eval()
        # Channel-last memory behind an NCHW view, as a conv hands it over.
        x = (rng.normal(size=(k * b, h, w, c)) * 2 + 0.5).astype(x_dtype).transpose(0, 3, 1, 2)
        g = rng.normal(size=(k * b, h, w, c)).astype(x_dtype).transpose(0, 3, 1, 2)
        with no_param_grads() if scoped else nullcontext():
            out = layer(x).copy()
            gx = layer.backward(g).copy()
        grads = [p.stacked_grad().copy() for p in (layer.weight, layer.bias)]
        buffers = extract_cohort(layer) if k > 1 else [layer.state_dict()]
    return [out, gx, *grads, *(s[name] for s in buffers for name in sorted(s))]


@pytest.mark.parametrize("layer", sorted(LAYERS))
@pytest.mark.parametrize("workload,shape,native_k", WORKLOAD_SHAPES,
                         ids=[f"{w}-{'x'.join(map(str, s))}-k{k}" for w, s, k in WORKLOAD_SHAPES])
def test_kernel_matches_the_previous_kernel(workload, shape, native_k, layer):
    """Train/eval × inside/outside the scope × K ∈ {1, 3, the workload's} × f32, f64 and
    float32 input into a float64 layer (whose output the parent computed in float64)."""
    cls, ref_cls, adversarial = LAYERS[layer]
    for k in sorted({1, 3, native_k}):
        for train in (True, False):
            for scoped in (False, True):
                for dtypes in ((np.float32,) * 2, (np.float64,) * 2, (np.float64, np.float32)):
                    args = (adversarial, shape, k, train, scoped, dtypes, k * 7 + train)
                    got, want = _run(cls, *args), _run(ref_cls, *args)
                    assert len(got) == len(want)
                    for a, b in zip(got, want):
                        _same_bits(a, b)
