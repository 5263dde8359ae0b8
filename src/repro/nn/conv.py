"""2-D convolution: channel-last unfold, per-sample forward GEMMs."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.nn.dtype import compute_dtype
from repro.nn.functional import channel_last, channel_sum, col2im, conv_output_size, im2col
from repro.nn.grad_mode import param_grads_enabled, scope_cached
from repro.nn.init import PrivateRng, kaiming_normal
from repro.nn.module import Module, Parameter


def _axis(size: int, lo: int, step: int, out: int, k: int, s: int):
    """One spatial axis of an unfold: which taps live, where the data lands.

    Data row ``m`` sits at padded position ``lo + step*m``; window ``a``
    reads positions ``i + s*a`` for kernel offset ``i``.  An offset none of
    whose positions holds data is *dead*; the bounding range ``[i0, i1)`` of
    the live ones is kept and the buffer holds just the ``span`` positions
    they read.  Returns data slice, buffer slice, ``(i0, i1)`` and ``span``.
    """
    data = range(lo, lo + step * size, step)
    live = [i for i in range(k) if any(i + s * a in data for a in range(out))] or [0]
    i0, i1 = live[0], live[-1] + 1
    span, lo = i1 - i0 + s * (out - 1), lo - i0
    m0 = max(0, -(lo // step))
    m1 = max(m0, min(size, (span - 1 - lo) // step + 1))
    start = lo + step * m0
    return slice(m0, m1), slice(start, start + step * (m1 - m0), step), (i0, i1), span


_workspaces = SimpleNamespace()  # .buffers: unfold geometry -> (buffer, {N: views})


class _Unfold:
    """Sliding windows of an NCHW tensor as channel-last ``(N, L, taps·C)`` rows.

    The tensor is written into a zero-bordered ``(N, span_h, span_w, C)``
    buffer (at ``lo``, every ``step``-th row and column) and each live
    kernel *row* of every window — ``taps_w·C`` contiguous elements — is
    copied into freshly allocated columns, so no copy has an inner run
    shorter than ``C``.  The object is geometry only: the buffer is the
    process's one for ``_key`` (all but N), sized to the largest N; every
    caller of a key writes the same positions, so its zeros stay zero.
    """

    def __init__(self, shape, dtype, lo, step, k, stride, out_hw):
        n, c, h, w = shape
        oh, ow = self.out_hw = out_hw
        src_h, dst_h, (i0, i1), span_h = _axis(h, lo, step, oh, k, stride)
        src_w, dst_w, (j0, j1), span_w = _axis(w, lo, step, ow, k, stride)
        self.taps = (i0, i1, j0, j1)
        self._src, self._dst = (slice(None), src_h, src_w), (slice(n), dst_h, dst_w)
        self._key = (h, w, c, dtype, lo, step, k, stride, out_hw)
        self._buf_shape, self._stride = (n, span_h, span_w, c), stride
        self._cols_shape = (n, oh, ow, i1 - i0, (j1 - j0) * c)

    def __call__(self, x: np.ndarray, clients: int) -> np.ndarray:
        """Columns of ``x`` as a ``(K, N/K, L, taps·C)`` stack (K clients share the batch axis)."""
        n, oh, ow, rows, run = self._cols_shape
        buffers = _workspaces.__dict__.setdefault("buffers", {})
        buf, views = buffers.get(self._key, (None, None))
        if buf is None or len(buf) < n:  # a larger N replaces the buffer; its views go with it
            buf, views = buffers[self._key] = np.zeros(self._buf_shape, self._key[3]), {}
        if n not in views:  # one window view per live kernel row
            sn, sh, sw, sc = buf.strides
            win, strides = (n, oh, ow, run), (sn, self._stride * sh, self._stride * sw, sc)
            views[n] = [as_strided(buf[:n, i:], win, strides, writeable=False) for i in range(rows)]
        buf[self._dst] = x.transpose(0, 2, 3, 1)[self._src]
        cols = np.empty(self._cols_shape, dtype=buf.dtype)
        for i, window in enumerate(views[n]):
            cols[:, :, :, i] = window
        return cols.reshape(clients, n // clients, oh * ow, rows * run)


class Conv2d(Module):
    """NCHW convolution with square kernels.

    Internally channel-last.  Forward unfolds the zero-padded input into
    ``(N, L, taps·C)`` columns (:class:`_Unfold`) and multiplies them **per
    sample** by the ``(taps·C, C_out)`` weights — a GEMM whose shape does
    not depend on the batch, which is what makes the layer batch-invariant
    (see docs/architecture.md).  The weight gradient contracts columns and
    output gradient over the whole batch in one GEMM per client.  The input
    gradient *gathers*: the same unfold-and-GEMM applied to the output
    gradient (dilated by the stride) with the flipped kernel, so nothing is
    folded back by strided accumulation.  Kernel taps that only ever see
    padding are skipped.  The image layer — a kernel row shorter than the
    map is wide (:meth:`_narrow`), far fewer input than output channels —
    unfolds with the channel-first ``im2col`` and scatters its input
    gradient with ``col2im`` instead.  Results are NCHW-shaped *views* of
    channel-last memory.

    With a cohort installed (:mod:`repro.nn.cohort`) the same code reads the
    ``(K, ...)`` parameter slabs; the serial layer is the K=1 slab.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else PrivateRng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_normal(shape, fan_in=in_channels * kernel_size**2, rng=rng))
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_channels, dtype=compute_dtype()))

    def __getstate__(self):
        # Geometry and single-shot caches are not state: copies and pickles
        # rebuild them on their first forward.
        return {k: v for k, v in self.__dict__.items() if k not in ("_unfolds", "_cols", "_fold")}

    def _unfold(self, x_shape: tuple, dtype: np.dtype, backward: bool = False) -> _Unfold:
        """The (lazily built) unfold of the input, or of its output gradient."""
        unfolds = self.__dict__.setdefault("_unfolds", {})
        key = (x_shape, dtype, backward)
        unfold = unfolds.get(key)
        if unfold is None:
            n, c, h, w = x_shape
            k, s, p = self.kernel_size, self.stride, self.padding
            out_hw = (conv_output_size(h, k, s, p), conv_output_size(w, k, s, p))
            if backward:  # the output gradient, dilated by the stride, swept at stride 1
                g_shape = (n, self.out_channels) + out_hw
                unfold = _Unfold(g_shape, dtype, k - 1 - p, s, k, 1, (h, w))
            else:
                unfold = _Unfold(x_shape, dtype, p, 1, k, s, out_hw)
            unfolds[key] = unfold
        return unfold

    def _narrow(self, out_w: int) -> bool:
        # A kernel row of k·C elements is shorter than the map is wide (the
        # image layer): im2col unfolds in runs of out_w, in the weight's own
        # (c, row, column) order.
        return self.kernel_size * self.in_channels < out_w

    def _weight(self, fold) -> np.ndarray:
        """``(K, ...)`` weights.  A frozen BatchNorm's ``fold = (bank, scale, shift)``
        (:meth:`BatchNorm2d.fold`) makes ``scale·(w∗x + b) + shift`` one convolution:
        weights ``w·scale`` — a per-call temporary; a scope keeps the layouts built
        from it, not the copy — and bias ``b·scale + shift`` (:meth:`_bias`)."""
        w = self.weight.stacked()
        return w if fold is None else w * fold[1][:, :, None, None, None]

    def _bias(self, fold):
        b = self.bias.stacked() if self.use_bias else None
        if fold is None:
            return b
        bank, scale, shift = fold
        return scope_cached((self, bank), lambda: shift if b is None else b * scale + shift)

    def forward(self, x: np.ndarray, fold=None) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d({self.in_channels}->{self.out_channels}) got input "
                f"shape {x.shape}"
            )
        w, bias = self.weight.stacked(), self._bias(fold)
        kk, n, c_out = w.shape[0], x.shape[0], self.out_channels
        k, s, p = self.kernel_size, self.stride, self.padding
        if self._narrow(conv_output_size(x.shape[3], k, s, p)):
            cols, *out_hw = im2col(x, k, k, s, p)
            cols = cols.reshape(kk, n // kk, cols.shape[1], cols.shape[2]).transpose(0, 1, 3, 2)
            taps, w2d = None, self._weight(fold).reshape(kk, c_out, -1)
        else:
            unfold = self._unfold(x.shape, x.dtype)
            cols, out_hw, taps = unfold(x, kk), unfold.out_hw, unfold.taps
            i0, i1, j0, j1 = taps
            dtype = np.result_type(cols, w)  # a conv and the BatchNorm it folds share a dtype
            # (K, C_out, taps·C) in the columns' (row, column, channel) order;
            # laid out once per input-grad-only scope, where no weight can change.
            key = (self, fold and fold[0], False, taps, dtype)
            w2d = scope_cached(key, lambda: np.ascontiguousarray(
                self._weight(fold)[:, :, :, i0:i1, j0:j1].transpose(0, 1, 3, 4, 2), dtype=dtype
            ).reshape(kk, c_out, -1))
        # The columns are only needed for the weight gradient; under an
        # input-grad-only scope (attacks, frozen-prefix forwards) they are
        # not handed to backward.
        self._cols = (cols, taps) if param_grads_enabled() else None
        self._x_shape, self._fold = x.shape, fold  # backward runs the way forward did
        # (K, B, L, taps·C) @ (K, 1, taps·C, C_out) -> (K, B, L, C_out): one GEMM per sample.
        out = np.matmul(cols, w2d.transpose(0, 2, 1)[:, None])
        if bias is not None:
            out += bias[:, None, None, :]
        return out.reshape(n, *out_hw, c_out).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray, param_grads: bool = True) -> np.ndarray:
        fold, w = self._fold, self.weight.stacked()
        n, c, h, w_in = self._x_shape
        kk, c_out = w.shape[0], self.out_channels
        if param_grads and param_grads_enabled():
            if self._cols is None:
                raise RuntimeError(
                    "Conv2d.backward needs parameter gradients but the "
                    "forward pass ran input-grad-only (no column cache)"
                )
            cols, taps = self._cols
            w_grad = self.weight.stacked_grad()
            g2d = channel_last(grad_out).reshape(kk, -1, c_out)  # (K, B·L, C_out)
            # (K, C_out, taps·C): one GEMM per client over its B·L rows.
            grad_w = np.matmul(g2d.transpose(0, 2, 1), cols.reshape(kk, -1, cols.shape[3]))
            if taps is None:
                w_grad += grad_w.reshape(w.shape)
            else:
                i0, i1, j0, j1 = taps
                w_grad[:, :, :, i0:i1, j0:j1] += grad_w.reshape(
                    kk, c_out, i1 - i0, j1 - j0, c
                ).transpose(0, 1, 4, 2, 3)
            if self.use_bias:
                b_grad = self.bias.stacked_grad()
                b_grad += channel_sum(g2d)
        self._cols = None  # single-shot cache: release once consumed
        if c_out > 4 * c:
            # Few channels under many (the image layer): gathering would move
            # k²·C_out values per pixel where col2im scatters k²·C.
            k, s, p = self.kernel_size, self.stride, self.padding
            g = grad_out.reshape(kk, n // kk, c_out, grad_out.shape[2] * grad_out.shape[3])
            w_cols = self._weight(fold).reshape(kk, 1, c_out, -1).transpose(0, 1, 3, 2)
            grad_cols = np.matmul(w_cols, g)
            return col2im(grad_cols.reshape(n, c * k * k, g.shape[3]), self._x_shape, k, k, s, p)
        unfold = self._unfold(self._x_shape, grad_out.dtype, backward=True)
        i0, i1, j0, j1 = taps = unfold.taps
        dtype = np.result_type(grad_out, w)
        # (K, taps·C_out, C): the kernel flipped, in the columns' order.
        key = (self, fold and fold[0], True, taps, dtype)
        w2d = scope_cached(key, lambda: np.ascontiguousarray(
            self._weight(fold)[:, :, :, ::-1, ::-1][:, :, :, i0:i1, j0:j1].transpose(0, 3, 4, 1, 2),
            dtype=dtype,
        ).reshape(kk, -1, c))
        grad_in = np.matmul(unfold(grad_out, kk), w2d[:, None])  # per sample, as forward
        return grad_in.reshape(n, h, w_in, c).transpose(0, 3, 1, 2)
