"""2-D convolution: channel-last unfold, per-sample GEMMs over streamed columns."""

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


#: Bytes of columns a streamed conv pass holds at a time.  Every forward
#: under ``no_param_grads`` (attacks, evaluation, frozen prefixes) and every
#: input gradient unfolds and multiplies a piece of the batch at a time in
#: one process-wide scratch of this size (one sample's columns when those are
#: larger), instead of batch-wide columns that live for one GEMM (4.5 MiB for
#: jfat_dense's 16->32 input gradient at 64 rows).  256 KiB is the largest
#: size measured within 0.3 MiB of the lowest peak RSS: 64 KiB holds as much
#: and runs jfat_dense 1.10x slower, 32 KiB 1.23x; 1 MiB holds 0.6 MiB more
#: (``scripts/conv_scratch_sweep.py``, docs/benchmarks.md § PR 46).
STREAM_SCRATCH_BYTES = 256 << 10

_workspaces = SimpleNamespace()  # .buffers: unfold geometry -> (buffer, {rows: view}); .scratch


def _pieces(kk: int, b: int, size: int, dtype, keep: bool = False):
    """Client-aligned pieces of a ``(K, B)`` batch and flat columns for each.

    Yields ``(clients, samples, cols)``: two slices into the ``(K, B)`` axes —
    whole clients when one fits, else a run of one client's samples — and a
    flat array of ``size`` elements per sample they hold.  ``keep`` makes the
    batch one piece in a fresh array (the columns the weight gradient reads);
    otherwise every piece reuses the scratch (:data:`STREAM_SCRATCH_BYTES`).
    Each sample's GEMM sees the same operands either way, so the pieces
    change no bit.
    """
    if keep:
        yield slice(None), slice(None), np.empty(kk * b * size, dtype)  # kept columns
        return
    if not b:
        return
    sample = size * np.dtype(dtype).itemsize
    rows = max(1, STREAM_SCRATCH_BYTES // sample)
    need = min(rows, kk * b) * sample
    scratch = getattr(_workspaces, "scratch", None)
    if scratch is None or len(scratch) < need:
        scratch = _workspaces.scratch = np.empty(need, np.uint8)  # conv scratch
    per, run = (rows // b, b) if rows >= b else (1, rows)  # clients, samples a piece
    for k in range(0, kk, per):
        for lo in range(0, b, run):
            m = (min(kk, k + per) - k) * (min(b, lo + run) - lo)
            yield slice(k, k + per), slice(lo, lo + run), scratch[: m * sample].view(dtype)


def _stream(x: np.ndarray, kk: int, unfold, w: np.ndarray, cols_shape, keep: bool = False):
    """``unfold(x) @ w`` one GEMM per sample, a piece of the batch at a time.

    ``unfold(samples, cols)`` writes the ``cols_shape = (L, D)`` columns of
    each sample into flat ``cols`` and returns them as ``(m, L, D)``; ``w``
    is ``(K, D, C_out)``.  Returns the ``(K, B, L, C_out)`` product and, with
    ``keep``, the ``(K, B, L, D)`` columns (:func:`_pieces`).
    """
    n, (l, d) = len(x), cols_shape
    b = n // kk
    xs = x.reshape(kk, b, *x.shape[1:])
    out = np.empty((kk, b, l, w.shape[2]), np.result_type(x, w))
    for clients, samples, flat in _pieces(kk, b, l * d, x.dtype, keep):
        part = xs[clients, samples]
        cols = unfold(part.reshape(-1, *x.shape[1:]), flat).reshape(part.shape[:2] + (l, d))
        # (k, m, L, D) @ (k, 1, D, C_out) -> (k, m, L, C_out): one GEMM per sample.
        np.matmul(cols, w[clients, None], out=out[clients, samples])
    return out, cols if keep else None


class _Unfold:
    """Sliding windows of an NCHW tensor as channel-last ``(N, L, taps·C)`` rows.

    The tensor is written into a zero-bordered ``(N, span_h, span_w, C)``
    buffer (at ``lo``, every ``step``-th row and column) and each live
    kernel *row* of every window — ``taps_w·C`` contiguous elements — is
    copied into the columns, so no copy has an inner run shorter than
    ``C``.  The object is geometry only: the buffer is the process's one for
    ``_key``, sized to the most samples one fill has written; every caller of
    a key writes the same positions, so its zeros stay zero.
    """

    def __init__(self, shape, dtype, lo, step, k, stride, out_hw):
        c, h, w = shape
        oh, ow = out_hw
        src_h, dst_h, (i0, i1), span_h = _axis(h, lo, step, oh, k, stride)
        src_w, dst_w, (j0, j1), span_w = _axis(w, lo, step, ow, k, stride)
        self.taps = (i0, i1, j0, j1)
        self._src, self._dst = (slice(None), src_h, src_w), (slice(None), dst_h, dst_w)
        self._key = (h, w, c, dtype, lo, step, k, stride, out_hw)
        self._buf_shape, self._stride = (span_h, span_w, c), stride
        self._rows = (oh, ow, i1 - i0, (j1 - j0) * c)
        self.cols_shape = (oh * ow, (i1 - i0) * (j1 - j0) * c)

    def fill(self, x: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``x``'s ``m`` samples' columns, written into flat ``cols``, as ``(m, L, taps·C)``."""
        m, (oh, ow, rows, run) = len(x), self._rows
        buffers = _workspaces.__dict__.setdefault("buffers", {})
        buf, views = buffers.get(self._key, (None, None))
        if buf is None or len(buf) < m:  # a larger fill replaces the buffer; its views go with it
            buf, views = buffers[self._key] = np.zeros((m, *self._buf_shape), self._key[3]), {}
        if m not in views:  # every window's live kernel rows, one run of taps_w·C each
            sn, sh, sw, sc = buf.strides
            views[m] = as_strided(buf, (m, oh, ow, rows, run),
                                  (sn, self._stride * sh, self._stride * sw, sh, sc), writeable=False)
        buf[:m][self._dst] = x.transpose(0, 2, 3, 1)[self._src]
        cols = cols.reshape(m, oh, ow, rows, run)
        cols[...] = views[m]
        return cols.reshape(m, *self.cols_shape)


class Conv2d(Module):
    """NCHW convolution with square kernels.

    Internally channel-last.  Forward unfolds the zero-padded input into
    ``(N, L, taps·C)`` columns (:class:`_Unfold`) and multiplies them **per
    sample** by the ``(taps·C, C_out)`` weights — a GEMM whose shape does
    not depend on the batch, which is what makes the layer batch-invariant
    (see docs/architecture.md).  The weight gradient contracts columns and
    output gradient over the whole batch in one GEMM per client, so only a
    forward with parameter gradients keeps batch-wide columns; every other
    pass streams them a piece at a time (:func:`_stream`).  The input
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
        key = (x_shape[1:], dtype, backward)
        unfold = unfolds.get(key)
        if unfold is None:
            c, h, w = x_shape[1:]
            k, s, p = self.kernel_size, self.stride, self.padding
            out_hw = (conv_output_size(h, k, s, p), conv_output_size(w, k, s, p))
            if backward:  # the output gradient, dilated by the stride, swept at stride 1
                unfold = _Unfold((self.out_channels,) + out_hw, dtype, k - 1 - p, s, k, 1, (h, w))
            else:
                unfold = _Unfold((c, h, w), dtype, p, 1, k, s, out_hw)
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
        out_hw = tuple(conv_output_size(size, k, s, p) for size in x.shape[2:])
        if self._narrow(out_hw[1]):
            taps, w2d = None, self._weight(fold).reshape(kk, c_out, -1)
            cols_shape = (out_hw[0] * out_hw[1], w2d.shape[2])

            def unfold(xs, cols):  # (m, L, C·k·k): im2col's columns, transposed
                return im2col(xs, k, k, s, p, out=cols)[0].transpose(0, 2, 1)
        else:
            geometry = self._unfold(x.shape, x.dtype)
            unfold, cols_shape, taps = geometry.fill, geometry.cols_shape, geometry.taps
            i0, i1, j0, j1 = taps
            dtype = np.result_type(x, w)  # a conv and the BatchNorm it folds share a dtype
            # (K, C_out, taps·C) in the columns' (row, column, channel) order;
            # laid out once per input-grad-only scope, where no weight can change.
            key = (self, fold and fold[0], False, taps, dtype)
            w2d = scope_cached(key, lambda: np.ascontiguousarray(
                self._weight(fold)[:, :, :, i0:i1, j0:j1].transpose(0, 1, 3, 4, 2), dtype=dtype
            ).reshape(kk, c_out, -1))
        # The columns are only needed for the weight gradient: kept whole when
        # it will run, streamed through the scratch under an input-grad-only
        # scope (attacks, evaluation, frozen-prefix forwards).
        keep = param_grads_enabled()
        out, cols = _stream(x, kk, unfold, w2d.transpose(0, 2, 1), cols_shape, keep)
        self._cols = (cols, taps) if keep else None
        self._x_shape, self._fold = x.shape, fold  # backward runs the way forward did
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
            # k²·C_out values per pixel where col2im scatters k²·C.  Each
            # piece's column gradient is scattered into its samples' rows.
            k, s, p = self.kernel_size, self.stride, self.padding
            b, l = n // kk, grad_out.shape[2] * grad_out.shape[3]
            g = grad_out.reshape(kk, b, c_out, l)
            w_cols = self._weight(fold).reshape(kk, 1, c_out, -1).transpose(0, 1, 3, 2)
            d = w_cols.shape[2]
            padded = np.zeros((kk, b, c, h + 2 * p, w_in + 2 * p), np.result_type(w_cols, g))
            for clients, samples, flat in _pieces(kk, b, d * l, padded.dtype):
                part = padded[clients, samples]
                grad_cols = flat.reshape(part.shape[:2] + (d, l))
                np.matmul(w_cols[clients], g[clients, samples], out=grad_cols)
                m = part.shape[0] * part.shape[1]
                col2im(grad_cols.reshape(m, d, l), (m, c, h, w_in), k, k, s, p,
                       out=part.reshape(m, *part.shape[2:]))
            return padded.reshape(n, *padded.shape[2:])[:, :, p:p + h, p:p + w_in]
        unfold = self._unfold(self._x_shape, grad_out.dtype, backward=True)
        i0, i1, j0, j1 = taps = unfold.taps
        dtype = np.result_type(grad_out, w)
        # (K, taps·C_out, C): the kernel flipped, in the columns' order.
        key = (self, fold and fold[0], True, taps, dtype)
        w2d = scope_cached(key, lambda: np.ascontiguousarray(
            self._weight(fold)[:, :, :, ::-1, ::-1][:, :, :, i0:i1, j0:j1].transpose(0, 3, 4, 1, 2),
            dtype=dtype,
        ).reshape(kk, -1, c))
        grad_in, _ = _stream(grad_out, kk, unfold.fill, w2d, unfold.cols_shape)  # per sample
        return grad_in.reshape(n, h, w_in, c).transpose(0, 3, 1, 2)
