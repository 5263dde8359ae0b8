"""Array primitives shared by the NN layers: im2col/col2im and friends."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.dtype import compute_dtype


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window sweep."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive output size for input={size}, kernel={kernel}, "
            f"stride={stride}, pad={pad}"
        )
    return out


def channel_last(x: np.ndarray) -> np.ndarray:
    """An NCHW tensor as a C-contiguous ``(N, H, W, C)`` array.

    Free for an NCHW *view* of channel-last memory, which is what the conv,
    batch-norm, ReLU and pooling layers return.  Layers that reduce over
    several axes go through this so their summation order does not depend
    on the layout their input arrives in.
    """
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def channel_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)`` of a ``(K, rows, C)`` stack, bit for bit (NaN payloads aside), in
    one pass: einsum sums each channel over the rows in the reduce's sequential order
    without its C-element inner loop.  At C = 1 the reduce sums pairwise, so it stays."""
    return x.sum(axis=1) if x.shape[2] == 1 else np.einsum("kmc->kc", x)


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, out: np.ndarray | None = None
) -> Tuple[np.ndarray, int, int]:
    """Unfold an NCHW tensor into column form.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kh * kw, out_h * out_w)``.  Uses stride tricks to build the
    sliding windows without Python loops; the final ``reshape`` materialises
    a contiguous copy — into ``out`` (any contiguous array of that size)
    when given.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    if out is None:
        return windows.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w
    out.reshape(windows.shape)[...] = windows
    return out.reshape(n, c * kh * kw, out_h * out_w), out_h, out_w


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fold column-form gradients back into an NCHW tensor (im2col adjoint).

    Overlapping windows accumulate, which is exactly the sum of gradient
    contributions each input pixel receives.  ``out``, when given, is the
    zeroed padded ``(N, C, H + 2·pad, W + 2·pad)`` array to accumulate into.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, pad)
    out_w = conv_output_size(w, kw, stride, pad)
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype) if out is None else out
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            xp[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if pad > 0:
        return xp[:, :, pad : pad + h, pad : pad + w]
    return xp


def one_hot(labels: np.ndarray, num_classes: int, dtype=None) -> np.ndarray:
    """Dense one-hot encoding of an integer label vector.

    ``dtype=None`` follows the global compute-dtype policy
    (:func:`repro.nn.dtype.compute_dtype`).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if dtype is None:
        dtype = compute_dtype()
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
