"""Spatial pooling layers."""

from __future__ import annotations

import numpy as np

from repro.nn.functional import channel_last, channel_sum, col2im, im2col
from repro.nn.module import Module


class MaxPool2d(Module):
    """Max pooling over square windows (arbitrary kernel/stride/padding)."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        self._x_shape = x.shape
        if (k, s, p) == (2, 2, 0) and h % 2 == 0 and w % 2 == 0:
            # No unfold needed: the four window positions are four strided
            # views of x, reduced in argmax order.  Backward needs only which
            # position held each window's first maximum — a one-byte index,
            # 4 where none did (a NaN window) — and x's memory order.
            self._x_order = sorted(range(4), key=lambda axis: -x.strides[axis])
            q = _quads(x)
            out = np.maximum(np.maximum(q[0], q[1]), np.maximum(q[2], q[3]))
            miss = q[0] != out
            self._first = first = miss.astype(np.uint8)
            for qi in q[1:]:
                miss &= qi != out
                first += miss
            return out
        self._first = None
        cols, out_h, out_w = im2col(x, k, k, s, p)
        cols = cols.reshape(n, c, k * k, out_h * out_w)
        self._argmax = cols.argmax(axis=2)
        self._out_hw = (out_h, out_w)
        out = np.take_along_axis(cols, self._argmax[:, :, None, :], axis=2)
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        first, self._first = self._first, None  # single-shot cache: release once consumed
        if first is not None:
            # Each window's gradient goes to its first maximum, as argmax picks it.
            order = self._x_order  # laid out like x (channel-last when x was)
            grad_in = np.empty([self._x_shape[a] for a in order], grad_out.dtype)
            grad_in = grad_in.transpose(np.argsort(order))
            for i, dst in enumerate(_quads(grad_in)):
                np.multiply(grad_out, first == i, out=dst)
            return grad_in
        n, c, _, _ = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = self._out_hw
        grad_cols = np.zeros((n, c, k * k, out_h * out_w), dtype=grad_out.dtype)
        g = grad_out.reshape(n, c, 1, out_h * out_w)
        np.put_along_axis(grad_cols, self._argmax[:, :, None, :], g, axis=2)
        self._argmax = None  # single-shot cache: release once consumed
        grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
        return col2im(grad_cols, self._x_shape, k, k, s, p)


def _quads(x: np.ndarray) -> list:
    """The four positions of every 2x2/stride-2 window, in argmax order."""
    return [x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1)]


class AvgPool2d(Module):
    """Average pooling over square windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self.padding = padding

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, _, _ = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        cols, out_h, out_w = im2col(x, k, k, s, p)
        cols = cols.reshape(n, c, k * k, out_h * out_w)
        self._x_shape = x.shape
        self._out_hw = (out_h, out_w)
        return cols.mean(axis=2).reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, _, _ = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = self._out_hw
        g = grad_out.reshape(n, c, 1, out_h * out_w) / float(k * k)
        grad_cols = np.broadcast_to(g, (n, c, k * k, out_h * out_w))
        grad_cols = grad_cols.reshape(n, c * k * k, out_h * out_w)
        return col2im(np.ascontiguousarray(grad_cols), self._x_shape, k, k, s, p)


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, producing (N, C) features."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        n, c, h, w = x.shape
        return channel_sum(channel_last(x).reshape(n, -1, c)) / (h * w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        n, c, h, w = self._x_shape
        g = grad_out[:, :, None, None] / float(h * w)
        return np.broadcast_to(g, self._x_shape).copy()
