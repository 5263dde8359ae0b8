"""Dense layer and flattening."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import compute_dtype
from repro.nn.grad_mode import param_grads_enabled
from repro.nn.init import PrivateRng, kaiming_normal
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b`` with He init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else PrivateRng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            kaiming_normal((out_features, in_features), fan_in=in_features, rng=rng)
        )
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=compute_dtype()))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2:
            raise ValueError(f"Linear expects 2-D input, got shape {x.shape}")
        # The input is only needed for the weight gradient.
        self._x = x if param_grads_enabled() else None
        w = self.weight.stacked()
        # Activations carry K clients stacked on the batch axis, (K·B, in);
        # the GEMM batches over K (serial: K=1), one client per slice.
        out = np.matmul(x.reshape(w.shape[0], -1, self.in_features), w.transpose(0, 2, 1))
        if self.use_bias:
            out += self.bias.stacked()[:, None, :]
        return out.reshape(x.shape[0], self.out_features)

    def backward(self, grad_out: np.ndarray, param_grads: bool = True) -> np.ndarray:
        w = self.weight.stacked()
        g = np.ascontiguousarray(grad_out).reshape(w.shape[0], -1, self.out_features)
        if param_grads and param_grads_enabled():
            if self._x is None:
                raise RuntimeError(
                    "Linear.backward needs parameter gradients but the "
                    "forward pass ran input-grad-only (no input cache)"
                )
            # Reductions stay inside one client's rows, so a cohort slice
            # sums in the serial order.
            xv = self._x.reshape(g.shape[0], -1, self.in_features)
            w_grad = self.weight.stacked_grad()
            w_grad += np.matmul(g.transpose(0, 2, 1), xv)
            if self.use_bias:
                b_grad = self.bias.stacked_grad()
                b_grad += g.sum(axis=1)  # not channel_sum: einsum is no faster at (K, ≤64, out)
        self._x = None
        return np.matmul(g, w).reshape(grad_out.shape[0], self.in_features)


class Flatten(Module):
    """Collapse all non-batch dimensions."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)
