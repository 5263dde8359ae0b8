"""Batch normalization, including the dual-statistics variant FedRBN needs."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import compute_dtype
from repro.nn.functional import channel_last
from repro.nn.grad_mode import frozen_cache, param_grads_enabled, scope_cached
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Standard NCHW batch normalization with running statistics.

    In training mode the layer normalises with batch statistics and updates
    exponential running averages; in eval mode it uses the running averages.
    The backward pass in eval mode treats the statistics as constants (which
    is what PGD attacks against a frozen model require).

    Internally the activations are a channel-last ``(K, B·H·W, C)`` stack —
    K clients of a cohort (:mod:`repro.nn.cohort`), K=1 when serial — and
    every reduction runs over axis 1, one client's rows in order.  The
    result therefore does not depend on the memory layout the input arrives
    in, and a cohort slice is bit-identical to the serial layer.
    """

    # The running-statistics bank in use; DualBatchNorm2d switches it.
    _bank = ("running_mean", "running_var")

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.weight = Parameter(np.ones(num_features, dtype=compute_dtype()))
        self.bias = Parameter(np.zeros(num_features, dtype=compute_dtype()))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=compute_dtype()))
        self.register_buffer("running_var", np.ones(num_features, dtype=compute_dtype()))

    def _running(self) -> list[np.ndarray]:
        """The active bank's ``(K, C)`` mean and variance."""
        if self.weight.slab is not None:
            return [self._slab_buffers[name] for name in self._bank]
        return [self._buffers[name][None] for name in self._bank]

    def _set_running(self, *stats: np.ndarray) -> None:
        for name, value in zip(self._bank, stats):
            if self.weight.slab is not None:
                self._slab_buffers[name] = np.asarray(value, dtype=self._buffers[name].dtype)
            else:
                self.set_buffer(name, value[0])

    def fold(self):
        """``(bank, scale, shift)`` with ``self(z) == z·scale + shift`` (``(K, C)`` stacks), or
        ``None``: only a frozen layer folds — eval mode, inside a scope, whose cache holds
        the pair per statistics bank (so both of a ``DualBatchNorm2d``)."""
        if self.training or frozen_cache() is None:
            return None

        def build():
            mean, var = self._running()
            scale = self.weight.stacked() * (1.0 / np.sqrt(var + self.eps))
            return (self, self._bank), scale, self.bias.stacked() - mean * scale

        return scope_cached((self, self._bank), build)

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


class DualBatchNorm2d(BatchNorm2d):
    """BatchNorm with separate clean/adversarial running statistics.

    FedRBN (Hong et al., 2023) propagates robustness between clients by
    sharing the *adversarial* BN statistics of adversarially-training
    clients with standard-training clients.  This layer keeps two banks of
    running statistics and a switch selecting which bank forward passes in
    eval mode use (training mode updates the active bank).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__(num_features, momentum=momentum, eps=eps)
        self.register_buffer("running_mean_adv", np.zeros(num_features))
        self.register_buffer("running_var_adv", np.ones(num_features))
        self.adversarial_mode = False

    def set_mode(self, adversarial: bool) -> None:
        object.__setattr__(self, "adversarial_mode", bool(adversarial))

    @property
    def _bank(self) -> tuple[str, str]:
        if self.adversarial_mode:
            return ("running_mean_adv", "running_var_adv")
        return ("running_mean", "running_var")


def set_dual_bn_mode(model: Module, adversarial: bool) -> None:
    """Switch every DualBatchNorm2d in ``model`` to clean/adversarial stats."""
    for m in model.modules():
        if isinstance(m, DualBatchNorm2d):
            m.set_mode(adversarial)
