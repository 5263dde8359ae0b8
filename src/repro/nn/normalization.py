"""Batch normalization, including the dual-statistics variant FedRBN needs."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import compute_dtype
from repro.nn.functional import channel_last, channel_sum
from repro.nn.grad_mode import frozen_cache, param_grads_enabled, scope_cached
from repro.nn.module import Module, Parameter


def _spread(v: np.ndarray, tile: int) -> np.ndarray:
    """A ``(K, C)`` per-channel vector as ``(K, 1, tile·C)``: its C values ``tile`` times."""
    return v[:, None] if tile == 1 else np.repeat(v[:, None], tile, axis=1).reshape(len(v), 1, -1)


class BatchNorm2d(Module):
    """Standard NCHW batch normalization with running statistics.

    In training mode the layer normalises with batch statistics and updates
    exponential running averages; in eval mode it uses the running averages.
    The backward pass in eval mode treats the statistics as constants (which
    is what PGD attacks against a frozen model require).

    Internally the activations are a channel-last ``(K, B·H·W, C)`` stack —
    K clients of a cohort (:mod:`repro.nn.cohort`), K=1 when serial — and
    every reduction runs over axis 1, one client's rows in order
    (``channel_sum``).  Per-channel maps run over one sample's whole
    ``H·W·C`` row, against the ``(K, C)`` vectors repeated H·W times, once
    the map has 64 positions (below that the repeat costs more than it
    saves).  The result therefore does not depend on the memory layout the
    input arrives in, and a cohort slice is bit-identical to the serial layer.
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
        k, tile = weight.shape[0], h * w if h * w >= 64 else 1
        xv = channel_last(x).reshape(k, -1, tile * c)
        mean, var = self._running()
        if self.training:
            count = n // k * h * w
            batch_mean = channel_sum(xv.reshape(k, -1, c)) / count
            centered = xv - _spread(batch_mean, tile)
            batch_var = channel_sum((centered * centered).reshape(k, -1, c)) / count
            m = self.momentum
            self._set_running((1 - m) * mean + m * batch_mean, (1 - m) * var + m * batch_var)
            var = batch_var
        inv_std = 1.0 / np.sqrt(var + self.eps)  # (K, C)
        if not (self.training or param_grads_enabled()):
            # Input-grad-only eval forward (attacks on a frozen model, the
            # frozen-prefix cascade): nothing downstream needs x_hat, so
            # fold the affine transform into one scale-and-shift.
            x_hat = None
            scale = weight * inv_std
            out = xv * _spread(scale, tile)
            out += _spread(bias - mean * scale, tile)
        else:
            # x_hat: for the weight gradient and the train-mode input gradient.
            if not self.training:
                centered = xv - _spread(mean, tile)
            centered *= _spread(inv_std, tile)
            x_hat = centered
            out = centered * _spread(weight, tile)
            out += _spread(bias, tile)
        self._saved = x_hat, inv_std, self.training, tile
        return out.reshape(n, h, w, c).transpose(0, 3, 1, 2)

    def backward(self, grad_out: np.ndarray, param_grads: bool = True) -> np.ndarray:
        saved = vars(self).pop("_saved", None)
        if saved is None:
            raise RuntimeError("BatchNorm2d.backward: no forward has run since the last backward")
        x_hat, inv_std, batch_stats, tile = saved
        n, c, h, w = grad_out.shape
        weight = self.weight.stacked()
        k = weight.shape[0]
        g = channel_last(grad_out).reshape(k, -1, tile * c)
        param_grads = param_grads and param_grads_enabled()
        if param_grads and x_hat is None:
            raise RuntimeError(
                "BatchNorm2d.backward needs parameter gradients but the "
                "forward pass ran input-grad-only (no x_hat cache)"
            )
        if param_grads or batch_stats:  # (K, C): the bias/weight grads
            gx = g * x_hat
            sum_g, sum_gx = channel_sum(g.reshape(k, -1, c)), channel_sum(gx.reshape(k, -1, c))
        if param_grads:
            w_grad, b_grad = self.weight.stacked_grad(), self.bias.stacked_grad()
            w_grad += sum_gx
            b_grad += sum_g
        if not batch_stats:
            # Eval mode: statistics are constants.
            out = g * _spread(weight * inv_std, tile)
        else:
            # weight*inv_std * (g - mean(g) - x_hat * mean(g * x_hat)), over one
            # client's rows; the consumed x_hat and the summed g * x_hat are ours
            # to overwrite.
            count = n // k * h * w
            x_hat *= _spread(sum_gx / count, tile)
            x_hat += _spread(sum_g / count, tile)
            out = np.subtract(g, x_hat, out=gx)
            out *= _spread(weight * inv_std, tile)
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
