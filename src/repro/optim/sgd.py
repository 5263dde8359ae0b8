"""SGD with momentum and weight decay — the paper's local optimizer."""

from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.nn.grad_mode import require_unfrozen
from repro.nn.module import Parameter


class SGD:
    """Stochastic gradient descent.

    Matches the torch semantics the paper's hyperparameters assume:
    ``v <- momentum * v + (grad + weight_decay * w)`` then
    ``w <- w - lr * v``.  The momentum buffers are the optimizer state that
    the hardware memory model accounts for (one extra copy of the weights).
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and positive, got {lr}")
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError(f"weight_decay must be finite and non-negative, got {weight_decay}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        # Slab-aware: inside a fusion cohort a parameter carries a
        # (K, *shape) per-client slab; the velocity matches it and every
        # update below is elementwise, so each client's slice evolves
        # bit-identically to a serial optimizer on that client alone.  Plain
        # SGD (``momentum=0``) keeps no velocity at all.
        self._velocity = [
            np.zeros_like(p.slab if p.slab is not None else p.data) if momentum else None
            for p in self.params
        ]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        require_unfrozen("SGD.step")
        for p, v in zip(self.params, self._velocity):
            if p.slab is not None:
                data, g = p.slab, p.slab_grad
            else:
                data, g = p.data, p.grad
            if self.weight_decay:
                g = g + self.weight_decay * data
            if self.momentum:
                v *= self.momentum
                v += g
                g = v
            data -= self.lr * g

    def state_size(self) -> int:
        """Number of scalars of optimizer state (for memory accounting)."""
        return sum(v.size for v in self._velocity if v is not None)
