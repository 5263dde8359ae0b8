"""Fast Gradient Sign Method (Goodfellow et al., 2014)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import ModelWithLoss
from repro.attacks.pgd import gradient_step
from repro.nn.grad_mode import attack_grad_scope


def fgsm_attack(
    mwl: ModelWithLoss,
    x: np.ndarray,
    y: np.ndarray,
    eps: float,
    clip: Optional[Tuple[float, float]] = (0.0, 1.0),
    norm: str = "linf",
) -> np.ndarray:
    """Single steepest-ascent step of radius ``eps``: ``x + eps * sign(grad)`` for ℓ∞."""
    if eps < 0:
        raise ValueError("eps must be non-negative")
    with attack_grad_scope():
        _, grad = mwl.loss_and_input_grad(x, y)
    adv = x + gradient_step(grad, eps, norm)
    if clip is not None:
        adv = np.clip(adv, clip[0], clip[1])
    return adv
