"""Projected Gradient Descent attacks (Madry et al., 2017).

Supports the two geometries the paper uses:

* ℓ∞ with box clipping — raw-image attacks (ε0 = 8/255),
* ℓ2 without clipping — FedProphet's intermediate-feature perturbations
  (Eq. 9's inner maximisation on ``z_{m-1}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import ModelWithLoss
from repro.nn.cohort import stack_rows
from repro.nn.grad_mode import attack_grad_scope

_EPS_DIV = 1e-12


@dataclass(frozen=True)
class PGDConfig:
    """Attack hyperparameters.

    ``step_size=None`` uses the conventional ``2.5 * eps / steps``.
    ``clip=None`` disables box clipping (intermediate features).
    """

    eps: float
    steps: int
    norm: str = "linf"  # "linf" | "l2"
    step_size: Optional[float] = None
    rand_init: bool = True
    clip: Optional[Tuple[float, float]] = (0.0, 1.0)

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be non-negative")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.norm not in ("linf", "l2"):
            raise ValueError(f"unsupported norm {self.norm!r}")

    @property
    def alpha(self) -> float:
        return self.step_size if self.step_size is not None else 2.5 * self.eps / self.steps


def _flat_l2(v: np.ndarray) -> np.ndarray:
    """Per-sample ℓ2 norms, shape (N, 1, 1, ...) broadcastable to v."""
    n = v.shape[0]
    norms = np.sqrt((v.reshape(n, -1) ** 2).sum(axis=1))
    return norms.reshape((n,) + (1,) * (v.ndim - 1))


def project(delta: np.ndarray, eps: float, norm: str) -> np.ndarray:
    """Project perturbations onto the ε-ball of the given norm."""
    if norm == "linf":
        return np.clip(delta, -eps, eps)
    norms = _flat_l2(delta)
    factor = np.minimum(1.0, eps / (norms + _EPS_DIV))
    return delta * factor


def random_init(
    shape: Tuple[int, ...],
    eps: float,
    norm: str,
    rng: np.random.Generator,
    dtype=None,
) -> np.ndarray:
    """Random start inside the ε-ball.

    Draws in float64 (keeping the random stream identical across compute
    dtypes), then casts to ``dtype`` so the perturbed input stays in the
    model's compute dtype instead of silently promoting every forward pass
    to float64.
    """
    if norm == "linf":
        delta = rng.uniform(-eps, eps, size=shape)
    else:
        delta = rng.normal(size=shape)
        norms = _flat_l2(delta)
        radii = rng.uniform(0.0, 1.0, size=(shape[0],) + (1,) * (len(shape) - 1)) ** (
            1.0 / max(1, int(np.prod(shape[1:])))
        )
        delta = delta / (norms + _EPS_DIV) * radii * eps
    if dtype is not None:
        delta = delta.astype(dtype, copy=False)
    return delta


def gradient_step(grad: np.ndarray, alpha: float, norm: str) -> np.ndarray:
    """Steepest-ascent step for the given norm geometry."""
    if norm == "linf":
        return alpha * np.sign(grad)
    norms = _flat_l2(grad)
    return alpha * grad / (norms + _EPS_DIV)


def pgd_attack(
    mwl: ModelWithLoss,
    x: np.ndarray,
    y: np.ndarray,
    config: PGDConfig,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Run PGD and return the adversarial inputs ``x + delta``.

    The model is used as-is (caller controls train/eval mode).  The whole
    attack runs input-grad-only (:func:`repro.nn.grad_mode.attack_grad_scope`):
    no parameter gradients are accumulated and the layers skip the forward
    caches that only the weight-gradient path needs.
    """
    return _pgd(mwl, x, y, config, [rng if rng is not None else np.random.default_rng(0)])


def cohort_pgd_attack(
    mwl: ModelWithLoss,
    x: np.ndarray,
    y: np.ndarray,
    config: PGDConfig,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """PGD over a client-batched (K·B, ...) input stack, K = ``len(rngs)``.

    ``mwl`` must slice its loss gradient per client (a ``ModelWithLoss``
    built with ``k=K`` over a cohort-installed model); the random start is
    drawn *per client* with that client's own generator — consuming
    exactly the stream :func:`pgd_attack` on the client's (B, ...) batch
    would — and every subsequent operation is per-sample, so each client's
    slice of the result is bit-identical to its lone attack.
    """
    return _pgd(mwl, x, y, config, rngs)


def _pgd(mwl, x, y, config: PGDConfig, rngs) -> np.ndarray:
    # The one PGD loop of both entry points (neither calls the other, so a
    # wrapper on one never runs inside the other).
    if config.eps == 0.0:
        return x.copy()
    if config.rand_init:
        shape = (x.shape[0] // len(rngs),) + x.shape[1:]
        delta = stack_rows(
            [random_init(shape, config.eps, config.norm, rng, dtype=x.dtype) for rng in rngs]
        )
    else:
        delta = np.zeros_like(x)
    if config.clip is not None:
        lo, hi = config.clip
        delta = np.clip(x + delta, lo, hi) - x
    with attack_grad_scope():
        for _ in range(config.steps):
            _, grad = mwl.loss_and_input_grad(x + delta, y)
            delta = delta + gradient_step(grad, config.alpha, config.norm)
            delta = project(delta, config.eps, config.norm)
            if config.clip is not None:
                lo, hi = config.clip
                delta = np.clip(x + delta, lo, hi) - x
    return x + delta
