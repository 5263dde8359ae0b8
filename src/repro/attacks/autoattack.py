"""AutoAttack surrogate: APGD-CE plus a worst-case attack ensemble.

The paper evaluates robustness with AutoAttack (Croce & Hein, 2020), whose
workhorse is APGD — a parameter-free PGD with momentum and a step-halving
schedule driven by progress checkpoints.  We implement APGD-CE with
multiple restarts and combine it with PGD and FGSM in a per-sample
worst-case ensemble (``auto_attack_lite``), preserving AutoAttack's role as
"a strictly stronger attack than plain PGD" for the Table 2 AA column.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import ModelWithLoss
from repro.attacks.fgsm import fgsm_attack
from repro.attacks.pgd import PGDConfig, gradient_step, pgd_attack, project, random_init
from repro.nn.grad_mode import attack_grad_scope


def _checkpoints(steps: int) -> List[int]:
    """APGD's progress-check schedule: p_0=0, p_1=0.22, then shrinking gaps."""
    points = [0.0, 0.22]
    while points[-1] < 1.0:
        gap = max(points[-1] - points[-2] - 0.03, 0.06)
        points.append(points[-1] + gap)
    return sorted({min(steps - 1, int(np.ceil(p * steps))) for p in points})


@attack_grad_scope()  # the model is frozen for the whole attack: one scope, one weight layout
def apgd_attack(
    mwl: ModelWithLoss,
    x: np.ndarray,
    y: np.ndarray,
    eps: float,
    steps: int = 20,
    norm: str = "linf",
    restarts: int = 1,
    clip: Optional[Tuple[float, float]] = (0.0, 1.0),
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Auto-PGD with cross-entropy loss.

    Momentum update with per-restart step halving whenever a checkpoint
    observes insufficient loss progress; keeps the per-sample best (highest
    loss) iterate across all steps and restarts.
    """
    if eps == 0.0 or steps < 1:
        return x.copy()
    rng = rng if rng is not None else np.random.default_rng(0)
    n = x.shape[0]
    best_adv = x.copy()
    best_loss = mwl.per_sample_losses(x, y).copy()
    checks = _checkpoints(steps)

    for _ in range(max(1, restarts)):
        delta = random_init(x.shape, eps, norm, rng, dtype=x.dtype)
        if clip is not None:
            delta = np.clip(x + delta, clip[0], clip[1]) - x
        alpha = 2.0 * eps
        prev_delta = delta.copy()
        improved_since_check = np.zeros(n, dtype=int)
        steps_since_check = 0
        loss_at_last_check = best_loss.copy()
        # The forward that scores x + delta is the one the next step
        # backpropagates; only a start or a reset moves delta off it.
        forwarded = False

        for step in range(steps):
            if not forwarded:
                mwl.forward_losses(x + delta, y)
            grad = mwl.input_grad()
            # momentum: z = delta + step, new = delta + 0.75*(z-delta)+0.25*(delta-prev)
            z = delta + gradient_step(grad, alpha, norm)
            z = project(z, eps, norm)
            if clip is not None:
                z = np.clip(x + z, clip[0], clip[1]) - x
            new_delta = delta + 0.75 * (z - delta) + 0.25 * (delta - prev_delta)
            new_delta = project(new_delta, eps, norm)
            if clip is not None:
                new_delta = np.clip(x + new_delta, clip[0], clip[1]) - x
            prev_delta, delta = delta, new_delta

            losses = mwl.forward_losses(x + delta, y)
            forwarded = True
            better = losses > best_loss
            improved_since_check += better.astype(int)
            best_loss = np.where(better, losses, best_loss)
            best_adv = np.where(
                better.reshape((n,) + (1,) * (x.ndim - 1)), x + delta, best_adv
            )
            steps_since_check += 1

            if step in checks and steps_since_check > 0:
                # halve the step size when fewer than 75% of steps improved
                frac = improved_since_check / steps_since_check
                if float(frac.mean()) < 0.75 or not np.any(
                    best_loss > loss_at_last_check
                ):
                    alpha /= 2.0
                    delta = best_adv - x  # restart from the best-so-far point
                    forwarded = False
                improved_since_check[...] = 0
                steps_since_check = 0
                loss_at_last_check = best_loss.copy()
    return best_adv


@attack_grad_scope()
def auto_attack_lite(
    mwl: ModelWithLoss,
    x: np.ndarray,
    y: np.ndarray,
    eps: float,
    norm: str = "linf",
    steps: int = 20,
    restarts: int = 2,
    clip: Optional[Tuple[float, float]] = (0.0, 1.0),
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Worst-case ensemble: a sample is robust only if it survives them all.

    FGSM, PGD and APGD-CE run in turn, each on the points no earlier member
    has flipped (as in Croce & Hein's AutoAttack), so the cost follows the
    robust fraction; a member draws its random starts for the batch it is
    given.  A flipped point keeps the first example that flipped it, a
    survivor the last attempt made on it.
    Returns inputs whose induced accuracy is the ensemble robust accuracy.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    y = np.asarray(y)
    result = x.copy()
    remaining = np.arange(x.shape[0])
    attacks = (
        lambda xs, ys: fgsm_attack(mwl, xs, ys, eps, clip=clip, norm=norm),
        lambda xs, ys: pgd_attack(
            mwl, xs, ys, PGDConfig(eps=eps, steps=steps, norm=norm, clip=clip), rng=rng
        ),
        lambda xs, ys: apgd_attack(
            mwl, xs, ys, eps, steps=steps, norm=norm, restarts=restarts, clip=clip, rng=rng
        ),
    )
    for attack in attacks:
        if remaining.size == 0:
            break
        adv = attack(x[remaining], y[remaining])
        result[remaining] = adv
        remaining = remaining[mwl.logits(adv).argmax(axis=1) == y[remaining]]
    return result
