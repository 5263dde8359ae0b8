"""Local training procedures shared by the FL algorithms."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.attacks import ModelWithLoss, PGDConfig, pgd_attack
from repro.attacks.base import CohortModelWithLoss
from repro.attacks.pgd import cohort_pgd_attack
from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.cohort import CohortCrossEntropyLoss
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.optim.sgd import SGD


def _loader(dataset: ArrayDataset, batch_size: int, rng: np.random.Generator) -> DataLoader:
    return DataLoader(dataset, batch_size=min(batch_size, len(dataset)), shuffle=True, rng=rng)


def standard_local_train(
    model: Module,
    dataset: ArrayDataset,
    iterations: int,
    batch_size: int,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """E iterations of plain local SGD; returns the mean training loss."""
    rng = rng if rng is not None else np.random.default_rng(0)
    model.train()
    opt = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    ce = CrossEntropyLoss()
    losses = []
    batches = _loader(dataset, batch_size, rng).infinite()
    for _ in range(iterations):
        x, y = next(batches)
        opt.zero_grad()
        loss = ce(model(x), y)
        model.backward(ce.backward())
        opt.step()
        losses.append(loss)
    return float(np.mean(losses)) if losses else 0.0


def adversarial_local_train(
    model: Module,
    dataset: ArrayDataset,
    iterations: int,
    batch_size: int,
    lr: float,
    pgd: PGDConfig,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """E iterations of PGD adversarial training (Madry et al., 2017).

    Each iteration generates adversarial examples with the *current* model
    (train mode, as is standard), then takes one SGD step on them.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    model.train()
    opt = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    ce = CrossEntropyLoss()
    mwl = ModelWithLoss(model)
    losses = []
    batches = _loader(dataset, batch_size, rng).infinite()
    for _ in range(iterations):
        x, y = next(batches)
        x_adv = pgd_attack(mwl, x, y, pgd, rng=rng)
        opt.zero_grad()
        loss = ce(model(x_adv), y)
        model.backward(ce.backward())
        opt.step()
        losses.append(loss)
    return float(np.mean(losses)) if losses else 0.0


# ---------------------------------------------------------------------------
# Client-batched (fusion cohort) trainers — how the engine runs a cohort
# ---------------------------------------------------------------------------
# These run K clients through one stacked model (slabs installed via
# repro.nn.cohort).  Per-client RNG streams are preserved exactly: each
# client owns its loader (epoch permutations) and its PGD random starts,
# drawn in the serial order (permutation at epoch boundaries, then the
# attack init, per iteration).  Cohort members must share (shard size,
# effective batch size) so every iteration concatenates K equal-size
# batches and epoch boundaries stay aligned — the executor's grouping key
# guarantees this.


def _cohort_batches(loaders):
    """One iteration's stacked batch: K equal-size per-client batches."""
    xs, ys = [], []
    for it in loaders:
        x, y = next(it)
        xs.append(x)
        ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


def _per_client_means(losses: List[np.ndarray], k: int) -> List[float]:
    if not losses:
        return [0.0] * k
    return [float(np.mean([step[i] for step in losses])) for i in range(k)]


def cohort_standard_local_train(
    model: Module,
    datasets: Sequence[ArrayDataset],
    iterations: int,
    batch_size: int,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[float]:
    """K clients' :func:`standard_local_train`, one stacked model pass each.

    Bit-identical per client to the serial trainer; returns the K mean
    training losses in cohort order.
    """
    k = len(datasets)
    model.train()
    opt = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    ce = CohortCrossEntropyLoss(k)
    losses: List[np.ndarray] = []
    loaders = [
        _loader(ds, batch_size, rng).infinite() for ds, rng in zip(datasets, rngs)
    ]
    for _ in range(iterations):
        x, y = _cohort_batches(loaders)
        opt.zero_grad()
        loss = ce(model(x), y)
        model.backward(ce.backward())
        opt.step()
        losses.append(loss)
    return _per_client_means(losses, k)


def cohort_adversarial_local_train(
    model: Module,
    datasets: Sequence[ArrayDataset],
    iterations: int,
    batch_size: int,
    lr: float,
    pgd: PGDConfig,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    rngs: Optional[Sequence[np.random.Generator]] = None,
) -> List[float]:
    """K clients' :func:`adversarial_local_train` as one stacked cohort."""
    k = len(datasets)
    model.train()
    opt = SGD(model.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay)
    ce = CohortCrossEntropyLoss(k)
    mwl = CohortModelWithLoss(model, k)
    losses: List[np.ndarray] = []
    loaders = [
        _loader(ds, batch_size, rng).infinite() for ds, rng in zip(datasets, rngs)
    ]
    for _ in range(iterations):
        x, y = _cohort_batches(loaders)
        x_adv = cohort_pgd_attack(mwl, x, y, pgd, rngs)
        opt.zero_grad()
        loss = ce(model(x_adv), y)
        model.backward(ce.backward())
        opt.step()
        losses.append(loss)
    return _per_client_means(losses, k)
