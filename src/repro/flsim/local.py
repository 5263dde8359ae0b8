"""Local training procedures shared by the FL algorithms.

Every trainer here runs K ≥ 1 clients through one model
(:mod:`repro.nn.cohort`): a lone client is a cohort of one on the serial
layout, K > 1 clients share one stacked pass over installed slabs.
Per-client RNG streams are preserved exactly: each client owns its loader
(epoch permutations) and its PGD random starts, drawn in the serial order
(permutation at epoch boundaries, then the attack init, per iteration).
Cohort members must share (shard size, effective batch size) so every
iteration concatenates K equal-size batches and epoch boundaries stay
aligned — the executor's grouping key guarantees this.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.attacks import ModelWithLoss, PGDConfig
from repro.attacks.pgd import cohort_pgd_attack
from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.cohort import stack_rows
from repro.nn.module import Module
from repro.optim.sgd import SGD


def cohort_batches(
    datasets: Sequence[ArrayDataset],
    batch_size: int,
    rngs: Sequence[np.random.Generator],
    features: Optional[Sequence[Optional[Callable]]] = None,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Endless stacked batches: each client's shuffled batch, in cohort order.

    ``features[i](indices, x)`` maps client i's batch to what the model reads
    (FedProphet's frozen prefix, cached per dataset row).
    """
    loaders = [
        DataLoader(
            ds, batch_size=min(batch_size, len(ds)), shuffle=True, rng=rng
        ).infinite_with_indices()
        for ds, rng in zip(datasets, rngs)
    ]
    features = features or [None] * len(loaders)
    while True:
        idx, xs, ys = zip(*(next(it) for it in loaders))
        xs = [x if f is None else f(i, x) for f, i, x in zip(features, idx, xs)]
        yield stack_rows(xs), stack_rows(ys)


def _local_train(
    model: Module,
    datasets: Sequence[ArrayDataset],
    iterations: int,
    batch_size: int,
    lr: float,
    pgd: Optional[PGDConfig],
    momentum: float,
    weight_decay: float,
    rngs: Sequence[np.random.Generator],
    head: Optional[Module] = None,
    mu: float = 0.0,
    features: Optional[Sequence[Optional[Callable]]] = None,
) -> List[float]:
    """The one local-training body: E SGD iterations, on PGD examples unless
    ``pgd`` is ``None``; returns each client's mean training loss.  A
    FedProphet client (Eq. 9) trains a module span with its auxiliary
    ``head`` and ``mu`` on the span's ``features`` (:func:`cohort_batches`)."""
    k = len(datasets)
    params = model.train().parameters()
    if head is not None:
        params += head.train().parameters()
    opt = SGD(params, lr=lr, momentum=momentum, weight_decay=weight_decay)
    mwl = ModelWithLoss(model, head, k=k, mu=mu)
    losses: List[np.ndarray] = []
    batches = cohort_batches(datasets, batch_size, rngs, features)
    for _ in range(iterations):
        x, y = next(batches)
        if pgd is not None:
            # Adversarial examples from the *current* model (train mode, as
            # is standard; Madry et al., 2017).
            x = cohort_pgd_attack(mwl, x, y, pgd, rngs)
        opt.zero_grad()
        loss = mwl.loss_and_input_grad(x, y)[0]
        opt.step()
        losses.append(np.atleast_1d(loss))
    if not losses:
        return [0.0] * k
    return [float(np.mean([step[i] for step in losses])) for i in range(k)]


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
    return _local_train(
        model, [dataset], iterations, batch_size, lr, None, momentum, weight_decay, [rng]
    )[0]


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
    return _local_train(
        model, [dataset], iterations, batch_size, lr, pgd, momentum, weight_decay, [rng]
    )[0]


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

    Bit-identical per client to a lone client's run; returns the K mean
    training losses in cohort order.
    """
    return _local_train(
        model, datasets, iterations, batch_size, lr, None, momentum, weight_decay, rngs
    )


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
    return _local_train(
        model, datasets, iterations, batch_size, lr, pgd, momentum, weight_decay, rngs
    )
