"""Client-batched ("fusion cohort") parameter slabs.

The round engine fuses K homogeneous clients into one stacked
forward/backward (``fusion_width``; see :mod:`repro.flsim.executor`):
activations carry the clients stacked on the batch axis — a ``(K·B, ...)``
layout — while every trainable parameter carries a ``(K, *shape)``
**slab** holding the K clients' values.  The
parameterised layers (Linear, Conv2d, BatchNorm2d) have one kernel each,
written over ``Parameter.stacked()``: the slabs here, K=1 views of
``data``/``grad`` when serial.  Per-client slices are therefore
bit-identical to the serial path: the GEMMs batch over the leading client
axis (same BLAS call per slice) and every *reduction* (weight/bias
gradients, batch statistics) stays inside one client's rows.

Every client trains as a cohort: :func:`train_cohort` runs one trainer
body over K ≥ 1 clients, and a cohort of one runs on the serial layout
(no slab, no batch copy).  This module owns the slab lifecycle:

* :func:`install_cohort` stacks K state dicts into parameter/buffer slabs,
* :func:`extract_cohort` slices the trained slabs back into K state dicts,
* :func:`clear_cohort` returns the model to the serial layout (workspace
  models are reused across rounds, so this must run even on failure),

plus :class:`CohortCrossEntropyLoss`, the per-client-sliced loss whose
gradient matches K independent serial mean-CE losses bit for bit, and
:func:`stack_rows`, the batch-axis concatenation the trainers share.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.nn.grad_mode import require_unfrozen
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module

StateDict = Dict[str, np.ndarray]


def install_cohort(model: Module, states: Sequence[StateDict]) -> int:
    """Stack K client state dicts into parameter/buffer slabs on ``model``.

    ``states`` must all carry exactly the keys of ``model.state_dict()``.
    While installed, the cohort-aware layers ignore the serial
    ``Parameter.data`` values (which are left untouched).  Returns K.
    """
    require_unfrozen("install_cohort")
    k = len(states)
    if k == 0:
        raise ValueError("install_cohort needs at least one state dict")
    for name, p in model.named_parameters():
        p.slab = np.stack(
            [np.asarray(s[name], dtype=p.data.dtype) for s in states]
        )
        p.slab_grad = np.zeros_like(p.slab)
    for name, (owner, local) in model._buffer_owners().items():
        dtype = owner._buffers[local].dtype
        owner._slab_buffers[local] = np.stack(
            [np.asarray(s[name], dtype=dtype) for s in states]
        )
    model._cohort_k = k
    return k


def extract_cohort(model: Module) -> List[StateDict]:
    """Slice the installed slabs back into K per-client state dicts.

    Key set and array values are exactly what K serial clients'
    ``state_dict()`` calls would produce after the same training.
    """
    k = model._cohort_k
    if not k:
        raise RuntimeError("no cohort installed")
    states: List[StateDict] = [{} for _ in range(k)]
    for name, p in model.named_parameters():
        if p.slab is None:
            raise RuntimeError(f"parameter {name!r} has no slab installed")
        for i in range(k):
            states[i][name] = p.slab[i].copy()
    for name, (owner, local) in model._buffer_owners().items():
        slab = owner._slab_buffers[local]
        for i in range(k):
            states[i][name] = slab[i].copy()
    return states


def clear_cohort(model: Module) -> None:
    """Drop all slabs and return ``model`` to the serial layout."""
    require_unfrozen("clear_cohort")
    for _, p in model.named_parameters():
        p.slab = None
        p.slab_grad = None
    for m in model.modules():
        m._slab_buffers.clear()
    model._cohort_k = 0


def train_cohort(
    model: Module,
    k: int,
    train: Callable[[Module], object],
    base: Optional[StateDict] = None,
) -> List[StateDict]:
    """Train K clients from one round-base state; returns their K trained states.

    ``train(model)`` runs the trainer body once, for all K clients.  Every
    client starts from ``base`` (``None``: the state ``model`` holds now).
    K > 1 installs K copies as slabs, trains, and extracts the slices; the
    slabs are cleared even on failure.  K = 1 is the serial layout: the
    state is loaded into ``Parameter.data``, trained with no slab, and
    snapshotted — exactly a lone client's array operations.
    """
    if k == 1:
        if base is not None:
            model.load_state_dict(base)
        train(model)
        return [model.state_dict()]
    try:
        install_cohort(model, [model.state_dict() if base is None else base] * k)
        train(model)
        return extract_cohort(model)
    finally:
        clear_cohort(model)


def stack_rows(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """K per-client row blocks as one ``(K·B, ...)`` batch; one block is not copied."""
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


class CohortCrossEntropyLoss(CrossEntropyLoss):
    """Per-client mean cross-entropy over a (K·B, C) stacked logits batch.

    ``forward`` returns the K per-client losses (each the serial client's
    ``float(-picked.mean())`` over its own contiguous slice); ``backward``
    divides by the per-client batch size B — not K·B — so each client's
    logit gradient equals the serial ``CrossEntropyLoss.backward`` exactly.
    A batch that does not split into K equal slices raises ``ValueError``.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("cohort width must be >= 1")
        self.k = k

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        return self._losses(logits, labels)

    def backward(self) -> np.ndarray:
        return self._logit_grad()
