"""Adapter exposing loss-and-input-gradient for attack algorithms."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.grad_mode import attack_grad_scope
from repro.nn.linear import Linear
from repro.nn.losses import CrossEntropyLoss, log_softmax
from repro.nn.module import Module


class ModelWithLoss:
    """Bundle a model (or model segment) with a cross-entropy loss.

    Attacks repeatedly need ``(loss, d loss / d input)``; this adapter runs
    the forward/backward pair.  Note the backward pass also accumulates
    parameter gradients as a side effect — training loops must call
    ``zero_grad`` before their own update backward, which every trainer in
    this repo does.
    """

    def __init__(self, model: Module, head: Optional[Module] = None):
        self.model = model
        self.head = head
        self._ce = CrossEntropyLoss()

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Model then head, flattening conv features for plain Linear heads.

        Structured heads (e.g. :class:`repro.core.heads.AuxHead`) accept the
        body output directly and handle their own shaping.
        """
        out = self.model(x)
        self._flat_shape = None
        if isinstance(self.head, Linear) and out.ndim > 2:
            self._flat_shape = out.shape
            out = out.reshape(out.shape[0], -1)
        return out if self.head is None else self.head(out)

    def logits(self, x: np.ndarray) -> np.ndarray:
        # Forward-only: never followed by a backward pass, so skip the
        # weight-gradient caches entirely.
        with attack_grad_scope():
            return self._forward(x)

    def input_grad(self) -> np.ndarray:
        """d loss / d input of the latest :meth:`forward_losses` /
        :meth:`loss_and_input_grad` forward (at most once per forward)."""
        g = self._ce.backward()
        if self.head is not None:
            g = self.head.backward(g)
            if self._flat_shape is not None:
                g = g.reshape(self._flat_shape)
        return self.model.backward(g)

    def loss_and_input_grad(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        loss = self._ce(self._forward(x), y)
        return loss, self.input_grad()

    def forward_losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample CE losses of a forward that :meth:`input_grad` can still
        backpropagate — APGD scores an iterate and steps from it in one pass."""
        out = self._forward(x)
        self._ce(out, y)
        return -log_softmax(out)[np.arange(len(y)), np.asarray(y)]

    def per_sample_losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample CE losses of a forward-only pass."""
        return -log_softmax(self.logits(x))[np.arange(len(y)), np.asarray(y)]


class CohortModelWithLoss(ModelWithLoss):
    """ModelWithLoss over a client-batched (K·B, ...) activation layout.

    Swaps the scalar mean-CE for :class:`repro.nn.cohort.
    CohortCrossEntropyLoss`, whose backward divides by the *per-client*
    batch size — so the input gradients each client's slice sees are
    bit-identical to a serial :class:`ModelWithLoss` on that client alone.
    ``loss_and_input_grad`` returns the K per-client losses as the loss.
    """

    def __init__(self, model: Module, k: int, head: Optional[Module] = None):
        super().__init__(model, head)
        from repro.nn.cohort import CohortCrossEntropyLoss

        self._ce = CohortCrossEntropyLoss(k)
