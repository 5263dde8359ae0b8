"""The loss-and-input-gradient adapter of attacks, trainers and Eq. 9."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.cohort import CohortCrossEntropyLoss
from repro.nn.grad_mode import attack_grad_scope
from repro.nn.linear import Linear
from repro.nn.losses import CrossEntropyLoss, check_mu, log_softmax, strong_convexity
from repro.nn.module import Module


class ModelWithLoss:
    """Bundle a model (or model segment) with a cross-entropy loss.

    Attacks repeatedly need ``(loss, d loss / d input)``; this adapter runs
    the forward/backward pair.  Note the backward pass also accumulates
    parameter gradients as a side effect — training loops must call
    ``zero_grad`` before their own update backward, which every trainer in
    this repo does.

    ``k > 1`` reads a client-batched ``(K·B, ...)`` input over a
    cohort-installed model: the loss is :class:`repro.nn.cohort.
    CohortCrossEntropyLoss`, whose backward divides by the *per-client*
    batch size, so each client's slice of the input gradient is
    bit-identical to a lone client's, and the loss is the K per-client
    losses.

    ``mu`` adds Eq. 9's strong-convexity term on the feature the head reads
    (:func:`repro.nn.losses.strong_convexity`) to the loss and its input
    gradient; without a head (the last module) there is no such term.
    """

    def __init__(self, model: Module, head: Optional[Module] = None, k: int = 1, mu: float = 0.0):
        check_mu(mu)
        if mu and k > 1:
            raise ValueError("the strong-convexity term is per client: mu needs k = 1")
        self.model = model
        self.head = head
        self.mu = mu if head is not None else 0.0
        self._ce = CrossEntropyLoss() if k == 1 else CohortCrossEntropyLoss(k)

    def _forward(self, x: np.ndarray) -> np.ndarray:
        """Model then head, flattening conv features for plain Linear heads.

        Structured heads (e.g. :class:`repro.core.heads.AuxHead`) accept the
        body output directly and handle their own shaping.
        """
        out = self.model(x)
        if self.head is None:
            return out
        self._reg = strong_convexity(out, self.mu)
        self._flat_shape = None
        if isinstance(self.head, Linear) and out.ndim > 2:
            self._flat_shape = out.shape
            out = out.reshape(out.shape[0], -1)
        return self.head(out)

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
            mu_grad, self._reg = self._reg[1], None  # read once, then dropped
            if mu_grad is not None:
                g = g + mu_grad
        return self.model.backward(g)

    def loss_and_input_grad(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
        loss = self._ce(self._forward(x), y)
        if self.head is not None:
            loss = loss + self._reg[0]
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
