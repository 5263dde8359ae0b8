"""Loss functions: cross-entropy and the paper's strong-convexity loss.

FedProphet's early-exit loss (Eq. 9) is

    l_m = CE(W_m^T z_m + b_m, y) + (mu/2) * ||z_m||_2^2

where ``z_m`` is the module's output feature and ``(W_m, b_m)`` a linear
auxiliary head.  :class:`StrongConvexityLoss` evaluates this loss given the
feature and the head, and returns the gradient w.r.t. the *feature* (which
the cascade trainer backpropagates into the module) while also accumulating
the head's parameter gradients.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.linear import Linear


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilised."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


class CrossEntropyLoss:
    """Mean softmax cross-entropy over a batch of integer labels."""

    #: Clients stacked on the batch axis: the mean runs over each client's
    #: own ``N / k`` rows (:class:`repro.nn.cohort.CohortCrossEntropyLoss`).
    k = 1

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return float(self._losses(logits, labels)[0])

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss w.r.t. the logits."""
        return self._logit_grad()

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)

    # The one body of both loss classes; each keeps its own ``forward`` and
    # ``backward`` so a wrapper on one never runs inside the other.
    def _losses(self, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """The ``k`` per-client mean losses, each over its contiguous slice."""
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
        n = logits.shape[0]
        if n % self.k:
            raise ValueError(
                f"a batch of n={n} rows does not split into k={self.k} equal client slices"
            )
        labels = np.asarray(labels)
        self._probs = softmax(logits)
        self._labels = labels
        picked = log_softmax(logits)[np.arange(n), labels]
        b = n // self.k
        return np.array([float(-picked[i * b : (i + 1) * b].mean()) for i in range(self.k)])

    def _logit_grad(self) -> np.ndarray:
        # Divided by the per-client batch size, so each client's slice is its
        # own mean loss's gradient.
        n = self._probs.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        return grad / (n // self.k)


class StrongConvexityLoss:
    """FedProphet's regularized early-exit loss (Eq. 9).

    Parameters
    ----------
    head:
        The linear auxiliary output model ``theta_m``.
    mu:
        Strong-convexity coefficient; ``mu = 0`` recovers vanilla cascade
        learning's early-exit loss.
    """

    def __init__(self, head: Linear, mu: float):
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.head = head
        self.mu = mu
        self._ce = CrossEntropyLoss()

    def forward(self, features: np.ndarray, labels: np.ndarray) -> float:
        if features.ndim != 2:
            features = features.reshape(features.shape[0], -1)
        self._features = features
        logits = self.head(features)
        ce = self._ce(logits, labels)
        reg = 0.5 * self.mu * float((features**2).sum(axis=1).mean())
        return ce + reg

    def backward(self, accumulate_head_grads: bool = True) -> np.ndarray:
        """Gradient w.r.t. the input features (mean-reduced over batch)."""
        g_logits = self._ce.backward()
        if accumulate_head_grads:
            g_feat = self.head.backward(g_logits)
        else:
            g_feat = g_logits @ self.head.weight.data
        n = self._features.shape[0]
        return g_feat + (self.mu / n) * self._features

    def __call__(self, features: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(features, labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of a logits batch."""
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())
