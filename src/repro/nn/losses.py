"""Loss functions: cross-entropy and the paper's strong-convexity loss.

FedProphet's early-exit loss (Eq. 9) is

    l_m = CE(W_m^T z_m + b_m, y) + (mu/2) * ||z_m||_2^2

where ``z_m`` is the module's output feature and ``(W_m, b_m)`` a linear
auxiliary head.  :func:`strong_convexity` is the one body of the μ term and
its gradient ``(mu/n)·z_m``; :class:`StrongConvexityLoss` evaluates the
whole loss given the feature and the head, and returns the gradient w.r.t.
the *feature* while also accumulating the head's parameter gradients.
"""

from __future__ import annotations

from typing import Optional, Tuple

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


def check_mu(mu: float) -> float:
    """``mu``, refused unless it is a finite number >= 0."""
    if not 0 <= mu < np.inf:
        raise ValueError(f"mu must be a finite number >= 0, got {mu}")
    return mu


def strong_convexity(z: np.ndarray, mu: float) -> Tuple[float, Optional[np.ndarray]]:
    """Eq. 9's term ``(mu/2)·mean_i ||z_i||^2`` on features ``z`` and its
    gradient ``(mu/n)·z``: the one body of both (``(0.0, None)`` at mu = 0)."""
    if not mu:
        return 0.0, None
    n = z.shape[0]
    return 0.5 * mu * float((z.reshape(n, -1) ** 2).sum()) / n, (mu / n) * z


class StrongConvexityLoss:
    """FedProphet's regularized early-exit loss (Eq. 9) with a linear head
    ``theta_m`` (conv features are flattened for it); ``mu = 0`` recovers
    vanilla cascade learning's early-exit loss.  Training reaches the same
    :func:`strong_convexity` through ``ModelWithLoss(segment, head, mu=...)``.
    """

    def __init__(self, head: Linear, mu: float):
        self.head = head
        self.mu = check_mu(mu)
        self._ce = CrossEntropyLoss()

    def forward(self, features: np.ndarray, labels: np.ndarray) -> float:
        self._shape = features.shape
        self._reg = strong_convexity(features, self.mu)
        logits = self.head(features.reshape(features.shape[0], -1))
        return self._ce(logits, labels) + self._reg[0]

    def backward(self, accumulate_head_grads: bool = True) -> np.ndarray:
        """Gradient w.r.t. the input features (mean-reduced over batch)."""
        g_logits = self._ce.backward()
        if accumulate_head_grads:
            g_feat = self.head.backward(g_logits)
        else:
            g_feat = g_logits @ self.head.weight.data
        g_feat = g_feat.reshape(self._shape)
        return g_feat if self._reg[1] is None else g_feat + self._reg[1]

    def __call__(self, features: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(features, labels)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of a logits batch."""
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())
