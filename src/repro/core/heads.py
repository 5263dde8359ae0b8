"""Auxiliary output models θ_m for cascade learning.

The paper's auxiliary model is "a linear layer (i.e., a fully connected
layer)" (§5.1).  For convolutional features, cascade-learning practice
(Belilovsky et al., 2020) — and the paper's own Table 7–8 memory numbers,
which leave no room for a dense 51M-parameter head on early ResNet
features — pools spatially before the linear layer.  ``AuxHead`` therefore
applies global average pooling to 4-D features and a plain linear map to
flat ones.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import channel_last, channel_sum
from repro.nn.linear import Linear
from repro.nn.module import Module


def head_input_dim(feature_shape: Tuple[int, ...]) -> int:
    """Input width of the aux head for a feature of the given shape.

    Conv features (C, H, W) are pooled to C channels; flat features pass
    through unchanged.
    """
    if len(feature_shape) == 3:
        return feature_shape[0]
    return int(np.prod(feature_shape))


class AuxHead(Module):
    """Global-average-pool (for conv features) + linear classifier.

    ``backward`` returns the gradient w.r.t. the *unpooled* input feature,
    which the cascade trainer backpropagates into the module; the linear
    layer's parameter gradients accumulate as usual.
    """

    def __init__(
        self,
        feature_shape: Tuple[int, ...],
        num_classes: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.feature_shape = tuple(feature_shape)
        self.pooled = len(self.feature_shape) == 3
        self.linear = Linear(head_input_dim(self.feature_shape), num_classes, rng=rng)

    @property
    def in_features(self) -> int:
        return self.linear.in_features

    @property
    def out_features(self) -> int:
        return self.linear.out_features

    def forward(self, z: np.ndarray) -> np.ndarray:
        if self.pooled:
            if z.ndim != 4:
                raise ValueError(f"expected 4-D conv feature, got shape {z.shape}")
            self._spatial = z.shape[2:]
            n, c, h, w = z.shape
            pooled = channel_sum(channel_last(z).reshape(n, -1, c)) / (h * w)
        else:
            pooled = z.reshape(z.shape[0], -1)
            self._flat_shape = z.shape
        return self.linear(pooled)

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        g = self.linear.backward(grad_logits)
        if self.pooled:
            h, w = self._spatial
            g = g[:, :, None, None] / float(h * w)
            return np.broadcast_to(
                g, (g.shape[0], g.shape[1], h, w)
            ).copy()
        return g.reshape(self._flat_shape)
