"""ZeRO-style training-memory estimation (Rajbhandari et al., 2020).

``MemReq`` in the paper accounts for *"model parameters, gradients,
optimizer states, and intermediate activations"* (§6.1).  For fp32 SGD with
momentum that is:

    bytes = 4·P (params) + 4·P (grads) + 4·P·s (optimizer state, s=1)
          + 4·B·A (activations, batch size B)
          + 4·B·I (the input batch itself)

The estimator is purely analytic (via :mod:`repro.hardware.profile`): it reads
shapes and counts, never values, so a paper-scale VGG16/ResNet34 built without a
generator (``rng=None`` defers every draw) costs milliseconds and no weight memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.hardware.profile import profile_module
from repro.nn.module import Module

BYTES_PER_SCALAR = 4  # fp32, as in the paper's accounting


@dataclass(frozen=True)
class MemoryModel:
    """Memory accounting policy.

    Attributes
    ----------
    batch_size:
        Local training batch size.
    optimizer_state_factor:
        Copies of the parameters held as optimizer state (1 for SGD with
        momentum, 0 for vanilla SGD, 2 for Adam).
    adversarial_double_batch:
        If True, account for storing *both* the clean and the perturbed
        activations simultaneously (the cost the paper's Eq. 7 discussion
        says makes perturbation-norm training infeasible).  Standard PGD-AT
        reuses the same buffers, so the default is False.
    bytes_per_scalar:
        Storage width of one tensor element; 4 for the paper's fp32
        accounting, 2/1 model the low-bit-training extension the paper's
        §8 names as complementary to FedProphet.
    """

    batch_size: int = 64
    optimizer_state_factor: int = 1
    adversarial_double_batch: bool = False
    bytes_per_scalar: int = BYTES_PER_SCALAR

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.bytes_per_scalar < 1:
            raise ValueError("bytes_per_scalar must be >= 1")

    def bytes_for(self, module: Module, in_shape: Tuple[int, ...]) -> int:
        prof = profile_module(module, in_shape)
        param_state = prof.params * (2 + self.optimizer_state_factor)
        act_mult = 2 if self.adversarial_double_batch else 1
        activations = self.batch_size * act_mult * (prof.activations + int(np.prod(in_shape)))
        return self.bytes_per_scalar * (param_state + activations)


def mem_req_bytes(
    module: Module,
    in_shape: Tuple[int, ...],
    batch_size: int = 64,
    optimizer_state_factor: int = 1,
    adversarial_double_batch: bool = False,
) -> int:
    """Convenience wrapper: estimated training-memory footprint in bytes."""
    model = MemoryModel(
        batch_size=batch_size,
        optimizer_state_factor=optimizer_state_factor,
        adversarial_double_batch=adversarial_double_batch,
    )
    return model.bytes_for(module, in_shape)
