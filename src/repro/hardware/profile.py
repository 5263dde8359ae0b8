"""Static profiler: walk a module tree and count params/activations/FLOPs.

``profile_module(module, in_shape)`` symbolically executes a module on a
per-sample shape and returns

* ``params`` — trainable scalar count,
* ``activations`` — per-sample scalars of every intermediate output that a
  training step must hold for the backward pass,
* ``flops`` — forward floating-point operations per sample (MACs × 2),
* ``out_shape`` — the per-sample output shape.

Composite modules (Sequential, ConvBNReLU, BasicBlock, CascadeModel) are
traversed structurally, so the profiler works on any model this repo
builds without executing any arithmetic or reading any parameter *value*:
a model built without a generator is profiled before a weight is drawn.  It is
the repo's one shape walker — ``CascadeModel.infer_shapes`` reads it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.nn.activations import LeakyReLU, ReLU, Tanh
from repro.nn.blocks import BasicBlock, ConvBNReLU
from repro.nn.conv import Conv2d
from repro.nn.functional import conv_output_size
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Identity, Module, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d


@dataclass(frozen=True)
class ModuleProfile:
    """Static cost summary of one module on a given input shape."""

    params: int
    activations: int
    flops: int
    out_shape: Tuple[int, ...]

    def __add__(self, other: "ModuleProfile") -> "ModuleProfile":
        return ModuleProfile(
            params=self.params + other.params,
            activations=self.activations + other.activations,
            flops=self.flops + other.flops,
            out_shape=other.out_shape,
        )


def _numel(shape: Tuple[int, ...]) -> int:
    return int(np.prod(shape))


def _require_fit(module: Module, fits: bool, in_shape: Tuple[int, ...]) -> None:
    # What a dry-run forward would have tripped over, caught while walking.
    if not fits:
        raise ValueError(f"{type(module).__name__} does not fit a per-sample input {in_shape}")


def profile_module(module: Module, in_shape: Tuple[int, ...]) -> ModuleProfile:
    """Profile ``module`` on a single sample of shape ``in_shape``."""
    # --- primitives -------------------------------------------------------
    if isinstance(module, Conv2d):
        c, h, w = in_shape
        _require_fit(module, c == module.in_channels, in_shape)
        k, s, p = module.kernel_size, module.stride, module.padding
        oh = conv_output_size(h, k, s, p)
        ow = conv_output_size(w, k, s, p)
        out_shape = (module.out_channels, oh, ow)
        macs = module.out_channels * oh * ow * module.in_channels * k * k
        flops = 2 * macs + (_numel(out_shape) if module.use_bias else 0)
        return ModuleProfile(module.num_parameters(), _numel(out_shape), flops, out_shape)
    if isinstance(module, Linear):
        _require_fit(module, in_shape == (module.in_features,), in_shape)
        out_shape = (module.out_features,)
        flops = 2 * module.in_features * module.out_features
        if module.use_bias:
            flops += module.out_features
        return ModuleProfile(module.num_parameters(), module.out_features, flops, out_shape)
    if isinstance(module, BatchNorm2d):  # includes DualBatchNorm2d
        _require_fit(module, in_shape[0] == module.num_features, in_shape)
        return ModuleProfile(
            module.num_parameters(), _numel(in_shape), 4 * _numel(in_shape), in_shape
        )
    if isinstance(module, (ReLU, LeakyReLU, Tanh)):
        # Activations count 0: ReLU-family ops run in place in practice, and
        # the paper's MemReq figures are only reproducible under in-place
        # accounting (see docs/architecture.md).
        return ModuleProfile(0, 0, _numel(in_shape), in_shape)
    if isinstance(module, (MaxPool2d, AvgPool2d)):
        c, h, w = in_shape
        k, s, p = module.kernel_size, module.stride, module.padding
        oh = conv_output_size(h, k, s, p)
        ow = conv_output_size(w, k, s, p)
        out_shape = (c, oh, ow)
        return ModuleProfile(0, _numel(out_shape), _numel(out_shape) * k * k, out_shape)
    if isinstance(module, GlobalAvgPool2d):
        c = in_shape[0]
        return ModuleProfile(0, c, _numel(in_shape), (c,))
    if isinstance(module, Flatten):
        return ModuleProfile(0, 0, 0, (_numel(in_shape),))
    if isinstance(module, Identity):
        return ModuleProfile(0, 0, 0, in_shape)

    # --- composites ---------------------------------------------------------
    if isinstance(module, ConvBNReLU):
        prof = profile_module(module.conv, in_shape)
        prof = prof + profile_module(module.bn, prof.out_shape)
        return prof + profile_module(module.act, prof.out_shape)
    if isinstance(module, BasicBlock):
        main = profile_module(module.conv1, in_shape)
        main = main + profile_module(module.bn1, main.out_shape)
        main = main + profile_module(module.act1, main.out_shape)
        main = main + profile_module(module.conv2, main.out_shape)
        main = main + profile_module(module.bn2, main.out_shape)
        skip = profile_module(module.downsample, in_shape)
        add_flops = _numel(main.out_shape)
        act = profile_module(module.act2, main.out_shape)
        return ModuleProfile(
            params=main.params + skip.params + act.params,
            activations=main.activations + skip.activations + act.activations,
            flops=main.flops + skip.flops + add_flops + act.flops,
            out_shape=act.out_shape,
        )
    if isinstance(module, Sequential):
        prof = ModuleProfile(0, 0, 0, in_shape)
        for layer in module.layers:
            prof = prof + profile_module(layer, prof.out_shape)
        return prof

    # CascadeModel and anything else that exposes ordered children
    from repro.models.atoms import CascadeModel  # local import: avoid cycle

    if isinstance(module, CascadeModel):
        prof = ModuleProfile(0, 0, 0, in_shape)
        for atom in module.atoms:
            prof = prof + profile_module(atom.module, prof.out_shape)
        return prof

    raise TypeError(f"cannot profile module of type {type(module).__name__}")
