"""ResNet-family builders (ResNet10/18/34), cascade-decomposed.

The "atom" of a ResNet is a whole :class:`BasicBlock` (the skip connection
cannot be severed), plus a stem conv atom and a classifier atom — exactly
the granularity of paper Table 8.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.models.atoms import Atom, CascadeModel
from repro.nn.blocks import BasicBlock, ConvBNReLU
from repro.nn.init import PrivateRng
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d

# Blocks per stage for each variant (BasicBlock only).
RESNET_CONFIGS: Dict[str, List[int]] = {
    "resnet10": [1, 1, 1, 1],
    "resnet18": [2, 2, 2, 2],
    "resnet34": [3, 4, 6, 3],
}

_STAGE_CHANNELS = [64, 128, 256, 512]


def _scaled(channels: int, width_mult: float) -> int:
    return max(1, int(round(channels * width_mult)))


def build_resnet(
    arch: str = "resnet34",
    num_classes: int = 256,
    in_shape: Tuple[int, int, int] = (3, 224, 224),
    width_mult: float = 1.0,
    rng: np.random.Generator | None = None,
    bn_cls=BatchNorm2d,
) -> CascadeModel:
    """Build a ResNet variant as a :class:`CascadeModel`.

    For large inputs (ImageNet-style, >= 64 px) the stem uses a 7x7 stride-2
    conv followed by a 3x3 stride-2 max-pool; for small inputs (CIFAR-style)
    it degrades to a 3x3 stride-1 conv, the standard CIFAR-ResNet stem.
    """
    if arch not in RESNET_CONFIGS:
        raise ValueError(f"unknown ResNet arch {arch!r}; options: {sorted(RESNET_CONFIGS)}")
    rng = rng if rng is not None else PrivateRng()
    blocks_per_stage = RESNET_CONFIGS[arch]

    atoms: List[Atom] = []
    stem_ch = _scaled(64, width_mult)
    _, h, _ = in_shape
    if h >= 64:
        stem = Sequential(
            ConvBNReLU(
                in_shape[0], stem_ch, kernel_size=7, stride=2, padding=3,
                rng=rng, bn_cls=bn_cls,
            ),
            MaxPool2d(3, stride=2, padding=1),
        )
    else:
        stem = ConvBNReLU(in_shape[0], stem_ch, kernel_size=3, stride=1, padding=1,
                          rng=rng, bn_cls=bn_cls)
    atoms.append(Atom(name="conv1", module=stem))

    in_ch = stem_ch
    block_idx = 0
    for stage, num_blocks in enumerate(blocks_per_stage):
        out_ch = _scaled(_STAGE_CHANNELS[stage], width_mult)
        for b in range(num_blocks):
            stride = 2 if (stage > 0 and b == 0) else 1
            block_idx += 1
            atoms.append(
                Atom(
                    name=f"block{block_idx}",
                    module=BasicBlock(in_ch, out_ch, stride=stride, rng=rng, bn_cls=bn_cls),
                )
            )
            in_ch = out_ch

    atoms.append(
        Atom(
            name="linear",
            module=Sequential(GlobalAvgPool2d(), Linear(in_ch, num_classes, rng=rng)),
        )
    )
    return CascadeModel(atoms, in_shape=in_shape, num_classes=num_classes, name=arch)
