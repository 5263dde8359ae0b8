"""VGG-family builders (VGG11/13/16), cascade-decomposed.

The configs follow Simonyan & Zisserman (2014); ``width_mult`` scales every
channel count so the same topology runs at paper scale (for memory/FLOPs
analytics) and at NumPy-trainable scale (for accuracy experiments).  Each
"atom" is one conv layer together with any max-pool that immediately follows
it — matching the per-layer granularity of paper Table 7.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.models.atoms import Atom, CascadeModel
from repro.nn.activations import ReLU
from repro.nn.blocks import ConvBNReLU
from repro.nn.init import PrivateRng
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Module, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import MaxPool2d

# 'M' denotes a 2x2 max-pool attached to the preceding conv atom.
VGG_CONFIGS: Dict[str, List[Union[int, str]]] = {
    "vgg11": [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg13": [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    "vgg16": [
        64, 64, "M",
        128, 128, "M",
        256, 256, 256, "M",
        512, 512, 512, "M",
        512, 512, 512, "M",
    ],
}


def _scaled(channels: int, width_mult: float) -> int:
    return max(1, int(round(channels * width_mult)))


def build_vgg(
    arch: str = "vgg16",
    num_classes: int = 10,
    in_shape: Tuple[int, int, int] = (3, 32, 32),
    width_mult: float = 1.0,
    classifier_width: int = 512,
    batch_norm: bool = True,
    rng: np.random.Generator | None = None,
    bn_cls=BatchNorm2d,
) -> CascadeModel:
    """Build a VGG variant as a :class:`CascadeModel`.

    The classifier is the paper's three-linear-layer tail; its hidden width
    is scaled by ``width_mult`` as well so narrow variants stay balanced.
    """
    if arch not in VGG_CONFIGS:
        raise ValueError(f"unknown VGG arch {arch!r}; options: {sorted(VGG_CONFIGS)}")
    rng = rng if rng is not None else PrivateRng()
    cfg = VGG_CONFIGS[arch]

    atoms: List[Atom] = []
    in_ch, h, w = in_shape
    conv_idx = 0
    i = 0
    while i < len(cfg):
        item = cfg[i]
        assert isinstance(item, int), "config must not start a group with 'M'"
        out_ch = _scaled(item, width_mult)
        conv_idx += 1
        layers: List[Module] = [
            ConvBNReLU(in_ch, out_ch, batch_norm=batch_norm, rng=rng, bn_cls=bn_cls)
        ]
        in_ch = out_ch
        i += 1
        if i < len(cfg) and cfg[i] == "M":
            # Skip the pool once the spatial size cannot halve (lets the
            # same topology run on sub-32px inputs for NumPy-scale tests).
            if h >= 2 and w >= 2:
                layers.append(MaxPool2d(2))
                h, w = h // 2, w // 2
            i += 1
        module = layers[0] if len(layers) == 1 else Sequential(*layers)
        atoms.append(Atom(name=f"conv{conv_idx}", module=module))

    hidden = _scaled(classifier_width, width_mult)
    feat = in_ch * h * w
    atoms.append(
        Atom(
            name="linear1",
            module=Sequential(Flatten(), Linear(feat, hidden, rng=rng), ReLU()),
        )
    )
    atoms.append(
        Atom(name="linear2", module=Sequential(Linear(hidden, hidden, rng=rng), ReLU()))
    )
    atoms.append(Atom(name="linear3", module=Linear(hidden, num_classes, rng=rng)))
    return CascadeModel(atoms, in_shape=in_shape, num_classes=num_classes, name=arch)
