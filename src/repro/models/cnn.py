"""Small plain CNNs (CNN3/CNN4) — the paper's "small model" baselines.

Used in Table 1 (small vs. large model under FAT) and as the smallest
members of the knowledge-distillation model family (Appendix B.2).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.models.atoms import Atom, CascadeModel
from repro.nn.blocks import ConvBNReLU
from repro.nn.init import PrivateRng
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import MaxPool2d


def build_cnn(
    num_conv: int = 3,
    num_classes: int = 10,
    in_shape: Tuple[int, int, int] = (3, 32, 32),
    width_mult: float = 1.0,
    base_channels: int = 32,
    rng: np.random.Generator | None = None,
    bn_cls=BatchNorm2d,
) -> CascadeModel:
    """Build CNN-``num_conv``: stacked conv+pool atoms and a linear head.

    Channel counts double each conv layer starting from ``base_channels``,
    and each conv is followed by a 2x2 max-pool while spatial size permits.
    """
    if num_conv < 1:
        raise ValueError("num_conv must be >= 1")
    rng = rng if rng is not None else PrivateRng()
    atoms: List[Atom] = []
    in_ch, h, w = in_shape
    ch = max(1, int(round(base_channels * width_mult)))
    for i in range(num_conv):
        layers = [ConvBNReLU(in_ch, ch, rng=rng, bn_cls=bn_cls)]
        if h >= 2 and w >= 2:
            layers.append(MaxPool2d(2))
            h, w = h // 2, w // 2
        atoms.append(
            Atom(name=f"conv{i + 1}", module=Sequential(*layers) if len(layers) > 1 else layers[0])
        )
        in_ch = ch
        ch = ch * 2
    atoms.append(
        Atom(
            name="linear",
            module=Sequential(Flatten(), Linear(in_ch * h * w, num_classes, rng=rng)),
        )
    )
    return CascadeModel(
        atoms, in_shape=in_shape, num_classes=num_classes, name=f"cnn{num_conv}"
    )
