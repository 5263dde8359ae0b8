"""Model registry: ``build_model`` builds any architecture by name."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.models.atoms import CascadeModel
from repro.models.cnn import build_cnn
from repro.models.resnet import build_resnet
from repro.models.vgg import build_vgg
from repro.nn.normalization import BatchNorm2d


def build_model(
    name: str,
    num_classes: int,
    in_shape: Tuple[int, int, int],
    width_mult: float = 1.0,
    rng: np.random.Generator | None = None,
    bn_cls=BatchNorm2d,
) -> CascadeModel:
    """Build any registered architecture by name."""
    name = name.lower()
    if name.startswith("vgg"):
        return build_vgg(
            name, num_classes=num_classes, in_shape=in_shape,
            width_mult=width_mult, rng=rng, bn_cls=bn_cls,
        )
    if name.startswith("resnet"):
        return build_resnet(
            name, num_classes=num_classes, in_shape=in_shape,
            width_mult=width_mult, rng=rng, bn_cls=bn_cls,
        )
    if name.startswith("cnn"):
        return build_cnn(
            int(name[3:]), num_classes=num_classes, in_shape=in_shape,
            width_mult=width_mult, rng=rng, bn_cls=bn_cls,
        )
    raise ValueError(f"unknown model {name!r}")

