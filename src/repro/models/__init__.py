"""Model zoo: cascade-decomposable VGG / ResNet / plain-CNN families.

Every architecture is expressed as a :class:`~repro.models.atoms.CascadeModel`
— an ordered list of "atoms" (the indivisible units of the paper's model
partitioner, Algorithm 1).  A VGG atom is a conv layer (with any directly
following pool); a ResNet atom is a whole residual block; classifier atoms
hold the flatten + linear tail.
"""

from repro.models.atoms import Atom, CascadeModel
from repro.models.vgg import build_vgg, VGG_CONFIGS
from repro.models.resnet import build_resnet, RESNET_CONFIGS
from repro.models.cnn import build_cnn
from repro.models.zoo import build_model

__all__ = [
    "Atom",
    "CascadeModel",
    "build_vgg",
    "build_resnet",
    "build_cnn",
    "build_model",
    "VGG_CONFIGS",
    "RESNET_CONFIGS",
]
