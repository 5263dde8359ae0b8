"""Datasets, loaders, and federated partitioning.

CIFAR-10 and Caltech-256 cannot be downloaded in this offline environment,
so :mod:`repro.data.synthetic` generates class-conditional image tasks with
the same tensor interface (3×H×W floats in [0,1], integer labels) and a
controllable difficulty knob.  The partitioners reproduce the paper's
statistical heterogeneity: 80 % of each client's data drawn from ~20 % of
the classes (Shah et al., 2021).
"""

from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.synthetic import SyntheticImageTask, make_cifar10_like, make_caltech256_like
from repro.data.partition import (
    VirtualPartition,
    pathological_partition,
    public_private_split,
)

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "SyntheticImageTask",
    "make_cifar10_like",
    "make_caltech256_like",
    "VirtualPartition",
    "pathological_partition",
    "public_private_split",
]
