"""Optimizers for the NumPy NN library."""

from repro.optim.sgd import SGD

__all__ = ["SGD"]
