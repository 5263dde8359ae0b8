"""Atoms and cascade models.

The paper partitions a backbone into cascaded modules whose unit of
granularity is the "atom": *"a layer or a block such that the backbone model
is constructed as a plain cascade of multiple atoms"* (§6.1).  This module
defines that abstraction and the full-model container built from it.
Constructing one runs nothing: shapes come from the static shape walker, weights no
caller seeded stay undrawn until read (docs/architecture.md § "Shape-first construction").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.profile import profile_module
from repro.nn.module import Module, Sequential


@dataclass
class Atom:
    """One indivisible unit of the backbone cascade.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"conv3"`` or ``"block2"``);
        appears in partition tables (paper Tables 7–8).
    module:
        The computation, as a single :class:`Module`.
    out_shape:
        Per-sample output shape, e.g. ``(C, H, W)`` for feature maps or
        ``(F,)`` after the classifier head; filled in by
        :meth:`CascadeModel.infer_shapes`.
    """

    name: str
    module: Module
    out_shape: Tuple[int, ...] = field(default_factory=tuple)

    @property
    def feature_size(self) -> int:
        return int(np.prod(self.out_shape)) if self.out_shape else 0


class CascadeModel(Module):
    """A backbone expressed as a plain cascade of atoms.

    Behaves as a regular model (forward/backward over the whole chain) while
    exposing the structure FedProphet needs: slicing atom ranges into
    trainable :class:`Sequential` segments, and per-atom output shapes for
    sizing auxiliary heads and estimating memory.
    """

    def __init__(
        self,
        atoms: Sequence[Atom],
        in_shape: Tuple[int, ...],
        num_classes: int,
        name: str = "model",
    ):
        super().__init__()
        if not atoms:
            raise ValueError("a cascade model needs at least one atom")
        self.atoms: List[Atom] = list(atoms)
        self.in_shape = tuple(in_shape)
        self.num_classes = num_classes
        self.name = name
        for i, atom in enumerate(self.atoms):
            setattr(self, f"atom{i}", atom.module)
        self.infer_shapes()

    # -- structure ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.atoms)

    def infer_shapes(self) -> None:
        """Each atom's output shape, read off the static shape walker: nothing is
        executed, and an atom ``profile_module`` does not know is a ``TypeError`` here."""
        shape = self.in_shape
        for atom in self.atoms:
            shape = atom.out_shape = profile_module(atom.module, shape).out_shape

    def segment(self, start: int, stop: int) -> Sequential:
        """A view over atoms ``[start, stop)`` sharing the same parameters."""
        if not (0 <= start < stop <= len(self.atoms)):
            raise IndexError(f"invalid atom range [{start}, {stop})")
        return Sequential(*(a.module for a in self.atoms[start:stop]))

    def feature_shape(self, atom_index: int) -> Tuple[int, ...]:
        """Output shape after atom ``atom_index`` (-1 for the raw input)."""
        if atom_index < 0:
            return self.in_shape
        return self.atoms[atom_index].out_shape

    def feature_size(self, atom_index: int) -> int:
        return int(np.prod(self.feature_shape(atom_index)))

    # -- model behaviour ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        for atom in self.atoms:
            x = atom.module(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for atom in reversed(self.atoms):
            grad_out = atom.module.backward(grad_out)
        return grad_out

    def forward_until(self, x: np.ndarray, stop: int) -> np.ndarray:
        """Forward through atoms ``[0, stop)`` only (the fixed prefix)."""
        for atom in self.atoms[:stop]:
            x = atom.module(x)
        return x

    def atom_names(self) -> List[str]:
        return [a.name for a in self.atoms]
