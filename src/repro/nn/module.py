"""Base classes for the NumPy NN library: Parameter, Module, Sequential.

The design deliberately mirrors a tiny subset of ``torch.nn``: modules own
named parameters and buffers, compose into trees, and expose
``state_dict``/``load_state_dict`` so the federated-learning aggregators can
operate on flat name->array mappings.  Unlike torch there is no autograd
tape: each module implements an explicit ``backward`` that consumes the
gradient of the loss w.r.t. its output and returns the gradient w.r.t. its
input, accumulating parameter gradients along the way.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.dtype import as_compute
from repro.nn.grad_mode import require_unfrozen
from repro.nn.init import PendingDraw


class Parameter:
    """A trainable tensor together with its accumulated gradient.

    Floating-point data is cast to the active compute dtype (see
    :mod:`repro.nn.dtype`) at construction, so the dtype policy is enforced
    no matter which code path creates the parameter.  Built from a ``PendingDraw``
    (a layer's *private* generator) the value is not drawn yet: ``data`` is an
    unset slot until first read, and ``shape``/``size``/``repr`` never draw.
    ``grad`` stays unset until a backward or an optimizer step first reads it
    (as zeros): a model that never trains holds no gradient.

    ``slab``/``slab_grad`` hold the client-batched state of a fusion
    cohort: a ``(K, *data.shape)`` stack of K clients' values for
    this parameter (see :mod:`repro.nn.cohort`).  While a slab is installed
    the layers ignore ``data``/``grad`` and operate on the slab (they read
    them through :meth:`stacked` / :meth:`stacked_grad`); ``data`` keeps the
    last serial value untouched.
    """

    __slots__ = ("data", "grad", "slab", "slab_grad", "_pending")

    def __init__(self, data: np.ndarray | PendingDraw):
        self.slab: Optional[np.ndarray] = None
        self.slab_grad: Optional[np.ndarray] = None
        self._pending = data if isinstance(data, PendingDraw) else None
        if self._pending is None:
            self.data = as_compute(np.asarray(data))
        else:  # ``data`` stays an unset slot until the private generator's flush
            data.rng.queue(self._fill)

    def _fill(self, rng: np.random.Generator) -> None:
        self.data = self._pending.draw(rng)
        self._pending = None  # last: still pending until ``data`` holds the draw

    def __getattr__(self, name: str):
        # Reached only when a slot is unset — the first read of a pending parameter
        # or of a gradient; a set slot never comes here (unlike a property's getter).
        if name == "grad":  # nothing has written one yet: zeros, kept from now on
            self.grad = grad = np.zeros_like(self.data)
            return grad
        if name != "data":
            raise AttributeError(name)
        pending = self._pending  # read once: a concurrent flush clears it
        if pending is not None:
            pending.rng.flush()
        return object.__getattribute__(self, name)

    def __getstate__(self):
        # Copies and pickles carry values, never a gradient or a pending draw: ``data``
        # is read first, which makes every queued draw and leaves ``_pending`` None.
        return None, {slot: getattr(self, slot) for slot in self.__slots__ if slot != "grad"}

    @property
    def shape(self) -> Tuple[int, ...]:
        return (self._pending or self.data).shape

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def stacked(self) -> np.ndarray:
        """The values as a ``(K, *shape)`` stack: the cohort slab, else a K=1 view
        of ``data`` — one kernel per layer, serial its K=1 case."""
        return self.data[None] if self.slab is None else self.slab

    def stacked_grad(self) -> np.ndarray:
        """The gradients, stacked as :meth:`stacked` (``grad`` allocated on first read)."""
        return self.grad[None] if self.slab is None else self.slab_grad

    def zero_grad(self) -> None:
        with suppress(AttributeError):  # an unwritten gradient is zeros already: allocate none
            object.__getattribute__(self, "grad")[...] = 0.0
        if self.slab_grad is not None:
            self.slab_grad[...] = 0.0

    def __repr__(self) -> str:
        described = self._pending or self.data
        return f"Parameter(shape={described.shape}, dtype={described.dtype})"


def _require_shape(key: str, got: Tuple[int, ...], want: Tuple[int, ...]) -> None:
    # An in-place or replacing write would broadcast (or silently resize) otherwise.
    if got != want:
        raise ValueError(f"shape mismatch for {key!r}: got {got}, expected {want}")


class Module:
    """Base class for all layers and models.

    Subclasses register parameters/buffers/children simply by assigning them
    as attributes; ``__setattr__`` sorts them into the right registry.  The
    contract is:

    * ``forward(x)`` caches whatever the backward pass needs and returns the
      output,
    * ``backward(grad_out)`` accumulates parameter gradients (into
      ``Parameter.grad``) and returns the gradient w.r.t. the forward input.

    ``backward`` must be called at most once per ``forward`` (caches are
    single-slot), which is all the training loops in this repo need.
    """

    # Cohort width, set on the model a cohort is installed on (repro.nn.cohort):
    # 0 = serial, K > 0 = (K·B, ...) activations over per-client parameter
    # slabs.  A class-level default, so it costs no instance anything.
    _cohort_k: int = 0

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "_slab_buffers", {})
        object.__setattr__(self, "training", True)

    # -- attribute routing ------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable tensor (e.g. BN running statistics)."""
        self._buffers[name] = as_compute(np.asarray(value))
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        old = self._buffers[name]
        value = np.asarray(value, dtype=old.dtype)
        _require_shape(name, value.shape, old.shape)
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- interface ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- traversal ---------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        return iter(self._children.values())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._children.values():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._params.items():
            yield prefix + name, p
        for cname, child in self._children.items():
            yield from child.named_parameters(prefix + cname + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for cname, child in self._children.items():
            yield from child.named_buffers(prefix + cname + ".")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes & grads -----------------------------------------------------
    def train(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", True)
        return self

    def eval(self) -> "Module":
        for m in self.modules():
            object.__setattr__(m, "training", False)
        return self

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialization ---------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat name -> array copy of all parameters and buffers."""
        out: Dict[str, np.ndarray] = {}
        for name, p in self.named_parameters():
            out[name] = p.data.copy()
        for name, b in self.named_buffers():
            out[name] = b.copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        require_unfrozen("load_state_dict")
        param_index = dict(self.named_parameters())
        missing = []
        for name, p in param_index.items():
            if name in state:
                _require_shape(name, np.shape(state[name]), p.shape)
                p.data[...] = state[name]
            elif strict:
                missing.append(name)
        buffer_owners = self._buffer_owners()
        for name, (owner, local) in buffer_owners.items():
            if name in state:
                owner.set_buffer(local, state[name].copy())
            elif strict:
                missing.append(name)
        if missing:
            raise KeyError(f"state dict missing keys: {missing}")

    def _buffer_owners(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        out: Dict[str, Tuple[Module, str]] = {}
        for name in self._buffers:
            out[prefix + name] = (self, name)
        for cname, child in self._children.items():
            out.update(child._buffer_owners(prefix + cname + "."))
        return out


class Identity(Module):
    """Pass-through layer (used for absent residual downsample paths)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Sequential(Module):
    """Ordered composition of modules, with chained backward."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for i, layer in enumerate(layers):
            setattr(self, f"layer{i}", layer)
            self.layers.append(layer)

    def append(self, layer: Module) -> None:
        idx = len(self.layers)
        setattr(self, f"layer{idx}", layer)
        self.layers.append(layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx) -> Module:
        if isinstance(idx, slice):
            return Sequential(*self.layers[idx])
        return self.layers[idx]

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out
