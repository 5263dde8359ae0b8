"""Width-sliced sub-model extraction for partial-training FL baselines.

HeteroFL (Diao et al., 2020), FedDropout (Wen et al., 2022) and FedRolex
(Alam et al., 2022) all let a memory-poor client train a *narrow* copy of
the global model: every conv/linear layer keeps a subset of its channels,
chosen by a per-method strategy:

* ``static``  — always the first k channels (HeteroFL),
* ``random``  — a fresh uniform subset per client per round (FedDropout),
* ``rolling`` — a window advancing with the round index (FedRolex).

``extract_submodel`` returns a sliced copy plus an index map;
``scatter_submodel_state`` maps trained sub-parameters back into
global-shaped arrays with a coverage mask for partial averaging (Eq. 16 of
the paper generalises the same rule).

Residual blocks with identity skips constrain the block's output channel
set to equal its input set (the addition must stay aligned), which all
three published methods also require.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.hardware.profile import profile_module
from repro.models.atoms import Atom, CascadeModel
from repro.nn.activations import LeakyReLU, ReLU, Tanh
from repro.nn.dtype import accum_dtype
from repro.nn.blocks import BasicBlock, ConvBNReLU
from repro.nn.conv import Conv2d
from repro.nn.linear import Flatten, Linear
from repro.nn.module import Identity, Module, Parameter, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d

IndexMap = Dict[str, Tuple[np.ndarray, ...]]


@dataclass
class SubmodelSlice:
    """A sliced sub-model plus the bookkeeping to scatter it back."""

    model: CascadeModel
    index_map: IndexMap  # state-dict key -> per-axis global indices
    ratio: float


class _SliceContext:
    def __init__(
        self,
        strategy: str,
        ratio: float,
        rng: np.random.Generator,
        round_idx: int,
        output_linear_id: int,
    ):
        if strategy not in ("static", "random", "rolling"):
            raise ValueError(f"unknown slicing strategy {strategy!r}")
        if not (0.0 < ratio <= 1.0):
            raise ValueError("ratio must be in (0, 1]")
        self.strategy = strategy
        self.ratio = ratio
        self.rng = rng
        self.round_idx = round_idx
        self.output_linear_id = output_linear_id
        self.index_map: IndexMap = {}

    def select(self, total: int) -> np.ndarray:
        keep = max(1, int(round(self.ratio * total)))
        if keep >= total:
            return np.arange(total)
        if self.strategy == "static":
            return np.arange(keep)
        if self.strategy == "random":
            return np.sort(self.rng.choice(total, size=keep, replace=False))
        start = self.round_idx % total
        return np.sort(np.arange(start, start + keep) % total)


def _find_output_linear(model: CascadeModel) -> int:
    """id() of the final classifier Linear (its outputs are never sliced)."""
    last = None
    for m in model.modules():
        if isinstance(m, Linear):
            last = m
    if last is None:
        raise ValueError("model has no Linear layer")
    return id(last)


def _slice_conv(
    conv: Conv2d, in_idx: np.ndarray, out_idx: np.ndarray, name: str, ctx: _SliceContext
) -> Conv2d:
    new = Conv2d(
        len(in_idx),
        len(out_idx),
        conv.kernel_size,
        stride=conv.stride,
        padding=conv.padding,
        bias=conv.use_bias,
    )
    # A fresh Parameter of the slice: the layer's own (deferred) draw is never made.
    new.weight = Parameter(conv.weight.data[np.ix_(out_idx, in_idx)])
    ctx.index_map[name + ".weight"] = (out_idx, in_idx)
    if conv.use_bias:
        new.bias = Parameter(conv.bias.data[out_idx])
        ctx.index_map[name + ".bias"] = (out_idx,)
    return new


def _slice_bn(bn: BatchNorm2d, idx: np.ndarray, name: str, ctx: _SliceContext) -> BatchNorm2d:
    new = type(bn)(len(idx), momentum=bn.momentum, eps=bn.eps)
    new.weight.data[...] = bn.weight.data[idx]
    new.bias.data[...] = bn.bias.data[idx]
    ctx.index_map[name + ".weight"] = (idx,)
    ctx.index_map[name + ".bias"] = (idx,)
    for buf_name, buf in bn._buffers.items():
        new.set_buffer(buf_name, buf[idx].copy())
        ctx.index_map[f"{name}.{buf_name}"] = (idx,)
    return new


def _slice_linear(
    linear: Linear, in_idx: np.ndarray, name: str, ctx: _SliceContext
) -> Tuple[Linear, np.ndarray]:
    if id(linear) == ctx.output_linear_id:
        out_idx = np.arange(linear.out_features)
    else:
        out_idx = ctx.select(linear.out_features)
    new = Linear(len(in_idx), len(out_idx), bias=linear.use_bias)
    new.weight = Parameter(linear.weight.data[np.ix_(out_idx, in_idx)])
    ctx.index_map[name + ".weight"] = (out_idx, in_idx)
    if linear.use_bias:
        new.bias = Parameter(linear.bias.data[out_idx])
        ctx.index_map[name + ".bias"] = (out_idx,)
    return new, out_idx


def _slice(
    module: Module,
    in_shape: Tuple[int, ...],
    in_idx: np.ndarray,
    name: str,
    ctx: _SliceContext,
) -> Tuple[Module, Tuple[int, ...], np.ndarray]:
    """Recursively slice ``module``; returns (sub, global_out_shape, out_idx).

    ``in_shape`` tracks the *global* tensor shape, read off the one shape
    walker (spatial dims are shared between global and sub model); ``in_idx``
    are the kept global channel (or feature) indices of the module's input.
    """
    if isinstance(module, Conv2d):
        out_idx = ctx.select(module.out_channels)
        new = _slice_conv(module, in_idx, out_idx, name, ctx)
        return new, profile_module(module, in_shape).out_shape, out_idx
    if isinstance(module, BatchNorm2d):
        return _slice_bn(module, in_idx, name, ctx), in_shape, in_idx
    if isinstance(module, (ReLU, LeakyReLU, Tanh, Identity)):
        return type(module)(), in_shape, in_idx
    if isinstance(module, (MaxPool2d, AvgPool2d)):
        new = type(module)(module.kernel_size, stride=module.stride, padding=module.padding)
        return new, profile_module(module, in_shape).out_shape, in_idx
    if isinstance(module, GlobalAvgPool2d):
        return GlobalAvgPool2d(), (in_shape[0],), in_idx
    if isinstance(module, Flatten):
        c, h, w = in_shape
        spatial = h * w
        expanded = (in_idx[:, None] * spatial + np.arange(spatial)[None, :]).reshape(-1)
        return Flatten(), (c * spatial,), expanded
    if isinstance(module, Linear):
        new, out_idx = _slice_linear(module, in_idx, name, ctx)
        return new, (module.out_features,), out_idx
    if isinstance(module, Sequential):
        subs: List[Module] = []
        shape, idx = in_shape, in_idx
        for i, layer in enumerate(module.layers):
            sub, shape, idx = _slice(layer, shape, idx, f"{name}.layer{i}", ctx)
            subs.append(sub)
        return Sequential(*subs), shape, idx
    if isinstance(module, ConvBNReLU):
        new = ConvBNReLU(1, 1, batch_norm=not isinstance(module.bn, Identity))
        conv_out_idx = ctx.select(module.conv.out_channels)
        new.conv = _slice_conv(module.conv, in_idx, conv_out_idx, f"{name}.conv", ctx)
        if isinstance(module.bn, BatchNorm2d):
            new.bn = _slice_bn(module.bn, conv_out_idx, f"{name}.bn", ctx)
        return new, profile_module(module, in_shape).out_shape, conv_out_idx
    if isinstance(module, BasicBlock):
        identity_skip = isinstance(module.downsample, Identity)
        if identity_skip:
            out_idx = in_idx  # the addition forces matching channel sets
        else:
            out_idx = ctx.select(module.conv2.out_channels)
        mid_idx = ctx.select(module.conv1.out_channels)
        new = BasicBlock(len(in_idx), len(out_idx), stride=1)  # rebuilt below
        new.conv1 = _slice_conv(module.conv1, in_idx, mid_idx, f"{name}.conv1", ctx)
        new.bn1 = _slice_bn(module.bn1, mid_idx, f"{name}.bn1", ctx)
        new.conv2 = _slice_conv(module.conv2, mid_idx, out_idx, f"{name}.conv2", ctx)
        new.bn2 = _slice_bn(module.bn2, out_idx, f"{name}.bn2", ctx)
        if identity_skip:
            new.downsample = Identity()
        else:
            ds_conv = module.downsample.layers[0]
            ds_bn = module.downsample.layers[1]
            new.downsample = Sequential(
                _slice_conv(ds_conv, in_idx, out_idx, f"{name}.downsample.layer0", ctx),
                _slice_bn(ds_bn, out_idx, f"{name}.downsample.layer1", ctx),
            )
        return new, profile_module(module, in_shape).out_shape, out_idx
    raise TypeError(f"cannot slice module of type {type(module).__name__}")


def extract_submodel(
    model: CascadeModel,
    ratio: float,
    strategy: str,
    round_idx: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> SubmodelSlice:
    """Extract a width-``ratio`` sub-model of ``model``.

    The sub-model is a fully functional :class:`CascadeModel` whose
    parameters are *copies* of the selected global slices; training it does
    not touch the global model.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    ctx = _SliceContext(
        strategy=strategy,
        ratio=ratio,
        rng=rng,
        round_idx=round_idx,
        output_linear_id=_find_output_linear(model),
    )
    atoms: List[Atom] = []
    shape: Tuple[int, ...] = model.in_shape
    idx = np.arange(model.in_shape[0])
    for i, atom in enumerate(model.atoms):
        sub, shape, idx = _slice(atom.module, shape, idx, f"atom{i}", ctx)
        atoms.append(Atom(name=atom.name, module=sub))
    sub_model = CascadeModel(
        atoms,
        in_shape=model.in_shape,
        num_classes=model.num_classes,
        name=f"{model.name}@{ratio:.2f}",
    )
    return SubmodelSlice(model=sub_model, index_map=ctx.index_map, ratio=ratio)


def scatter_submodel_state(
    sub_state: Dict[str, np.ndarray],
    index_map: IndexMap,
    global_template: Dict[str, np.ndarray],
) -> Tuple[Dict[str, np.ndarray], Dict[str, np.ndarray]]:
    """Map a trained sub-state back to global shapes with a coverage mask."""
    scattered: Dict[str, np.ndarray] = {}
    mask: Dict[str, np.ndarray] = {}
    for key, template in global_template.items():
        contributed = (
            (sub_state[key],) if key in index_map and key in sub_state else ()
        )
        dtype = accum_dtype(template, *contributed)
        out = np.zeros_like(template, dtype=dtype)
        cover = np.zeros_like(template, dtype=dtype)
        if key in index_map and key in sub_state:
            axes = index_map[key]
            if len(axes) < template.ndim:
                axes = axes + tuple(
                    np.arange(template.shape[d]) for d in range(len(axes), template.ndim)
                )
            ix = np.ix_(*axes)
            out[ix] = sub_state[key]
            cover[ix] = 1.0
        scattered[key] = out
        mask[key] = cover
    return scattered, mask
