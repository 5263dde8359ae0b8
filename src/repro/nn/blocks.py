"""Composite blocks: Conv-BN-ReLU and the ResNet basic residual block.

These are the "atoms" of the paper's model partitioner (Algorithm 1): a
VGG atom is a single (conv, activation) layer, a ResNet atom is a whole
``BasicBlock`` because the skip connection cannot be cut.

Inside an input-grad-only scope an eval-mode BatchNorm is an affine map of
constants, so each conv→BN pair here runs as *one* convolution with the
BatchNorm folded into its weights (:meth:`BatchNorm2d.fold`); train mode,
``Identity`` norms and everything outside a scope take the unfolded path.
"""

from __future__ import annotations

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.conv import Conv2d
from repro.nn.module import Identity, Module, Sequential
from repro.nn.normalization import BatchNorm2d


def _conv_bn(conv: Conv2d, bn: Module, x: np.ndarray) -> np.ndarray:
    fold = bn.fold() if isinstance(bn, BatchNorm2d) else None
    return bn(conv(x)) if fold is None else conv.forward(x, fold)


def _conv_bn_backward(conv: Conv2d, bn: Module, g: np.ndarray) -> np.ndarray:
    # conv._fold: how the forward being backpropagated ran.
    return conv.backward(bn.backward(g) if conv._fold is None else g)


class ConvBNReLU(Module):
    """conv -> batchnorm -> relu, the unit layer of our VGG variants."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        batch_norm: bool = True,
        rng: np.random.Generator | None = None,
        bn_cls=BatchNorm2d,
    ):
        super().__init__()
        self.conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=not batch_norm,
            rng=rng,
        )
        self.bn = bn_cls(out_channels) if batch_norm else Identity()
        self.act = ReLU()

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.act(_conv_bn(self.conv, self.bn, x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return _conv_bn_backward(self.conv, self.bn, self.act.backward(grad_out))


class BasicBlock(Module):
    """ResNet v1 basic block: two 3x3 convs with an additive skip path."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
        bn_cls=BatchNorm2d,
    ):
        super().__init__()
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1, bias=False, rng=rng
        )
        self.bn1 = bn_cls(out_channels)
        self.act1 = ReLU()
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = bn_cls(out_channels)
        self.act2 = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.downsample = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                bn_cls(out_channels),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = _conv_bn(self.conv2, self.bn2, self.act1(_conv_bn(self.conv1, self.bn1, x)))
        if isinstance(self.downsample, Identity):
            return self.act2(main + x)
        return self.act2(main + _conv_bn(*self.downsample.layers, x))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        g = self.act2.backward(grad_out)
        g_main = _conv_bn_backward(
            self.conv1, self.bn1, self.act1.backward(_conv_bn_backward(self.conv2, self.bn2, g))
        )
        if isinstance(self.downsample, Identity):
            return g_main + g
        return g_main + _conv_bn_backward(*self.downsample.layers, g)
