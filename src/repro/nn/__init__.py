"""repro.nn — a from-scratch NumPy neural-network library.

The FedProphet reproduction cannot rely on an autograd framework (none is
installed), so this package provides the minimal-but-complete substrate the
paper's experiments need:

* layers with explicit ``forward(x)`` / ``backward(grad_out) -> grad_in``
  passes (the returned input gradient is what PGD-style attacks consume),
* channel-last convolution, batch normalization with running statistics,
  residual blocks, pooling, linear heads,
* cross-entropy and the paper's strong-convexity-regularized early-exit
  loss (Eq. 9),
* SGD with momentum / weight decay, matching the paper's training recipe.

All layers follow the NCHW convention and accept an explicit
``numpy.random.Generator`` wherever randomness is involved, so experiments
are fully reproducible.
"""

from repro.nn.dtype import (
    as_compute,
    compute_dtype,
    dtype_scope,
    set_compute_dtype,
)
from repro.nn.grad_mode import (
    attack_grad_scope,
    frozen_cache,
    no_param_grads,
    param_grads_enabled,
)
from repro.nn.module import Module, Parameter, Sequential, Identity
from repro.nn.linear import Linear, Flatten
from repro.nn.conv import Conv2d
from repro.nn.pooling import MaxPool2d, AvgPool2d, GlobalAvgPool2d
from repro.nn.normalization import BatchNorm2d, DualBatchNorm2d
from repro.nn.activations import ReLU, LeakyReLU, Tanh
from repro.nn.blocks import ConvBNReLU, BasicBlock
from repro.nn.losses import (
    CrossEntropyLoss,
    StrongConvexityLoss,
    softmax,
    log_softmax,
)

__all__ = [
    "as_compute",
    "compute_dtype",
    "dtype_scope",
    "set_compute_dtype",
    "attack_grad_scope",
    "frozen_cache",
    "no_param_grads",
    "param_grads_enabled",
    "Module",
    "Parameter",
    "Sequential",
    "Identity",
    "Linear",
    "Flatten",
    "Conv2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "BatchNorm2d",
    "DualBatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "ConvBNReLU",
    "BasicBlock",
    "CrossEntropyLoss",
    "StrongConvexityLoss",
    "softmax",
    "log_softmax",
]
