"""Synthetic class-conditional image tasks standing in for CIFAR/Caltech.

Each class owns a smooth "prototype" image (low-resolution Gaussian noise
bilinearly upsampled), and samples are noisy, contrast-jittered copies of
their prototype.  The ``separation`` knob controls how far apart prototypes
sit relative to the noise, so tasks range from easy to genuinely hard —
hard enough that adversarial training shows the clean/robust accuracy gap
the paper's experiments rely on.

Design notes:

* Pixels live in [0, 1] like normalised CIFAR images, so the paper's
  ε0 = 8/255 ℓ∞ budget is directly meaningful.
* The generator is fully deterministic given a seed; train and test splits
  are drawn i.i.d. from the same distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.nn.dtype import compute_dtype


def _linear_taps(n_in: int, n_out: int):
    """Source indices and weights of an ``n_in -> n_out`` linear resampling."""
    coord = np.arange(n_out) * ((n_in - 1) / (n_out - 1)) if n_out > 1 else np.zeros(1)
    lo = np.floor(coord).astype(np.intp)
    w_lo = 1.0 - (coord - lo)
    return lo, np.minimum(lo + 1, n_in - 1), w_lo, 1.0 - w_lo


def _smooth_field(shape: Tuple[int, int, int], coarse: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth random image: coarse Gaussian grid upsampled to full size.

    Bilinear, corner-aligned: the weights and accumulation order are those of
    ``scipy.ndimage.zoom(low, (1, h / coarse, w / coarse), order=1)``, bit for bit.
    """
    c, h, w = shape
    coarse = max(2, min(coarse, h, w))
    low = rng.normal(size=(c, coarse, coarse))
    y0, y1, wy0, wy1 = _linear_taps(coarse, h)
    x0, x1, wx0, wx1 = _linear_taps(coarse, w)
    top, bot = low[:, y0] * wy0[:, None], low[:, y1] * wy1[:, None]
    return top[:, :, x0] * wx0 + top[:, :, x1] * wx1 + bot[:, :, x0] * wx0 + bot[:, :, x1] * wx1


@dataclass
class SyntheticImageTask:
    """A generated classification task with train and test splits."""

    name: str
    train: ArrayDataset
    test: ArrayDataset
    num_classes: int
    in_shape: Tuple[int, int, int]


def make_synthetic_task(
    name: str,
    num_classes: int,
    in_shape: Tuple[int, int, int],
    train_per_class: int,
    test_per_class: int,
    separation: float = 1.2,
    noise: float = 0.35,
    coarse: int = 4,
    seed: int = 0,
) -> SyntheticImageTask:
    """Generate a class-conditional Gaussian-prototype image task.

    Parameters
    ----------
    separation:
        Scale of the class-specific prototype component relative to the
        shared background; lower values = harder task.
    noise:
        Per-sample additive Gaussian noise std (before clipping to [0,1]).
    coarse:
        Resolution of the coarse grid defining prototype smoothness.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    background = _smooth_field(in_shape, coarse, rng)
    prototypes = np.stack(
        [
            background + separation * _smooth_field(in_shape, coarse, rng)
            for _ in range(num_classes)
        ]
    )
    # normalise prototypes to occupy a consistent dynamic range
    p_min, p_max = prototypes.min(), prototypes.max()
    prototypes = (prototypes - p_min) / max(p_max - p_min, 1e-9)

    def _draw(per_class: int, rng: np.random.Generator):
        xs, ys = [], []
        for cls in range(num_classes):
            proto = prototypes[cls]
            contrast = rng.uniform(0.8, 1.2, size=(per_class, 1, 1, 1))
            brightness = rng.uniform(-0.1, 0.1, size=(per_class, 1, 1, 1))
            eps = rng.normal(0.0, noise, size=(per_class,) + in_shape)
            x = np.clip(contrast * proto[None] + brightness + eps, 0.0, 1.0)
            xs.append(x)
            ys.append(np.full(per_class, cls, dtype=np.int64))
        x = np.concatenate(xs).astype(compute_dtype())
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return ArrayDataset(x[order], y[order])

    train = _draw(train_per_class, np.random.default_rng(seed + 1))
    test = _draw(test_per_class, np.random.default_rng(seed + 2))
    return SyntheticImageTask(
        name=name, train=train, test=test, num_classes=num_classes, in_shape=in_shape
    )


def make_cifar10_like(
    image_size: int = 16,
    train_per_class: int = 200,
    test_per_class: int = 40,
    seed: int = 0,
    separation: float = 1.2,
    noise: float = 0.35,
) -> SyntheticImageTask:
    """10-class, 3-channel stand-in for CIFAR-10 (paper default 32×32)."""
    return make_synthetic_task(
        "cifar10",
        num_classes=10,
        in_shape=(3, image_size, image_size),
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        separation=separation,
        noise=noise,
        seed=seed,
    )


def make_caltech256_like(
    image_size: int = 16,
    num_classes: int = 32,
    train_per_class: int = 60,
    test_per_class: int = 15,
    seed: int = 1,
    separation: float = 1.0,
    noise: float = 0.4,
) -> SyntheticImageTask:
    """Many-class, higher-resolution stand-in for Caltech-256.

    The paper uses 256 classes at 3×224×224; we keep the "many classes,
    larger images than CIFAR" structure at a NumPy-trainable scale.
    """
    return make_synthetic_task(
        "caltech256",
        num_classes=num_classes,
        in_shape=(3, image_size, image_size),
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        separation=separation,
        noise=noise,
        seed=seed,
    )
