"""He/Kaiming weight initialisation, eager or deferred (see :class:`PrivateRng`)."""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

import numpy as np

from repro.nn.dtype import compute_dtype


class PrivateRng:
    """The ``default_rng(0)`` a layer or builder makes for itself (``rng=None``), deferred.

    Nobody outside can observe that generator, so its draws wait: parameters
    initialised from it queue here in construction order, and the first read
    of any one's ``data``/``grad`` makes every queued draw from a fresh
    ``default_rng(0)`` in that order — the bytes an eager build would hold.
    A generator the *caller* supplies is never wrapped: its state after the
    build is observable.  See docs/architecture.md § "Shape-first construction".
    """

    def __init__(self) -> None:
        self._rng, self._fills = None, []

    def queue(self, fill: Callable[[np.random.Generator], None]) -> None:
        self._fills.append(fill)

    def flush(self) -> None:
        if self._rng is None:
            self._rng = np.random.default_rng(0)
        while self._fills:  # dequeued only once made: a failed flush can be retried
            self._fills[0](self._rng)
            del self._fills[0]


class PendingDraw(NamedTuple):
    """An initial value not drawn yet: all a ``Parameter`` holds until its first read."""

    shape: Tuple[int, ...]
    dtype: np.dtype  # the compute dtype as of construction
    draw: Callable[[np.random.Generator], np.ndarray]
    rng: PrivateRng


def kaiming_normal(
    shape, fan_in: int, rng: np.random.Generator | PrivateRng, gain: float = np.sqrt(2.0)
) -> np.ndarray | PendingDraw:
    """He-normal initialisation: std = gain / sqrt(fan_in).

    The default gain targets ReLU networks, which is all this repo trains.
    Draws in float64 for bit-stable streams, then casts to the compute
    dtype.  From a :class:`PrivateRng` the draw is returned pending.
    """
    std = gain / np.sqrt(float(fan_in))
    dtype = compute_dtype()

    def draw(generator: np.random.Generator) -> np.ndarray:
        return generator.normal(0.0, std, size=shape).astype(dtype, copy=False)

    return PendingDraw(tuple(shape), dtype, draw, rng) if isinstance(rng, PrivateRng) else draw(rng)
