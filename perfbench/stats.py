"""Order statistics and regression-bound arithmetic for the benchmark.

Pure Python, no ``repro`` import: the parent process and the unit tests
use it without touching the code under measurement.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    The driver computes run-to-run spread with exactly this call, so the
    bounds frozen in ``BENCHMARK.json`` must come from the same estimator.
    One sample has no spread: all three collapse onto it.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(values: Sequence[float]) -> Dict[str, float]:
    """median + quartiles + n, the form every reported metric takes."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def bound_from_spread(observed: float, floor: float = 0.05, cap: float = 0.25) -> float:
    """Regression bound for a metric: ``max(floor, 3 x spread)``, capped.

    Three spreads keep the observed run-to-run noise below a third of the
    bound; the floor stops a very steady metric from getting a bound
    tighter than the clock can resolve.
    """
    return min(cap, max(floor, 3.0 * observed))


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of parent.

    Positive = regression in the metric's own direction, negative = gain.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        return 0.0 if change == parent else math.inf
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta
