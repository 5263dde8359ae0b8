"""Pluggable robust aggregation rules (median, trimmed-mean, Krum, clipping).

Defences against the update-space threats in :mod:`repro.flsim.threats`,
selected by ``FLConfig.aggregation_rule`` and applied wherever the engine
averages client states — the sync FedAvg merge, FedProphet's per-module
merges (via the ``average_fn`` hook on
:func:`repro.core.aggregator.aggregate_modules` /
:func:`~repro.core.aggregator.merge_async_partial`), FedRBN's dual-BN
merge, the partial-training masked average
(:func:`masked_robust_average`), and every async/pipelined merge event.

Rules (``f`` Byzantine clients out of ``n``):

* ``fedavg`` — the plain weighted average; **bit-identical** to the
  engine's historical behaviour (it delegates to
  :func:`~repro.flsim.aggregation.weighted_average_states` unchanged).
* ``median`` — coordinate-wise median (unweighted; resists any minority
  of arbitrary coordinates, breakdown point 1/2).
* ``trimmed_mean`` — per coordinate, drop the ``trim_ratio`` fraction of
  largest and smallest values, average the rest (clamped so at least one
  value survives).
* ``krum`` / ``multi_krum`` — Blanchard et al. (2017): score each update
  by the summed squared distance to its ``n - f - 2`` nearest
  neighbours; keep the best-scored one (``krum``) or the best
  ``max(1, n - f)`` averaged by weight (``multi_krum``).  Ties break by
  client position, deterministically.
* ``norm_clip`` — clip each client's update delta ``state - base`` to an
  L2 ball of radius ``clip_norm`` (``None`` = the cohort's median norm,
  recomputed per merge) before averaging; bounds any single client's
  displacement of the server.

Every rule is a deterministic, order-stable function of its inputs (the
client list order is fixed by the sampler), so robust aggregation
preserves the engine's bit-identity contract.  Each
``aggregate`` call also returns a JSON-safe stats dict (selected /
rejected clients, clip factors) that the run loop journals per round —
per-rule rejection and clipping observability for replayable runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.flsim.aggregation import (
    AggregationError,
    StateDict,
    masked_partial_average,
    weighted_average_states,
)
from repro.nn.dtype import accum_dtype

AGGREGATION_RULES = (
    "fedavg",
    "median",
    "trimmed_mean",
    "krum",
    "multi_krum",
    "norm_clip",
)


def _keys(states: Sequence[StateDict], keys: Optional[Sequence[str]]) -> List[str]:
    return list(states[0] if keys is None else keys)


def _check(states: Sequence[StateDict], weights: Sequence[float]) -> None:
    if not states:
        raise AggregationError(
            "cannot aggregate an empty set of client updates "
            "(did every sampled client drop out?)"
        )
    if len(states) != len(weights):
        raise ValueError("states and weights length mismatch")


def _median(stack: np.ndarray) -> np.ndarray:
    """``np.median(stack, axis=0)`` bit for bit, for a floating ``stack``.

    The same partition (``np.median``'s kth: the middle one or two
    positions, plus the last), the same mean of those (``(lo + hi) / 2``
    for even K), and NaN wherever the last partitioned entry is NaN —
    without ``np.median``'s NaN check, which imports ``numpy.ma``.
    """
    k = stack.shape[0]
    mid = k // 2
    if k % 2:
        part = np.partition(stack, [mid, -1], axis=0)
        median = part[mid] + 0.0  # np.mean's sum starts at +0.0: a -0.0 median reads +0.0
    else:
        part = np.partition(stack, [mid - 1, mid, -1], axis=0)
        median = (part[mid - 1] + 0.0 + part[mid]) / 2
    last = part[-1]
    nan = np.isnan(last)
    return np.where(nan, last, median) if nan.any() else median


def coordinate_median(
    states: Sequence[StateDict],
    keys: Optional[Sequence[str]] = None,
) -> StateDict:
    """Coordinate-wise (unweighted) median of the client states, one key at a time."""
    if not states:
        raise AggregationError("cannot take the median of zero client updates")
    out: StateDict = {}
    for key in _keys(states, keys):
        stack = np.stack([s[key] for s in states]).astype(
            accum_dtype(*(s[key] for s in states)), copy=False
        )
        out[key] = _median(stack)
    return out


def trimmed_mean(
    states: Sequence[StateDict],
    trim_ratio: float,
    keys: Optional[Sequence[str]] = None,
) -> Tuple[StateDict, int]:
    """Coordinate-wise trimmed mean; returns ``(merged, trimmed_per_side)``.

    ``trim_ratio`` of the values are dropped from *each* end per
    coordinate, clamped so at least one value remains.
    """
    if not states:
        raise AggregationError("cannot trim-average zero client updates")
    n = len(states)
    k = min(int(trim_ratio * n), (n - 1) // 2)
    out: StateDict = {}
    for key in _keys(states, keys):
        stack = np.stack([s[key] for s in states]).astype(
            accum_dtype(*(s[key] for s in states)), copy=False
        )
        stack = np.sort(stack, axis=0)
        out[key] = stack[k : n - k].mean(axis=0)
    return out, k


def krum_scores(
    states: Sequence[StateDict],
    byzantine_f: int,
    keys: Optional[Sequence[str]] = None,
) -> np.ndarray:
    """Krum score per client: summed squared distance to nearest neighbours.

    Each client's flattened update is compared to every other; the score
    sums its ``max(1, n - f - 2)`` smallest squared distances (lower is
    better — the honest cluster scores low, outliers high).
    """
    if not states:
        raise AggregationError("cannot Krum-score zero client updates")
    flat = [
        np.concatenate(
            [np.asarray(s[key], dtype=np.float64).ravel() for key in _keys(states, keys)]
        )
        for s in states
    ]
    n = len(flat)
    if n == 1:
        return np.zeros(1)
    dist2 = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = flat[i] - flat[j]
            dist2[i, j] = dist2[j, i] = float(d @ d)
    neighbours = max(1, min(n - 1, n - byzantine_f - 2))
    scores = np.zeros(n)
    for i in range(n):
        others = np.sort(np.delete(dist2[i], i))
        scores[i] = others[:neighbours].sum()
    return scores


def krum_select(
    states: Sequence[StateDict],
    byzantine_f: int,
    keys: Optional[Sequence[str]] = None,
    multi: bool = False,
) -> List[int]:
    """The client positions Krum keeps (ties break by position)."""
    scores = krum_scores(states, byzantine_f, keys)
    n = len(scores)
    m = max(1, n - byzantine_f) if multi else 1
    order = np.argsort(scores, kind="stable")
    return sorted(int(i) for i in order[: min(m, n)])


def clipped_norm_average(
    states: Sequence[StateDict],
    weights: Sequence[float],
    base: StateDict,
    clip_norm: Optional[float],
    keys: Optional[Sequence[str]] = None,
) -> Tuple[StateDict, Dict[str, Any]]:
    """Average of per-client deltas clipped to an L2 ball around ``base``.

    ``clip_norm=None`` uses the cohort's median delta norm as the radius
    (adaptive clipping).  Returns ``(merged, stats)``.
    """
    _check(states, weights)
    key_list = _keys(states, keys)
    deltas: List[StateDict] = []
    norms: List[float] = []
    for s in states:
        delta = {k: np.asarray(s[k], dtype=np.float64) - base[k] for k in key_list}
        deltas.append(delta)
        norms.append(float(np.sqrt(sum(float((d * d).sum()) for d in delta.values()))))
    radius = float(np.median(norms)) if clip_norm is None else float(clip_norm)
    clipped = 0
    adjusted: List[StateDict] = []
    for s, delta, norm in zip(states, deltas, norms):
        if norm > radius and norm > 0.0:
            factor = radius / norm
            clipped += 1
            adjusted.append(
                {
                    k: (base[k] + factor * delta[k]).astype(
                        np.asarray(s[k]).dtype, copy=False
                    )
                    for k in key_list
                }
            )
        else:
            adjusted.append({k: s[k] for k in key_list})
    merged = weighted_average_states(adjusted, weights, keys=key_list)
    stats = {
        "clip_norm": radius,
        "clipped": clipped,
        "max_norm": float(max(norms)),
    }
    return merged, stats


@dataclass(frozen=True)
class RobustAggregator:
    """One configured aggregation rule, applied everywhere states merge.

    ``aggregate`` returns ``(merged_state, stats_or_None)``; the
    ``fedavg`` rule returns ``stats=None`` and delegates byte-for-byte to
    :func:`weighted_average_states`, so a default config reproduces the
    engine's historical output bit for bit.
    """

    rule: str = "fedavg"
    trim_ratio: float = 0.2
    byzantine_f: int = 1
    clip_norm: Optional[float] = None

    def __post_init__(self):
        if self.rule not in AGGREGATION_RULES:
            raise ValueError(
                f"aggregation rule must be one of {AGGREGATION_RULES}, "
                f"got {self.rule!r}"
            )

    @classmethod
    def from_config(cls, config) -> "RobustAggregator":
        return cls(
            rule=config.aggregation_rule,
            trim_ratio=config.trim_ratio,
            byzantine_f=config.krum_byzantine_f,
            clip_norm=config.clip_norm,
        )

    def aggregate(
        self,
        states: Iterable[StateDict],
        weights: Sequence[float],
        keys: Optional[Sequence[str]] = None,
        base: Optional[StateDict] = None,
    ) -> Tuple[StateDict, Optional[Dict[str, Any]]]:
        """Merge one cohort of full (or ``keys``-restricted) states (``fedavg`` folds them)."""
        if self.rule == "fedavg":
            return weighted_average_states(states, weights, keys=keys), None
        states = list(states)
        _check(states, weights)
        n = len(states)
        if self.rule == "median":
            return coordinate_median(states, keys), {"rule": "median", "n": n}
        if self.rule == "trimmed_mean":
            merged, k = trimmed_mean(states, self.trim_ratio, keys)
            return merged, {"rule": "trimmed_mean", "n": n, "trimmed_per_side": k}
        if self.rule in ("krum", "multi_krum"):
            selected = krum_select(
                states, self.byzantine_f, keys, multi=(self.rule == "multi_krum")
            )
            merged = weighted_average_states(
                [states[i] for i in selected],
                [weights[i] for i in selected],
                keys=keys,
            )
            rejected = [i for i in range(n) if i not in set(selected)]
            return merged, {
                "rule": self.rule,
                "n": n,
                "selected": selected,
                "rejected": rejected,
            }
        # norm_clip
        if base is None:
            raise ValueError(
                "norm_clip aggregation needs the pre-round base state"
            )
        merged, stats = clipped_norm_average(
            states, weights, base, self.clip_norm, keys
        )
        return merged, {"rule": "norm_clip", "n": n, **stats}


def masked_robust_average(
    global_state: StateDict,
    updates: Sequence[Tuple[StateDict, StateDict, float]],
    aggregator: RobustAggregator,
) -> Tuple[StateDict, Optional[Dict[str, Any]]]:
    """Robust variant of :func:`masked_partial_average`.

    Each update is ``(scattered_state, mask, weight)`` with global shapes
    and zeros outside the trained region; a coordinate participates in the
    robust statistic only for the clients whose mask covers it, and
    entries covered by nobody keep their global value.  ``krum`` /
    ``multi_krum`` need geometrically comparable full updates and raise
    :class:`AggregationError` here (heterogeneous masks make the distance
    scores meaningless).
    """
    if not updates:
        raise AggregationError(
            "cannot aggregate an empty set of partial updates "
            "(did every sampled client drop out?)"
        )
    rule = aggregator.rule
    if rule == "fedavg":
        return masked_partial_average(global_state, updates), None
    n = len(updates)
    if rule in ("krum", "multi_krum"):
        raise AggregationError(
            f"aggregation rule {rule!r} requires homogeneous full-model "
            f"updates; the partial-training family ships masked sub-model "
            f"updates (use median, trimmed_mean or norm_clip)"
        )
    if rule == "norm_clip":
        key_list = list(global_state)
        norms: List[float] = []
        deltas: List[StateDict] = []
        for state, mask, _w in updates:
            delta = {}
            total = 0.0
            for key in key_list:
                if key in state:
                    d = np.where(
                        np.asarray(mask[key]) > 0,
                        np.asarray(state[key], dtype=np.float64)
                        - np.asarray(global_state[key], dtype=np.float64),
                        0.0,
                    )
                    delta[key] = d
                    total += float((d * d).sum())
            deltas.append(delta)
            norms.append(float(np.sqrt(total)))
        radius = float(np.median(norms)) if aggregator.clip_norm is None else float(
            aggregator.clip_norm
        )
        clipped = 0
        adjusted = []
        for (state, mask, w), delta, norm in zip(updates, deltas, norms):
            if norm > radius and norm > 0.0:
                factor = radius / norm
                clipped += 1
                new_state = {}
                for key in state:
                    dtype = np.asarray(state[key]).dtype
                    clipped_val = np.asarray(global_state[key], dtype=np.float64) + (
                        factor * delta[key]
                    )
                    new_state[key] = np.where(
                        np.asarray(mask[key]) > 0, clipped_val, state[key]
                    ).astype(dtype, copy=False)
                adjusted.append((new_state, mask, w))
            else:
                adjusted.append((state, mask, w))
        merged = masked_partial_average(global_state, adjusted)
        return merged, {
            "rule": "norm_clip",
            "n": n,
            "clip_norm": radius,
            "clipped": clipped,
            "max_norm": float(max(norms)),
        }
    # median / trimmed_mean: per-coordinate robust statistic over the
    # clients whose mask covers that coordinate.
    out: StateDict = {}
    for key, g in global_state.items():
        dtype = accum_dtype(g, *(s[key] for s, _, _ in updates if key in s))
        vals = np.stack(
            [
                np.where(np.asarray(m[key]) > 0, s[key], np.nan)
                if key in s
                else np.full(g.shape, np.nan)
                for s, m, _w in updates
            ]
        ).astype(np.float64, copy=False)
        counts = (~np.isnan(vals)).sum(axis=0)
        if rule == "median":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                stat = np.nanmedian(vals, axis=0)
        else:  # trimmed_mean with per-coordinate counts
            srt = np.sort(vals, axis=0)  # NaNs sort last
            sums = np.concatenate(
                [
                    np.zeros((1,) + g.shape),
                    np.cumsum(np.nan_to_num(srt), axis=0),
                ]
            )
            k = np.minimum(
                (aggregator.trim_ratio * counts).astype(np.int64),
                np.maximum(counts - 1, 0) // 2,
            )
            hi = np.take_along_axis(sums, (counts - k)[None], axis=0)[0]
            lo = np.take_along_axis(sums, k[None], axis=0)[0]
            denom = np.maximum(counts - 2 * k, 1)
            stat = (hi - lo) / denom
        merged = np.where(counts > 0, stat, g).astype(dtype, copy=False)
        out[key] = merged
    return out, {"rule": rule, "n": n}
