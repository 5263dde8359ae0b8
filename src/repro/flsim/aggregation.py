"""Server-side aggregation rules."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.nn.dtype import accum_dtype

StateDict = Dict[str, np.ndarray]


class AggregationError(ValueError):
    """Aggregation received an unusable input set.

    Raised (instead of a bare ``ValueError``) when there is nothing to
    aggregate — e.g. every sampled client dropped out of a round — so run
    loops can catch the condition specifically and abort the round
    cleanly instead of crashing the run.
    """


def fold_state(acc: StateDict, state: StateDict, scale: float, keys: Iterable[str]) -> None:
    """``acc[key] += scale * state[key]``; a new accumulator takes ``accum_dtype``
    of the first array, and a later one it would downcast raises ``ValueError``."""
    for key in keys:
        value = np.asarray(state[key])
        total = acc.get(key)
        if total is None:
            total = acc[key] = np.zeros_like(value, dtype=accum_dtype(value))
        elif np.result_type(total.dtype, value.dtype) != total.dtype:
            raise ValueError(f"{key!r}: {value.dtype} would be downcast into {total.dtype}")
        total += scale * value


def weighted_average_states(
    states: Iterable[StateDict],
    weights: Sequence[float],
    keys: Optional[Sequence[str]] = None,
) -> StateDict:
    """Weighted elementwise average of state dicts with identical keys.

    ``keys`` restricts the average to a subset of keys (each state may then
    hold a superset; default: the first state's keys) — the partial-average
    aggregator passes each module's key list directly so no intermediate
    per-trainer sub-dicts are built.  ``states`` may be one-shot: each
    state folds into one accumulator per key (:func:`fold_state`, in state
    order) and is released before the next is pulled.

    Raises :class:`AggregationError` on an empty ``states`` (a fully
    dropped round) or non-positive total weight.
    """
    total = float(sum(weights))
    out: StateDict = {}
    count = 0
    for state in states:
        if count == len(weights):
            raise ValueError("states and weights length mismatch")
        if total <= 0:
            raise AggregationError("weights must sum to a positive value")
        keys = list(state) if keys is None else keys
        fold_state(out, state, weights[count] / total, keys)
        count += 1
        del state  # not pinned while the caller produces the next one
    if not count:
        raise AggregationError(
            "cannot aggregate an empty set of client updates "
            "(did every sampled client drop out?)"
        )
    if count != len(weights):
        raise ValueError("states and weights length mismatch")
    return out


def fedavg(states: Sequence[StateDict], num_samples: Sequence[int]) -> StateDict:
    """FedAvg (McMahan et al., 2017): average weighted by local data size."""
    return weighted_average_states(states, [float(n) for n in num_samples])


def masked_partial_average(
    global_state: StateDict,
    updates: Sequence[Tuple[StateDict, StateDict, float]],
) -> StateDict:
    """Partial average for sub-model training (HeteroFL/FedRolex/FedProphet).

    Each update is ``(scattered_state, mask, weight)`` where
    ``scattered_state`` has the *global* shapes with zeros outside the
    trained region and ``mask`` is 1 where the client actually trained.
    Entries covered by no client keep their previous global value (Eq. 16).
    Raises :class:`AggregationError` when ``updates`` is empty.
    """
    if not updates:
        raise AggregationError(
            "cannot aggregate an empty set of partial updates "
            "(did every sampled client drop out?)"
        )
    out: StateDict = {}
    for key, g in global_state.items():
        dtype = accum_dtype(g, *(s[key] for s, _, _ in updates if key in s))
        num = np.zeros_like(g, dtype=dtype)
        den = np.zeros_like(g, dtype=dtype)
        for state, mask, w in updates:
            if key in state:
                num += w * state[key]
                den += w * mask[key]
        covered = den > 0
        merged = np.array(g, dtype=dtype)
        merged[covered] = num[covered] / den[covered]
        out[key] = merged
    return out
