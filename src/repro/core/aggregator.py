"""Partial-average aggregation of modules and auxiliary heads (Eq. 16–17).

With DMA, different clients return different module spans.  Module n is
averaged over the clients who trained it (those with M_k ≥ n), weighted by
local data size; head n is averaged over the clients whose *last* module
was n (M_k = n), since only they trained that head.

The module also owns the server-side asynchronous merge primitives of
the cross-round pipeline:

* :func:`async_merge_schedule` / :func:`merge_async_update` /
  :func:`merge_async_partial` — staleness-bounded asynchronous
  aggregation: client updates merge into a server state dict in
  (simulated) arrival order, each merge event attenuated by its
  staleness, with the intra-round bound enforced by coalescing the tail
  of a round into the last permitted event.  ``merge_async_partial`` is
  the FedProphet flavour: Eq. 16/17 partial averages applied per module
  span (and per head) with the same ``1/(1+s)`` attenuation.

Determinism contract: every function here is a pure (or in-place but
order-fixed) computation over its arguments — no wall-clock, RNG, or
scheduling input — so merge replays driven by *simulated* arrival order
produce bit-identical server states run after run.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.partitioner import Partition
from repro.flsim.aggregation import AggregationError, fold_state, weighted_average_states
from repro.models.atoms import CascadeModel
from repro.nn.grad_mode import require_unfrozen
from repro.nn.module import Module

StateDict = Dict[str, np.ndarray]


def atom_param_names(model: CascadeModel, start: int, stop: int) -> List[str]:
    """State-dict keys (params + buffers) of atoms [start, stop).

    Deterministic key order (atom index, then declaration order), which
    fixes the reduction order of every average built from these lists.
    """
    names: List[str] = []
    for i in range(start, stop):
        prefix = f"atom{i}."
        atom = model.atoms[i].module
        names.extend(prefix + n for n, _ in atom.named_parameters())
        names.extend(prefix + n for n, _ in atom.named_buffers())
    return names


def snapshot_segment(model: CascadeModel, start: int, stop: int) -> StateDict:
    """Copy the state (params + buffers) of atoms [start, stop) out of the model.

    Walks the atom modules directly instead of materialising the full
    ``state_dict`` — the per-client round loop snapshots and extracts only
    the trained segment, so the frozen prefix is never copied.
    """
    if not (0 <= start <= stop <= len(model.atoms)):
        raise IndexError(f"invalid atom range [{start}, {stop})")
    out: StateDict = {}
    for i in range(start, stop):
        prefix = f"atom{i}."
        atom = model.atoms[i].module
        for n, p in atom.named_parameters():
            out[prefix + n] = p.data.copy()
        for n, b in atom.named_buffers():
            out[prefix + n] = b.copy()
    return out


def restore_segment(
    model: CascadeModel, segment_state: StateDict, start: int, stop: int
) -> None:
    """Write a :func:`snapshot_segment` back into atoms [start, stop) in place.

    ``segment_state`` may cover a superset of the range (e.g. a round-level
    snapshot of the whole trainable suffix restored before each client).
    """
    require_unfrozen("restore_segment")
    if not (0 <= start <= stop <= len(model.atoms)):
        raise IndexError(f"invalid atom range [{start}, {stop})")
    for i in range(start, stop):
        prefix = f"atom{i}."
        atom = model.atoms[i].module
        for n, p in atom.named_parameters():
            p.data[...] = segment_state[prefix + n]
        for name, (owner, local) in atom._buffer_owners(prefix).items():
            owner.set_buffer(local, segment_state[name].copy())


def aggregate_modules(
    model: CascadeModel,
    partition: Partition,
    current_module: int,
    client_states: Sequence[StateDict],
    client_assignments: Sequence[int],
    client_weights: Sequence[float],
    average_fn: Optional[Callable] = None,
) -> StateDict:
    """Eq. 16: per-module weighted average over the clients that trained it.

    ``client_states`` hold each client's trained-segment state (atoms of
    modules ``current_module..M_k``).  Returns the updated global state for
    every touched key; untouched keys are absent (keep previous values).
    Pure function of its arguments; trainers reduce in client-list order,
    so the merged floats are identical at any fusion width.

    ``average_fn(states, weights, keys, base)`` overrides the per-module
    merge rule (the robust-aggregation hook; ``base`` is the module
    span's current state, snapshotted from ``model``).  The default is
    the plain :func:`weighted_average_states`.
    """
    if not (len(client_states) == len(client_assignments) == len(client_weights)):
        raise ValueError("client lists must have equal length")
    out: StateDict = {}
    num_modules = len(partition)
    for n in range(current_module, num_modules):
        trainers = [
            (state, w)
            for state, mk, w in zip(client_states, client_assignments, client_weights)
            if mk >= n
        ]
        if not trainers:
            continue
        start, stop = partition[n]
        keys = atom_param_names(model, start, stop)
        states = [state for state, _ in trainers]
        weights = [w for _, w in trainers]
        if average_fn is None:
            out.update(weighted_average_states(states, weights, keys=keys))
        else:
            base = snapshot_segment(model, start, stop)
            out.update(average_fn(states, weights, keys, base))
    return out


def aggregate_heads(
    heads: Sequence[Optional[Module]],
    client_head_states: Sequence[Optional[StateDict]],
    client_assignments: Sequence[int],
    client_weights: Sequence[float],
) -> None:
    """Eq. 17: average head n over clients with M_k = n, in place.

    Trainers reduce in client-list order (same determinism contract as
    :func:`aggregate_modules`).
    """
    for n, head in enumerate(heads):
        if head is None:
            continue
        trainers = [
            (state, w)
            for state, mk, w in zip(client_head_states, client_assignments, client_weights)
            if mk == n and state is not None
        ]
        if not trainers:
            continue
        merged = weighted_average_states(
            [state for state, _ in trainers], [w for _, w in trainers]
        )
        head.load_state_dict(merged)


# ---------------------------------------------------------------------------
# Staleness-bounded asynchronous aggregation
# ---------------------------------------------------------------------------


def async_merge_schedule(num_updates: int, max_staleness: int) -> List[List[int]]:
    """Group arrival positions into merge events respecting the bound.

    The server merges client updates one event at a time in arrival
    order; an update merged by event *k* has intra-round staleness *k*
    (the number of this round's merge events applied to the server since
    the update's round-start base).  The schedule keeps early arrivals as
    singleton events and coalesces the tail of the round into the last
    event the bound allows, so every update's intra-round staleness is ≤
    ``max_staleness``.  With ``max_staleness=0`` the whole round
    coalesces into one event — synchronous FedAvg.  Pure function of its
    two integers; the caller maps positions to clients via the simulated
    arrival order, keeping the whole schedule independent of scheduling.
    """
    if num_updates < 0:
        raise ValueError("num_updates must be >= 0")
    if max_staleness < 0:
        raise ValueError("max_staleness must be >= 0")
    if num_updates == 0:
        return []
    cut = min(num_updates, max_staleness + 1)
    events = [[i] for i in range(cut)]
    events[-1].extend(range(cut, num_updates))
    return events


def arrival_merge_events(costs_s: Sequence[float], max_staleness: int) -> List[List[int]]:
    """:func:`async_merge_schedule` over clients in simulated-arrival order
    (cost, then index — never wall clock); each event lists its members in
    ascending client index, which fixes its averages' reduction order."""
    order = sorted(range(len(costs_s)), key=lambda i: (costs_s[i], i))
    return [
        sorted(order[pos] for pos in event)
        for event in async_merge_schedule(len(costs_s), max_staleness)
    ]


def blend_into(server: StateDict, merged: StateDict, alpha: float) -> float:
    """Mix ``merged`` into ``server`` in place with rate ``alpha``.

    ``alpha >= 1`` replaces the touched keys outright (the exact-sync
    degenerate case); otherwise ``server <- server + alpha * (merged -
    server)``.  Only keys present in ``merged`` are touched.  In-place
    but order-fixed: replaying the same blend sequence reproduces the
    same server state bit for bit.  Returns the applied rate (clamped to
    1.0 on the replace path).
    """
    if alpha >= 1.0:
        for key, value in merged.items():
            server[key] = value
        return 1.0
    for key, value in merged.items():
        server[key] = server[key] + alpha * (value - server[key])
    return alpha


def merge_async_update(
    server: StateDict,
    states: Sequence[StateDict],
    weights: Sequence[float],
    round_weight: float,
    staleness: int,
    keys: Optional[Sequence[str]] = None,
) -> float:
    """Merge one event's client updates into ``server`` in place (FedAsync).

    The event's updates are weighted-averaged, then mixed into the server
    state with rate ``alpha = (event weight / round weight) / (1 +
    staleness)`` — the polynomial staleness attenuation of FedAsync (Xie
    et al., 2019).  ``alpha == 1`` (a single event carrying the whole
    round at staleness 0) replaces the server state outright, making the
    ``max_staleness=0`` schedule bit-identical to synchronous FedAvg.
    ``keys`` restricts the merge to a subset of state-dict keys (FedRBN
    merges its dual-BN statistics under a separate rule).  Returns the
    applied mixing rate.  Pure function of its arguments, so a replay in
    simulated-arrival order is independent of scheduling.
    """
    if round_weight <= 0:
        raise ValueError("round_weight must be positive")
    merged = weighted_average_states(states, weights, keys=keys)
    alpha = (float(sum(weights)) / round_weight) / (1.0 + staleness)
    return blend_into(server, merged, alpha)


def merge_async_partial(
    model: CascadeModel,
    partition: Partition,
    current_module: int,
    server_seg: StateDict,
    server_heads: Sequence[Optional[StateDict]],
    member_updates: Iterable[Tuple[StateDict, Optional[StateDict]]],
    member_assignments: Sequence[int],
    member_weights: Sequence[float],
    module_round_weights: Sequence[float],
    head_round_weights: Sequence[float],
    staleness: int,
    average_fn: Optional[Callable] = None,
) -> float:
    """One async merge event of FedProphet's partial average (Eq. 16/17).

    Each module span ``n >= current_module`` averages over the event
    members that trained it (``M_k >= n``, Eq. 16) and blends into
    ``server_seg`` with its own per-module rate ``alpha_n = (event
    trainer weight of module n / round trainer weight of module n) /
    (1 + staleness)``; head ``n`` does the same over members with
    ``M_k == n`` (Eq. 17) into ``server_heads[n]`` in place.  Modules and
    heads no event member trained are untouched.  With a single event
    carrying the whole round at staleness 0 every applied rate is exactly
    1, reproducing the synchronous :func:`aggregate_modules` /
    :func:`aggregate_heads` result bit for bit.  Deterministic: a pure
    in-place replay over simulated-arrival events — scheduling cannot
    change the result.  Returns the largest applied rate (0.0
    when the event touched nothing).

    ``member_updates`` yields each member's ``(segment state, head
    state)`` in member order and may be one-shot: each member folds into
    every span and head it trained as it arrives (per key in member
    order: the floats of averaging each span's trainers), so only the
    running averages stay alive.

    ``average_fn(states, weights, keys, base)`` overrides the per-module
    merge rule (the robust-aggregation hook; ``base`` is the module
    span's current server state, so ``norm_clip`` bounds displacement
    where the stale update actually lands); it needs every trainer's
    state at once, so the members are listed instead.  Heads keep the
    plain weighted average — they merge over ``M_k == n`` members only,
    a cohort usually too small for a robust statistic to be meaningful.
    """
    if len(member_assignments) != len(member_weights):
        raise ValueError("member lists must have equal length")
    plan = list(zip(member_assignments, member_weights))
    # The event trainer weight of every span (Eq. 16: M_k >= n) and head
    # (Eq. 17: M_k == n) this event merges into.
    modules = {
        n: float(sum(w for mk, w in plan if mk >= n))
        for n in range(current_module, len(partition))
        if module_round_weights[n] > 0 and any(mk >= n for mk, _ in plan)
    }
    heads = {
        n: float(sum(w for mk, w in plan if mk == n))
        for n, head in enumerate(server_heads)
        if head is not None and head_round_weights[n] > 0 and n in member_assignments
    }
    if any(total <= 0 for total in [*modules.values(), *heads.values()]):
        raise AggregationError("weights must sum to a positive value")
    keys = {n: atom_param_names(model, *partition[n]) for n in modules}
    if average_fn is not None:
        member_updates = list(member_updates)
    sums: Dict[int, StateDict] = {n: {} for n in modules}
    head_sums: Dict[int, StateDict] = {n: {} for n in heads}
    count = 0
    for state, head_state in member_updates:
        if count == len(plan):
            raise ValueError("member lists must have equal length")
        mk, w = plan[count]
        for n in modules:
            if n <= mk and average_fn is None:
                fold_state(sums[n], state, w / modules[n], keys[n])
        if mk in heads:
            fold_state(head_sums[mk], head_state, w / heads[mk], head_state)
        count += 1
        del state, head_state  # not pinned while the next member is produced
    if count != len(plan):
        raise ValueError("member lists must have equal length")
    applied = [0.0]
    for n, event_weight in modules.items():
        merged = sums[n]
        if average_fn is not None:
            trainers = [(u[0], w) for u, (mk, w) in zip(member_updates, plan) if mk >= n]
            base = {key: server_seg[key] for key in keys[n]}
            merged = average_fn([s for s, _ in trainers], [w for _, w in trainers], keys[n], base)
        alpha = (event_weight / module_round_weights[n]) / (1.0 + staleness)
        applied.append(blend_into(server_seg, merged, alpha))
    for n, event_weight in heads.items():
        alpha = (event_weight / head_round_weights[n]) / (1.0 + staleness)
        applied.append(blend_into(server_heads[n], head_sums[n], alpha))
    return max(applied)
