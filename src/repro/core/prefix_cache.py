"""Frozen-prefix activation cache for cascade training.

During a module-m training stage, the cascade prefix (atoms before the
current module) is *frozen*: its parameters are fixed for the whole stage
and it always runs in eval mode, so the feature ``z_{m-1}`` it produces
for a given sample is a pure function of (prefix weights, sample).  The
seed implementation nevertheless re-ran ``model.forward_until`` for every
local-training batch — and client datasets are small enough that each
sample is revisited several times per round (multiple local epochs) and
again on every round the client is sampled.

:class:`PrefixCache` memoises those prefix forwards at *per-sample*
granularity, keyed by ``(client key, prefix length)``, so cache hits
survive the data loader's per-epoch reshuffling (batch composition
changes every epoch; sample identity does not).  Lookups return
bit-identical features to a fresh forward because every per-sample
computation in the substrate (the conv's per-sample GEMM, eval-mode BN) is
independent of batch composition.

Invalidation is **version-keyed**.  The cache carries a prefix-version
counter; every entry is stamped with the version it was filled under, and
:meth:`bump_version` advances the counter (dropping all entries) whenever
the frozen prefix actually changes.  :class:`repro.core.prophet.FedProphet`
bumps it once per *module stage* — aggregation during a stage only touches
atoms at or after the current module, so the prefix is constant across all
of a stage's rounds and clients re-sampled in later rounds hit entries
filled in earlier ones.  (PR 1 invalidated every round, turning all those
cross-round lookups into recomputation.)

Thread-safety: the round execution engine runs one ``fetch`` per client
concurrently.  Keys are per-client so two workers never fill the same
entry, but the entry table, counters, and evictions are shared; a lock
guards that bookkeeping while the expensive ``forward_fn`` call runs
outside it.  If a concurrent eviction drops an entry mid-fetch the fetch
still returns correct features from its private reference — only the
cached copy is lost.

Process backend: forked workers inherit a snapshot of the cache and fill
their private copies; :meth:`export_entry` / :meth:`adopt_entry` let the
parent merge a child's freshly-computed rows back in so the next round's
forks start warm.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Optional, Tuple

import numpy as np


class _Entry:
    """Lazily-allocated per-sample feature store for one (client, prefix)."""

    __slots__ = ("data", "filled", "version")

    def __init__(self, num_samples: int, version: int):
        self.data: Optional[np.ndarray] = None
        self.filled = np.zeros(num_samples, dtype=bool)
        self.version = version

    def nbytes(self) -> int:
        return int(self.data.nbytes) if self.data is not None else 0


class PrefixCache:
    """Keyed per-sample memoisation of frozen-prefix forward passes.

    Parameters
    ----------
    max_bytes:
        Soft capacity; when allocating a new entry would exceed it, the
        oldest entries are evicted first (insertion order).  ``None``
        means unbounded.
    """

    def __init__(self, max_bytes: Optional[int] = 512 * 1024 * 1024):
        self.max_bytes = max_bytes
        self.version = 0
        self._entries: Dict[Hashable, _Entry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- bookkeeping -------------------------------------------------------
    def nbytes(self) -> int:
        return sum(e.nbytes() for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / total if total else 0.0,
            "entries": len(self._entries),
            "bytes": self.nbytes(),
            "invalidations": self.invalidations,
            "version": self.version,
        }

    def bump_version(self) -> int:
        """Advance the prefix version and drop all cached activations.

        Call when the frozen prefix's weights actually change — in
        FedProphet, once per module stage.  Returns the new version.
        """
        with self._lock:
            self.version += 1
            self._entries.clear()
            self.invalidations += 1
            return self.version

    def invalidate(self) -> None:
        """Drop all cached activations (the frozen prefix changed)."""
        self.bump_version()

    def _evict_for(self, key: Hashable, incoming_bytes: int) -> None:
        """Evict oldest entries (never ``key`` itself) to make room."""
        if self.max_bytes is None:
            return
        for victim in list(self._entries):
            if self.nbytes() + incoming_bytes <= self.max_bytes:
                break
            if victim != key:
                del self._entries[victim]

    def _ensure_entry_data(
        self, key: Hashable, entry: _Entry, feature_shape, dtype, num_samples: int
    ) -> bool:
        """Allocate ``entry.data`` within the budget (lock held by caller).

        Returns False — and drops the entry — when a full entry of this
        shape could never fit under ``max_bytes``; evicting everyone else
        for a cache that cannot be retained would only thrash.
        """
        if entry.data is not None:
            return True
        entry_bytes = np.dtype(dtype).itemsize * num_samples * int(
            np.prod(feature_shape)
        )
        if self.max_bytes is not None and entry_bytes > self.max_bytes:
            self._entries.pop(key, None)
            return False
        self._evict_for(key, entry_bytes)
        entry.data = np.empty((num_samples,) + tuple(feature_shape), dtype=dtype)
        return True

    # -- the lookup --------------------------------------------------------
    def fetch(
        self,
        key: Hashable,
        indices: np.ndarray,
        x: np.ndarray,
        forward_fn: Callable[[np.ndarray], np.ndarray],
        num_samples: int,
    ) -> np.ndarray:
        """Prefix features for dataset rows ``indices`` (inputs ``x``).

        Rows already cached under ``key`` at the current prefix version are
        returned from the store; the rest are computed in one batched
        ``forward_fn`` call and cached.  The returned array is a fresh copy
        — callers may hand it to attacks that build perturbed views without
        aliasing the cache.
        """
        indices = np.asarray(indices)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.version != self.version:
                entry = _Entry(num_samples, self.version)
                self._entries[key] = entry
            missing = ~entry.filled[indices]
        if missing.any():
            z_new = forward_fn(x[missing] if not missing.all() else x)
            with self._lock:
                if not self._ensure_entry_data(
                    key, entry, z_new.shape[1:], z_new.dtype, num_samples
                ):
                    # Uncacheable: just pass the computation through.
                    self.misses += int(missing.sum())
                    if missing.all():
                        return z_new
                    raise AssertionError(
                        "uncacheable entry can only be partially filled if "
                        "it was previously stored"
                    )
                rows = indices[missing]
                entry.data[rows] = z_new
                entry.filled[rows] = True
                self.misses += int(missing.sum())
        with self._lock:
            self.hits += int((~missing).sum())
        return entry.data[indices]

    def fetch_stacked(
        self,
        keys,
        indices_list,
        xs,
        forward_fn: Callable[[np.ndarray], np.ndarray],
        num_samples_list,
    ):
        """K clients' prefix features with one fused forward (fusion cohorts).

        The client-batched executor concatenates K per-client batches into
        a single ``(K·B, ...)`` stack; this fetch mirrors that: it collects
        the *union* of the K clients' uncached rows, computes them in one
        ``forward_fn`` call, and scatters the results back into the
        per-client entries.  Returns the K feature arrays in client order,
        each equal to what :meth:`fetch` would return — the frozen prefix
        is eval-mode and per-sample deterministic, so features do not
        depend on batch composition.
        """
        indices_list = [np.asarray(ix) for ix in indices_list]
        entries = []
        missings = []
        with self._lock:
            for key, indices, num_samples in zip(keys, indices_list, num_samples_list):
                entry = self._entries.get(key)
                if entry is None or entry.version != self.version:
                    entry = _Entry(num_samples, self.version)
                    self._entries[key] = entry
                entries.append(entry)
                missings.append(~entry.filled[indices])
        outputs = [None] * len(keys)
        if any(m.any() for m in missings):
            z_all = forward_fn(
                np.concatenate([x[m] for x, m in zip(xs, missings) if m.any()])
            )
            offset = 0
            with self._lock:
                for i, (key, entry, indices, missing, num_samples) in enumerate(
                    zip(keys, entries, indices_list, missings, num_samples_list)
                ):
                    count = int(missing.sum())
                    if count == 0:
                        continue
                    z_new = z_all[offset : offset + count]
                    offset += count
                    self.misses += count
                    if not self._ensure_entry_data(
                        key, entry, z_new.shape[1:], z_new.dtype, num_samples
                    ):
                        # Uncacheable: pass the computation through, as in
                        # the serial fetch.
                        if missing.all():
                            outputs[i] = z_new.copy()
                            continue
                        raise AssertionError(
                            "uncacheable entry can only be partially filled "
                            "if it was previously stored"
                        )
                    rows = indices[missing]
                    entry.data[rows] = z_new
                    entry.filled[rows] = True
        with self._lock:
            for i, (entry, indices, missing) in enumerate(
                zip(entries, indices_list, missings)
            ):
                self.hits += int((~missing).sum())
                if outputs[i] is None:
                    outputs[i] = entry.data[indices]
        return outputs

    # -- cross-process merging ---------------------------------------------
    def adopt_counters(self, hits: int, misses: int) -> None:
        """Fold a forked worker's hit/miss *deltas* into this cache.

        Counters accrue in whichever process ran the lookups; a round or
        evaluation executed on the process backend therefore leaves the
        parent's counters untouched.  Workers snapshot ``(hits, misses)``
        around their work and ship the difference back so ``stats()``
        reflects the whole round in every backend.
        """
        with self._lock:
            self.hits += int(hits)
            self.misses += int(misses)

    def export_entry(
        self, key: Hashable
    ) -> Optional[Tuple[int, np.ndarray, np.ndarray]]:
        """Snapshot ``(version, data, filled)`` of one entry, or ``None``.

        Used by forked round workers to ship freshly-computed activations
        back to the parent process (the arrays cross a pickle boundary, so
        no copy is taken here).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.data is None or not entry.filled.any():
                return None
            return entry.version, entry.data, entry.filled

    def adopt_rows(
        self,
        key: Hashable,
        version: int,
        rows: np.ndarray,
        data: np.ndarray,
        num_samples: int,
    ) -> bool:
        """Merge a worker's freshly-computed feature *rows* into an entry.

        Cheaper than :meth:`export_entry`/:meth:`adopt_entry` when a forked
        worker filled only a slice of a shared entry (eval shards of one
        validation set): only the slice crosses the process boundary,
        instead of the whole entry once per shard.  ``data`` holds the
        features of dataset rows ``rows`` in order; already-filled rows
        are left untouched (they are bit-identical by construction).
        """
        rows = np.asarray(rows)
        with self._lock:
            if version != self.version or len(rows) == 0:
                return False
            entry = self._entries.get(key)
            if entry is None or entry.version != version:
                entry = _Entry(num_samples, version)
                self._entries[key] = entry
            if not self._ensure_entry_data(
                key, entry, data.shape[1:], data.dtype, num_samples
            ):
                return False
            new = ~entry.filled[rows]
            if new.any():
                entry.data[rows[new]] = data[new]
                entry.filled[rows[new]] = True
            return True

    def adopt_entry(
        self, key: Hashable, version: int, data: np.ndarray, filled: np.ndarray
    ) -> bool:
        """Merge an exported entry into this cache; returns True if adopted.

        Stale versions are ignored.  When the key already exists only the
        rows this cache has not filled yet are copied, so a parent never
        overwrites activations it already holds (they are bit-identical by
        construction anyway).  The caller must own ``data`` exclusively
        (true for arrays received over a process boundary).
        """
        with self._lock:
            if version != self.version:
                return False
            entry = self._entries.get(key)
            if entry is None:
                if self.max_bytes is not None and data.nbytes > self.max_bytes:
                    return False
                self._evict_for(key, data.nbytes)
                entry = _Entry(len(filled), version)
                entry.data = data
                entry.filled = filled.copy()
                self._entries[key] = entry
                return True
            if entry.data is None:
                if self.max_bytes is not None and data.nbytes > self.max_bytes:
                    return False
                self._evict_for(key, data.nbytes)
                entry.data = data
                entry.filled = filled.copy()
                return True
            new_rows = filled & ~entry.filled
            if new_rows.any():
                entry.data[new_rows] = data[new_rows]
                entry.filled[new_rows] = True
            return True
