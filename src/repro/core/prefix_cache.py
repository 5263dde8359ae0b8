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
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

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
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: While a cohort whose fills another process adopts runs: ``(rows
        #: filled, hits, misses)`` since :meth:`record_fills`; ``None`` elsewhere.
        self._fills: Optional[tuple] = None

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
        """Allocate ``entry.data`` within the budget.

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
        entry = self._entries.get(key)
        if entry is None or entry.version != self.version:
            entry = _Entry(num_samples, self.version)
            self._entries[key] = entry
        missing = ~entry.filled[indices]
        self.misses += int(missing.sum())
        self.hits += int((~missing).sum())
        if missing.any():
            z_new = forward_fn(x[missing] if not missing.all() else x)
            if not self._ensure_entry_data(
                key, entry, z_new.shape[1:], z_new.dtype, num_samples
            ):
                # Uncacheable (so never filled: every row missed): pass the
                # computation through.
                return z_new
            rows = indices[missing]
            entry.data[rows] = z_new
            entry.filled[rows] = True
            if self._fills is not None:
                self._fills[0].append((key, entry.version, num_samples, rows, z_new))
        return entry.data[indices]

    # -- round workers -----------------------------------------------------
    def record_fills(self) -> None:
        """Start recording what this process fills (a cohort of a split group)."""
        self._fills = ([], self.hits, self.misses)

    def take_fills(self) -> tuple:
        """Stop recording: the rows filled and hits/misses counted since
        :meth:`record_fills`."""
        rows, hits, misses = self._fills
        self._fills = None
        return rows, self.hits - hits, self.misses - misses

    def adopt_fills(self, fills: tuple) -> None:
        """Take another process's :meth:`take_fills` in, as if its fetches ran here.

        Rows filled under another prefix version are dropped; the counters
        add up, so ``stats()`` reads as a run without workers.
        """
        rows, hits, misses = fills
        self.hits += hits
        self.misses += misses
        for key, version, num_samples, idx, z in rows:
            if version != self.version:
                continue
            entry = self._entries.get(key)
            if entry is None or entry.version != self.version:
                entry = self._entries[key] = _Entry(num_samples, self.version)
            if self._ensure_entry_data(key, entry, z.shape[1:], z.dtype, num_samples):
                entry.data[idx] = z
                entry.filled[idx] = True

    def fetch_stacked(
        self,
        keys,
        indices_list,
        xs,
        forward_fn: Callable[[np.ndarray], np.ndarray],
        num_samples_list,
    ):
        """K clients' :meth:`fetch`, in client order.

        No caller fuses FedProphet clients (each trains alone), so this is
        one :meth:`fetch` per client; it stays as the name the benchmark's
        span table binds.
        """
        return [
            self.fetch(key, indices, x, forward_fn, num_samples)
            for key, indices, x, num_samples in zip(keys, indices_list, xs, num_samples_list)
        ]
