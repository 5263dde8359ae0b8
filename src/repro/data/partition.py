"""Federated data partitioners (statistical heterogeneity).

The paper follows Shah et al. (2021): on each client, 80 % of the training
data belongs to ~20 % of the classes ("major" classes) and 20 % to the
rest: :func:`pathological_partition` deals a dataset out once,
:class:`VirtualPartition` derives each client's shard on its own for
populations larger than the dataset.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np


def pathological_partition(
    labels: np.ndarray,
    num_clients: int,
    major_data_frac: float = 0.8,
    major_class_frac: float = 0.2,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """The paper's 80/20 split: most data from a few "major" classes.

    Every client receives ``len(labels)/num_clients`` samples;
    ``major_data_frac`` of them are drawn from that client's randomly
    chosen ``major_class_frac`` of the classes, the rest uniformly from the
    remaining classes.  Sampling is without replacement per class pool,
    cycling through shuffled pools so every sample is assigned exactly once
    whenever possible.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    labels = np.asarray(labels)
    if not (0.0 < major_data_frac <= 1.0 and 0.0 < major_class_frac <= 1.0):
        raise ValueError("fractions must be in (0, 1]")
    num_classes = int(labels.max()) + 1
    num_major = max(1, int(round(major_class_frac * num_classes)))
    per_client = len(labels) // num_clients

    # Shuffled per-class index pools consumed round-robin.
    pools = [rng.permutation(np.where(labels == c)[0]).tolist() for c in range(num_classes)]

    def take(classes: np.ndarray, count: int) -> List[int]:
        out: List[int] = []
        classes = list(classes)
        attempts = 0
        while len(out) < count and attempts < 10 * count:
            c = classes[attempts % len(classes)]
            if pools[c]:
                out.append(pools[c].pop())
            attempts += 1
        if len(out) < count:
            # fall back to any class with data left
            for c in range(num_classes):
                while pools[c] and len(out) < count:
                    out.append(pools[c].pop())
        return out

    shards: List[np.ndarray] = []
    for _ in range(num_clients):
        major = rng.choice(num_classes, size=num_major, replace=False)
        minor = np.setdiff1d(np.arange(num_classes), major)
        n_major = int(round(major_data_frac * per_client))
        idx = take(major, n_major) + take(minor, per_client - n_major)
        shards.append(np.sort(np.asarray(idx, dtype=np.int64)))
    return shards


class VirtualPartition:
    """Per-client pathological shards derived independently per cid.

    The population-scale counterpart of :func:`pathological_partition`:
    the same 80/20 major/minor class skew, but each client's shard is a
    pure function of the RNG it is handed (the caller derives it from
    ``(population_seed, cid)``) — no shared class pools, no global pass,
    so deriving client *i* costs O(samples_per_client) regardless of the
    population size.  Samples are drawn **with replacement** from the
    per-class index pools (shared pools consumed without replacement are
    inherently order-dependent, which is exactly what a per-cid derivation
    must not be), so shards overlap for populations larger than the
    dataset — the regime this class exists for.

    Construction is one O(dataset) preprocessing pass (a stable
    class-sort of the labels); :meth:`shard_for` is then pure vectorised
    gathering.
    """

    def __init__(
        self,
        labels: np.ndarray,
        samples_per_client: int,
        major_data_frac: float = 0.8,
        major_class_frac: float = 0.2,
    ):
        labels = np.asarray(labels)
        if samples_per_client < 1:
            raise ValueError("samples_per_client must be >= 1")
        if not (0.0 < major_data_frac <= 1.0 and 0.0 < major_class_frac <= 1.0):
            raise ValueError("fractions must be in (0, 1]")
        self.samples_per_client = int(samples_per_client)
        self.num_classes = int(labels.max()) + 1
        self.num_major = max(1, int(round(major_class_frac * self.num_classes)))
        self.n_major = min(
            self.samples_per_client,
            int(round(major_data_frac * self.samples_per_client)),
        )
        # Stable class-sorted view of the dataset: class c's samples sit at
        # class_order[class_offsets[c] : class_offsets[c] + class_counts[c]].
        self.class_order = np.argsort(labels, kind="stable").astype(np.int64)
        self.class_counts = np.bincount(labels, minlength=self.num_classes)
        self.class_offsets = np.concatenate(
            ([0], np.cumsum(self.class_counts)[:-1])
        ).astype(np.int64)
        self._nonempty = np.flatnonzero(self.class_counts > 0)
        if len(self._nonempty) == 0:
            raise ValueError("labels must contain at least one sample")

    def shard_for(self, rng: np.random.Generator) -> np.ndarray:
        """One client's sorted shard indices, O(samples_per_client)."""
        major = rng.choice(self.num_classes, size=self.num_major, replace=False)
        is_major = np.zeros(self.num_classes, dtype=bool)
        is_major[major] = True
        major_ok = self._nonempty[is_major[self._nonempty]]
        minor_ok = self._nonempty[~is_major[self._nonempty]]
        n = self.samples_per_client
        if len(minor_ok) == 0:
            n_major = n
        elif len(major_ok) == 0:
            n_major = 0
        else:
            n_major = self.n_major
        parts = []
        if n_major:
            parts.append(major_ok[rng.integers(0, len(major_ok), size=n_major)])
        if n - n_major:
            parts.append(minor_ok[rng.integers(0, len(minor_ok), size=n - n_major)])
        cls = np.concatenate(parts)
        pos = rng.integers(0, self.class_counts[cls])
        return np.sort(self.class_order[self.class_offsets[cls] + pos])


def public_private_split(
    labels: np.ndarray,
    public_frac: float = 0.1,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Hold out a public subset (used by knowledge-distillation baselines)."""
    rng = rng if rng is not None else np.random.default_rng(0)
    if not (0.0 < public_frac < 1.0):
        raise ValueError("public_frac must be in (0, 1)")
    order = rng.permutation(len(labels))
    n_pub = max(1, int(round(public_frac * len(labels))))
    return np.sort(order[:n_pub]), np.sort(order[n_pub:])
