"""Population-scale virtual client engine: O(cohort) lazy materialisation.

Production FL samples a ~100-client cohort per round from a population of
millions; materialising every client up front is O(population) in memory
and startup time.  :class:`ClientPopulation` instead derives everything a
client is — shard indices, sample count, device profile — from
counter-derived RNG streams of ``(population_seed, cid)`` on first touch,
and holds the materialised :class:`FLClient` objects in a bounded
deterministic LRU.  Eviction provably cannot affect results: a client's
state is a pure function of ``(seed, cid)``, so rematerialising after an
eviction reproduces it bit for bit (the same move :mod:`repro.flsim.faults`
and :mod:`repro.flsim.threats` already make with per-``(round, cid)``
streams).

Two independent axes:

* **scheme** — how per-client shards are derived.  ``"partition"`` runs
  the legacy global :func:`~repro.data.partition.pathological_partition`
  pass (bit-identical shards to every pre-engine run); ``"virtual"``
  derives each shard per-cid from ``default_rng([SHARD_STREAM, seed,
  cid])`` with no global pass (O(dataset) preprocessing, O(1) per
  client), which is what makes ``num_clients=10_000_000`` tractable;
  ``"auto"`` picks ``partition`` while the population fits the dataset
  (``num_clients <= len(train)``) and ``virtual`` beyond it.
* **materialisation** — ``"eager"`` builds every ``FLClient`` at init
  (the legacy surface: ``population[i]``, iteration, ``len``);
  ``"lazy"`` builds clients on first touch and evicts least-recently-used
  ones beyond ``cache_size``.  Either way a cached client is its shard
  *indices*: the rows are gathered out of the training arrays on every
  ``.dataset`` access and held only by the work unit that asked, so the
  cache bounds clients, not data.

Cohort sampling is O(cohort) too: :func:`sample_cohort_ids` keeps numpy's
``Generator.choice`` for small populations (bit-compat with existing
seeds — its raw-draw count is data-dependent, so the stream cannot be
reproduced any other way) and switches to a sparse partial Fisher–Yates
above :data:`SMALL_POPULATION_COMPAT`, where ``choice`` would allocate an
O(population) permutation per round.
"""

from __future__ import annotations

import operator
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.data.partition import VirtualPartition, pathological_partition

#: Stream tags keeping the population's counter-derived RNG families
#: disjoint from each other and from the fault/threat streams.
SHARD_STREAM = 0x5A9D
AVAIL_STREAM = 0x41B6

#: Populations at or below this size keep the legacy
#: ``rng.choice(population, cohort, replace=False)`` cohort draw so
#: existing seeds stay bit-identical; larger populations use the
#: O(cohort) sparse Fisher–Yates draw (new seeds, so no compat debt).
SMALL_POPULATION_COMPAT = 1 << 16

POPULATION_SCHEMES = ("auto", "partition", "virtual")
MATERIALISATIONS = ("eager", "lazy")


def sample_cohort_ids(
    rng: np.random.Generator, population: int, cohort: int
) -> np.ndarray:
    """Uniform without-replacement cohort draw in O(cohort) memory.

    Small populations (``<= SMALL_POPULATION_COMPAT``) delegate to
    ``rng.choice`` — bit-identical to the historical sampler on the same
    generator state.  Large populations run a partial Fisher–Yates over a
    sparse swap map: ``cohort`` draws, O(cohort) memory, still exactly
    uniform over ordered ``cohort``-subsets.
    """
    if cohort > population:
        raise ValueError(f"cohort {cohort} exceeds population {population}")
    if population <= SMALL_POPULATION_COMPAT:
        return rng.choice(population, size=cohort, replace=False)
    swap: Dict[int, int] = {}
    out = np.empty(cohort, dtype=np.int64)
    for i in range(cohort):
        j = int(rng.integers(i, population))
        vi = swap.get(i, i)
        vj = swap.get(j, j)
        swap[i], swap[j] = vj, vi
        out[i] = vj
    return out


class FLClient:
    """One client: an id and its local shard.

    Built either from a concrete ``dataset`` (the historical surface,
    used by tests and the threat plan's poisoned copies), which
    ``.dataset`` returns as is, or from ``indices`` into a shared
    ``source`` dataset, in which case every ``.dataset`` access gathers
    a fresh copy of the rows and the client keeps none: the shard lives
    as long as the work unit training on it, and a cached client costs
    its indices only.  ``num_samples`` never gathers.
    """

    __slots__ = ("cid", "_dataset", "_indices", "_source")

    def __init__(
        self,
        cid: int,
        dataset: Optional[ArrayDataset] = None,
        *,
        indices: Optional[np.ndarray] = None,
        source: Optional[ArrayDataset] = None,
    ):
        if dataset is None and (indices is None or source is None):
            raise ValueError("FLClient needs a dataset or (indices, source)")
        self.cid = cid
        self._dataset = dataset
        self._indices = None if indices is None else np.asarray(indices)
        self._source = source

    @property
    def dataset(self) -> ArrayDataset:
        if self._dataset is not None:
            return self._dataset
        return self._source.subset(self._indices)

    @property
    def num_samples(self) -> int:
        if self._dataset is not None:
            return len(self._dataset)
        return len(self._indices)

    def __repr__(self) -> str:
        return f"FLClient(cid={self.cid}, num_samples={self.num_samples})"


class ClientPopulation:
    """The client population: lazy derivation, bounded LRU, O(cohort) draws.

    Exposes the sequence surface the rest of the engine historically used
    (``population[cid]``, ``len``, iteration) plus :meth:`client` (the
    LRU-tracked accessor the run loop uses), :meth:`sample_ids`,
    :meth:`available`, and cache :meth:`stats`.  The LRU holds ``(cid,
    indices)`` clients only, so lazy mode keeps O(cache) index arrays
    alive and no shard data.

    Determinism contract: everything a client is derives from
    ``(seed, cid)`` (scheme ``virtual``) or from the one legacy partition
    pass (scheme ``partition``), never from access order — so cache size,
    eviction pattern, materialisation mode and fusion width cannot affect
    results.
    """

    def __init__(
        self,
        train: ArrayDataset,
        num_clients: int,
        seed: int,
        scheme: str = "auto",
        materialisation: str = "eager",
        cache_size: Optional[int] = None,
        samples_per_client: Optional[int] = None,
        availability_fraction: Optional[float] = None,
        availability_period: int = 8,
        cohort_size: int = 10,
        pipeline_depth: int = 1,
    ):
        if scheme not in POPULATION_SCHEMES:
            raise ValueError(
                f"population scheme must be one of {POPULATION_SCHEMES}, "
                f"got {scheme!r}"
            )
        if materialisation not in MATERIALISATIONS:
            raise ValueError(
                f"client materialisation must be one of {MATERIALISATIONS}, "
                f"got {materialisation!r}"
            )
        if scheme == "auto":
            scheme = "partition" if num_clients <= len(train) else "virtual"
        if scheme == "partition" and num_clients > len(train):
            raise ValueError(
                f"population scheme 'partition' needs num_clients <= "
                f"len(train) ({num_clients} > {len(train)}); use 'virtual' "
                f"(per-cid derived shards, sampled with replacement)"
            )
        if scheme == "partition" and samples_per_client is not None:
            raise ValueError(
                f"samples_per_client={samples_per_client} has no effect under "
                f"population scheme 'partition' (also what 'auto' picks while "
                f"num_clients <= len(train)): the global pass sizes every "
                f"shard; use population_scheme='virtual'"
            )
        self.train = train
        self.num_clients = num_clients
        self.seed = seed
        self.scheme = scheme
        self.materialisation = materialisation
        self.availability_fraction = availability_fraction
        self.availability_period = availability_period

        if scheme == "partition":
            # The legacy global pass, shard *indices* only: bit-identical
            # shards to the historical eager constructor, but no data is
            # copied until a client's .dataset is read.
            self._shards: Optional[List[np.ndarray]] = pathological_partition(
                train.y, num_clients, rng=np.random.default_rng(seed)
            )
            self._virtual: Optional[VirtualPartition] = None
            self.samples_per_client: Optional[int] = None
            self.total_samples = int(sum(len(s) for s in self._shards))
        else:
            if samples_per_client is None:
                samples_per_client = len(train) // num_clients
                if samples_per_client < 1:
                    samples_per_client = min(64, len(train))
            self._shards = None
            self._virtual = VirtualPartition(train.y, samples_per_client)
            self.samples_per_client = int(samples_per_client)
            # Every virtual client holds exactly samples_per_client
            # samples, so the population total is analytic — no O(n) sum.
            self.total_samples = num_clients * self.samples_per_client

        if materialisation == "eager":
            # Unbounded by definition: the legacy surface keeps every
            # client alive (iteration hands out stable objects).
            self.cache_capacity: Optional[int] = None
        elif cache_size is not None:
            if cache_size < 1:
                raise ValueError("client_cache_size must be >= 1")
            self.cache_capacity = int(cache_size)
        else:
            # O(cohort): enough for every round a deep pipeline can have
            # in flight, with headroom so resampled clients usually hit.
            self.cache_capacity = max(64, 4 * cohort_size * max(1, pipeline_depth))

        self._cache: "OrderedDict[int, FLClient]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.peak_live = 0
        if materialisation == "eager":
            for cid in range(num_clients):
                self.client(cid)
            # Prefetching is construction, not cache traffic.
            self.hits = self.misses = 0

    # -- materialisation -----------------------------------------------------
    def _build(self, cid: int) -> FLClient:
        if self._shards is not None:
            indices = self._shards[cid]
        else:
            rng = np.random.default_rng([SHARD_STREAM, self.seed, cid])
            indices = self._virtual.shard_for(rng)
        return FLClient(cid=cid, indices=indices, source=self.train)

    def client(self, cid: int) -> FLClient:
        """The LRU-tracked accessor: materialise on miss, evict beyond cap.

        ``cid`` may be any integer type; the client is built with a Python
        ``int``, so its ``cid`` never depends on who touched it first.
        """
        cid = operator.index(cid)
        if not 0 <= cid < self.num_clients:
            raise IndexError(f"cid {cid} outside population of {self.num_clients}")
        c = self._cache.get(cid)
        if c is not None:
            self._cache.move_to_end(cid)
            self.hits += 1
            return c
        self.misses += 1
        c = self._build(cid)
        self._cache[cid] = c
        cap = self.cache_capacity
        if cap is not None:
            while len(self._cache) > cap:
                self._cache.popitem(last=False)
                self.evictions += 1
        if len(self._cache) > self.peak_live:
            self.peak_live = len(self._cache)
        return c

    def stats(self) -> Dict[str, int]:
        """Cache counters for the journal's ``sample`` events."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "live": len(self._cache),
            "peak_live": self.peak_live,
        }

    def describe(self) -> str:
        """The population clause of a run's verbose report."""
        cap = "unbounded" if self.cache_capacity is None else self.cache_capacity
        return (
            f"population: {self.num_clients} clients ({self.scheme}, "
            f"{self.materialisation}, cache cap {cap}, live {len(self._cache)}, "
            f"peak {self.peak_live}, hits {self.hits}, evictions {self.evictions})"
        )

    # -- availability --------------------------------------------------------
    def available(self, round_idx: int, cid: int) -> bool:
        """Whether ``cid`` is inside its availability window at ``round_idx``.

        Each client gets a periodic duty cycle: a window of
        ``round(availability_fraction * availability_period)`` consecutive
        rounds out of every ``availability_period``, phase-shifted by a
        counter-derived draw from ``(seed, cid)`` — a pure function, so
        availability composes with checkpoints, fault plans, and any
        fusion width without extra state.
        """
        frac = self.availability_fraction
        if frac is None:
            return True
        period = self.availability_period
        window = max(1, int(round(frac * period)))
        if window >= period:
            return True
        rng = np.random.default_rng([AVAIL_STREAM, self.seed, cid])
        phase = int(rng.integers(0, period))
        return (round_idx + phase) % period < window

    # -- cohort sampling -----------------------------------------------------
    def sample_ids(
        self, rng: np.random.Generator, cohort: int, round_idx: int
    ) -> np.ndarray:
        """Draw this round's cohort ids from ``rng`` in O(cohort).

        Without availability windows this is :func:`sample_cohort_ids`
        (bit-compat with the historical ``rng.choice`` for small
        populations).  With windows it rejection-samples uniformly over
        the round's *available* clients — deterministic because the
        rejected draws come from the same single ``rng`` stream.
        """
        if self.availability_fraction is None:
            return sample_cohort_ids(rng, self.num_clients, cohort)
        chosen: List[int] = []
        seen = set()
        frac = self.availability_fraction
        limit = max(10_000, int(100 * cohort / frac))
        for _ in range(limit):
            if len(chosen) >= cohort:
                break
            cid = int(rng.integers(0, self.num_clients))
            if cid in seen or not self.available(round_idx, cid):
                continue
            seen.add(cid)
            chosen.append(cid)
        if len(chosen) < cohort:
            raise RuntimeError(
                f"round {round_idx}: could not fill a cohort of {cohort} "
                f"from {self.num_clients} clients at availability "
                f"{frac} within {limit} draws"
            )
        return np.asarray(chosen, dtype=np.int64)

    # -- legacy sequence surface ---------------------------------------------
    def __len__(self) -> int:
        return self.num_clients

    def __getitem__(self, cid: int) -> FLClient:
        return self.client(cid)

    def __iter__(self) -> Iterator[FLClient]:
        for cid in range(self.num_clients):
            yield self.client(cid)
