"""Round execution engine: parallel client training with serial semantics.

Clients within a federated round are embarrassingly parallel — each one's
local training is a pure function of (round-start global state, its local
shard, its own counter-derived RNG) — yet the seed ran them strictly
sequentially.  :class:`RoundExecutor` turns the per-client loop of every
``run_round`` into independent work units executed by one of three
backends:

* ``serial``  — the default: work runs inline in the caller's thread;
* ``thread``  — a **persistent** pool of worker threads, spun up lazily on
  first use and reused across every round and evaluation (pool
  construction is pure overhead on short rounds).  NumPy's BLAS releases
  the GIL inside the matmuls that dominate this workload (convolution
  GEMMs, batched attacks), so threads yield real speedups without
  any pickling;
* ``process`` — ``fork()``-based workers.  Each child inherits a
  copy-on-write snapshot of the experiment (global model, shards, prefix
  cache) at round start, trains its stripe of the work, and ships the
  resulting segment states back through a pipe.  Sidesteps the GIL
  entirely; POSIX only.

**Client fusion** is how a worker runs its share on *every* backend, not
a backend of its own: homogeneous clients are grouped into **fusion
cohorts** and each cohort runs as *one* stacked forward/backward
(per-client weight slabs against a ``(K·B, ...)`` activation layout — see
:mod:`repro.nn.cohort`).  Work functions opt in by being a
:class:`CohortFn` (plain functions run per item); cohorts only form among
items with equal ``group_key`` (same architecture/segment/mask *and* the
same local batch schedule), everything else stays a singleton.  The
cohort width is ``min(executor fusion_width, CohortFn.width)``: stacking
pays only while the stacked activations are small (per-call overhead is
what it amortises; K weight/gradient/momentum slabs and a K× activation
stack are what it costs), so an experiment left at ``fusion_width=None``
derives its work function's width from the model's activation footprint
(:func:`derived_fusion_width`), while an explicit ``fusion_width`` is
obeyed as given and ``fusion_width=1`` is the per-item reference path.
The cohort is the unit :class:`~repro.flsim.scheduler.FLScheduler` hands
to a worker: run inline (``serial``), one pool task each (``thread``), or
striped over one fork region (``process``).

Determinism contract: **parallel and fused output is bit-identical to
the serial per-item path**.
Work items are striped over workers deterministically, results are
returned in the order of the input list (which fixes the aggregation
order), and per-client RNGs are derived from ``(seed, round, cid)`` — so
neither scheduling nor worker identity can leak into the result.  The
experiments guarantee the remaining piece (no shared mutable model) by
giving each worker *slot* its own model workspace: the work function
receives ``(item, slot)`` and slot ``s`` is never used by two concurrent
units.  The process backend always passes slot 0 because each forked
child's "global" model is already a private copy.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, List, Optional, Sequence, Tuple

BACKENDS = ("serial", "thread", "process")

#: Upper bound of a derived fusion-cohort width, and the executor's width
#: when none is configured.  Past 8 the per-call overhead is already
#: amortised on the smallest tensors measured (docs/benchmarks.md § PR 16).
DEFAULT_FUSION_WIDTH = 8

#: Bytes of stacked per-iteration activations (``K · 4·B·A``) a derived
#: cohort may hold.  The measured regimes are 13× apart — 54 KiB per client
#: (tiny CNN, fusion buys 2×) and 182 KiB (VGG11×0.25 at B=8, 1.5×)
#: against ≥ 729 KiB (every VGG geometry at B=32, ≤ 1.1× for 1.3–2.5× peak
#: RSS) — so any value in [730 KiB, 1,458 KiB) decides all seven measured
#: points the same way (docs/benchmarks.md § PR 22).
STACKED_ACTIVATION_BUDGET = 1 << 20


def derived_fusion_width(per_client_bytes: int) -> int:
    """Cohort width for clients whose activations take ``per_client_bytes``.

    ``clamp(STACKED_ACTIVATION_BUDGET // (4·B·A), 1, DEFAULT_FUSION_WIDTH)``
    with ``4·B·A`` the paper's activation term (§6.1, Eq. 7) of one client.
    A pure function of shapes, so cohort composition stays reproducible.
    """
    fit = STACKED_ACTIVATION_BUDGET // max(1, per_client_bytes)
    return max(1, min(DEFAULT_FUSION_WIDTH, fit))


class CohortFn:
    """A slot-aware work function that also knows how to run fused cohorts.

    Cohort dispatch (:class:`~repro.flsim.scheduler.FLScheduler`) needs
    three things from a round's work function; everything else treats a
    ``CohortFn`` as the plain per-item callable:

    * ``fn(item, slot)`` — the per-item path (singleton cohorts,
      ``fusion_width=1``, and :meth:`RoundExecutor.map`);
    * ``cohort_fn(items, slot)`` — run K homogeneous items as one fused
      cohort, returning their results in item order, bit-identical to K
      ``fn`` calls;
    * ``group_key(item)`` — hashable fusion key.  Items may be fused only
      when their keys are equal; ``None`` pins an item to the per-item path
      (heterogeneous segment/mask shapes, ragged batch schedules).

    ``width`` caps this function's cohorts below the executor's
    ``fusion_width`` (``None``: no cap of its own) — the width its
    experiment derived from the tensors the cohort would stack.
    """

    def __init__(
        self,
        fn: Callable[[Any, int], Any],
        cohort_fn: Callable[[List[Any], int], List[Any]],
        group_key: Optional[Callable[[Any], Any]] = None,
        width: Optional[int] = None,
    ):
        if width is not None and width < 1:
            raise ValueError("width must be >= 1")
        self.fn = fn
        self.cohort_fn = cohort_fn
        self._group_key = group_key
        self.width = width

    def __call__(self, item: Any, slot: int) -> Any:
        return self.fn(item, slot)

    def run_cohort(self, items: List[Any], slot: int) -> List[Any]:
        return self.cohort_fn(items, slot)

    def group_key(self, item: Any) -> Any:
        return self._group_key(item) if self._group_key is not None else None

# Fork-inherited work description for the process backend.  Set immediately
# before the worker pool is forked and cleared after the round; children
# read it from their copy-on-write memory image, so the work function never
# has to be picklable.
_FORK_TASK: Optional[Tuple[Callable[[Any, int], Any], List[Any]]] = None


def _run_fork_stripe(args: Tuple[int, int]) -> List[Tuple[int, Any]]:
    """Child-side trampoline: run stripe ``w`` of the inherited work list."""
    w, num_workers = args
    fn, items = _FORK_TASK
    return [(i, fn(items[i], 0)) for i in range(w, len(items), num_workers)]


class RoundExecutor:
    """Maps a slot-aware work function over a round's client work items.

    Parameters
    ----------
    backend:
        One of ``"serial"``, ``"thread"``, ``"process"``.
    max_workers:
        Parallelism cap; defaults to ``os.cpu_count()``.  The effective
        worker count for a round is ``min(max_workers, len(items))``.
    fusion_width:
        Upper bound of the fusion-cohort width K on every backend (default
        :data:`DEFAULT_FUSION_WIDTH`); a :class:`CohortFn` carrying its own
        ``width`` stacks ``min`` of the two, and ``1`` disables fusion.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        fusion_width: Optional[int] = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown executor backend {backend!r}; expected one of {BACKENDS}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if fusion_width is not None and fusion_width < 1:
            raise ValueError("fusion_width must be >= 1")
        if backend == "process" and "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError(
                "the process backend requires fork(); use backend='thread' on "
                "this platform"
            )
        self.backend = backend
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        self.fusion_width = (
            fusion_width if fusion_width is not None else DEFAULT_FUSION_WIDTH
        )
        self._thread_pool: Optional[ThreadPoolExecutor] = None

    @property
    def thread_pool(self) -> ThreadPoolExecutor:
        """The persistent worker-thread pool, created lazily on first use.

        One pool per executor, shared by every ``map`` call and by the
        :class:`~repro.flsim.scheduler.FLScheduler` riding on top, so
        rounds and eval phases stop paying pool spin-up/tear-down.  The
        process backend still forks per parallel region — the fork *is*
        the copy-on-write snapshot of round-start state, so a persistent
        child pool would read stale memory.
        """
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-exec"
            )
        return self._thread_pool

    def close(self) -> None:
        """Shut down the persistent thread pool (idempotent)."""
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None

    def __enter__(self) -> "RoundExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def workers_for(self, num_items: int) -> int:
        """Effective worker count for a round of ``num_items`` work units.

        A pure function of ``(max_workers, num_items)`` — never of load
        or scheduling — so stripe assignments derived from it are
        reproducible.
        """
        return max(1, min(self.max_workers, num_items))

    def forks_for(self, num_items: int) -> bool:
        """Whether :meth:`map` will actually fork for this many items.

        The process backend falls back to the caller's thread when a
        single worker suffices; callers merging child-side state (cache
        entries, counter deltas) must mirror that dispatch exactly or they
        would double-count in-process work.
        """
        return self.backend == "process" and self.workers_for(num_items) > 1

    @property
    def pooled(self) -> bool:
        """Whether this backend runs work through the persistent thread pool.

        The scheduler and the async pipeline key their concurrency
        structure on this.
        """
        return self.backend == "thread" and self.max_workers > 1

    def slots_for(self, num_items: int) -> List[int]:
        """The worker-slot ids :meth:`map` will hand to the work function.

        Experiments pre-sync one model workspace per slot before launching
        the round, so this must exactly cover what ``map`` uses: all stripe
        ids for the thread backend (fused cohorts occupy a subset of its
        stripes), slot 0 otherwise (the serial loop runs in the caller's
        workspace; forked children own private copies).
        """
        if self.backend == "thread":
            return list(range(self.workers_for(num_items)))
        return [0]

    def plan_cohorts(self, fn: CohortFn, items: Sequence[Any]) -> List[List[int]]:
        """Deterministic fusion plan: item indices grouped into cohorts.

        Items sharing a non-``None`` ``group_key`` coalesce (in input
        order) into chunks of at most ``min(fusion_width, fn.width)``;
        everything else is a singleton.  A pure function of ``(keys,
        widths)`` — load, scheduling, and worker count cannot leak into
        cohort composition.
        """
        width = self.fusion_width
        if fn.width is not None:
            width = min(width, fn.width)
        groups: dict = {}
        singletons: List[List[int]] = []
        order: List[Any] = []
        for i, item in enumerate(items):
            key = fn.group_key(item)
            if key is None:
                singletons.append([i])
                continue
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(i)
        cohorts: List[List[int]] = list(singletons)
        for key in order:
            idxs = groups[key]
            for start in range(0, len(idxs), width):
                cohorts.append(idxs[start : start + width])
        cohorts.sort(key=lambda c: c[0])
        return cohorts

    def map(self, fn: Callable[[Any, int], Any], items: Sequence[Any]) -> List[Any]:
        """Run ``fn(item, slot)`` for every item; results in input order.

        Items are striped over workers (worker ``w`` handles items
        ``w, w + W, ...``), so the assignment of items to slots is a pure
        function of the item index and the worker count.  Any work-unit
        exception propagates to the caller.  ``map`` never fuses: a
        :class:`CohortFn` runs per item here — cohort dispatch lives in
        :class:`~repro.flsim.scheduler.FLScheduler`, which every training
        round goes through (``map`` serves the fork regions and the
        barrier eval path, both with plain functions).
        """
        items = list(items)
        if not items:
            return []
        if self.backend == "serial" or self.workers_for(len(items)) == 1:
            return [fn(item, 0) for item in items]
        if self.backend == "thread":
            return self._map_thread(fn, items)
        return self._map_process(fn, items)

    # -- backends ----------------------------------------------------------
    def _map_thread(self, fn, items: List[Any]) -> List[Any]:
        num_workers = self.workers_for(len(items))
        results: List[Any] = [None] * len(items)

        def run_stripe(w: int) -> None:
            for i in range(w, len(items), num_workers):
                results[i] = fn(items[i], w)

        futures = [self.thread_pool.submit(run_stripe, w) for w in range(num_workers)]
        for future in futures:
            future.result()
        return results

    def _map_process(self, fn, items: List[Any]) -> List[Any]:
        global _FORK_TASK
        num_workers = self.workers_for(len(items))
        ctx = multiprocessing.get_context("fork")
        _FORK_TASK = (fn, items)
        try:
            with ctx.Pool(processes=num_workers) as pool:
                stripes = pool.map(
                    _run_fork_stripe,
                    [(w, num_workers) for w in range(num_workers)],
                    chunksize=1,
                )
        finally:
            _FORK_TASK = None
        results: List[Any] = [None] * len(items)
        for stripe in stripes:
            for i, result in stripe:
                results[i] = result
        return results
