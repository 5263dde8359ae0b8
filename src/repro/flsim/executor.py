"""Round execution engine: client work units, run cohort by cohort on every core.

Clients within a federated round are independent — each one's local
training is a pure function of (round-start global state, its local
shard, its own counter-derived RNG).  :class:`RoundExecutor` is the one
class that plans and runs them: cohort by cohort, the caller running the
head of the plan inline while forked workers run its tail.

**Client fusion** is how the engine runs its share: homogeneous clients
are grouped into **fusion cohorts** and each cohort runs as *one* stacked
forward/backward (per-client weight slabs against a ``(K·B, ...)``
activation layout — see :mod:`repro.nn.cohort`).  Work functions opt in by
being a :class:`CohortFn` (plain functions run one item at a time);
cohorts only form among items with equal ``group_key`` (same
architecture/segment/mask *and* the same local batch schedule),
everything else is a cohort of one.
The cohort width is the executor's ``fusion_width``, resolved once per
experiment: stacking pays only while the stacked activations are small
(per-call overhead is what it amortises; K weight/gradient/momentum slabs
and a K× activation stack are what it costs), so an experiment left at
``fusion_width=None`` derives it from the model's activation footprint
(:func:`derived_fusion_width`), while an explicit ``fusion_width`` is
obeyed as given and ``fusion_width=1`` runs every client as a cohort of
one on the serial layout (no slab, no batch copy).

**Round workers** are how a group uses the host's other cores: at a
group's first pull the executor forks one worker per spare core
(:func:`spare_cores`, at most that many alive per process), each running
a contiguous tail of the cohort plan, while the caller runs the head
inline.  A worker pickles one cohort's results per frame and the caller
reads a frame only when it pulls that cohort, so results are still handed
out one cohort at a time, in plan order.  Every item carries its modelled
FLOPs (a client its training, an evaluation shard its attack passes), the
plan is cut into runs of equal cost, and workers fork only when each
one's share, and the work taken off the caller's path, model more than
:data:`FORK_FLOOR_FLOPS` and the OpenBLAS numpy loaded can be pinned to
one thread (:class:`_Blas`) — two processes running two BLAS threads each
on two cores ran 3–4× slower than one thread each.

Determinism contract: **fused output is bit-identical to cohorts of
one**, and a worker's output to the caller's.  Results are keyed by
their position in the input list (which fixes the aggregation order),
and per-client RNGs are derived from ``(seed, round, cid)`` — so neither
cohort composition nor the process a cohort ran in can leak into the
result.
"""

from __future__ import annotations

import ctypes
import io
import math
import os
import pickle
import queue
import signal
import struct
import threading
import traceback
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


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


#: Modelled FLOPs a forked worker's share, and the work it takes off the
#: caller's path, must exceed (a client costs ``training_flops_per_iteration
#: × local_iters``; an evaluation shard, rows × forward FLOPs × its attack's
#: passes).  On two-client jFAT rounds a one-client worker share of
#: 0.010–0.25 GFLOP ran 1.28–1.35× *slower* than inline (fork, copy-on-write
#: faults and a cold cache cost more than the share), 0.51 GFLOP broke even
#: (0.97×), and 1.01–3.04 GFLOP won (0.93–0.72×) — so any value in
#: [0.51, 1.01) GFLOP decides every measured training point the same way,
#: keeping tier-1's 8×8 models and ``swarm_async`` inline.  Two-shard eval
#: plans at ``robust_eval``'s geometry break even lower for PGD (0.14 GFLOP
#: lost, 0.56 won) and higher for AutoAttack, whose modelled cost is an
#: upper bound (2.6 GFLOP even, 10.4 won): the floor decides 12 of their 15
#: measured points as measured (``scripts/fork_floor_sweep.py``; the tables
#: are in docs/benchmarks.md, "a round's clients train on every core" and
#: "evaluation shards on round workers").
FORK_FLOOR_FLOPS = 1e9

_COUNT = struct.Struct("<Q")  # a frame opens with its part count, then each part's length


class RoundWorkerError(RuntimeError):
    """A round worker ended before returning a cohort's results."""


def spare_cores() -> int:
    """Cores this process may run on beyond its own: the worker budget."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count() or 1
    return max(0, cores - 1)


def _openblas_threads() -> Optional[Tuple[Callable[[], int], Callable[[int], None]]]:
    """``(get, set)`` of the OpenBLAS thread count numpy loaded, or None.

    Reads the library's path off this process's memory map and binds its
    ``*openblas_get/set_num_threads*`` symbols (``scipy_openblas_…64_`` in
    numpy's own wheel, plain ``openblas_…`` in a system build).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.restype, put.restype = ctypes.c_int, None
                    put.argtypes = [ctypes.c_int]
                    return get, put
    return None


class _Blas:
    """Process-wide OpenBLAS pin: one thread while any round worker lives."""

    resolved = False
    threads: Optional[Tuple[Callable[[], int], Callable[[int], None]]] = None
    saved: Optional[int] = None

    @classmethod
    def pinnable(cls) -> bool:
        if not cls.resolved:
            cls.threads, cls.resolved = _openblas_threads(), True
        return cls.threads is not None

    @classmethod
    def pin(cls) -> None:
        if cls.saved is None:
            get, put = cls.threads
            cls.saved = get()
            put(1)

    @classmethod
    def release(cls) -> None:
        if cls.saved is not None:
            cls.threads[1](cls.saved)
            cls.saved = None


#: pid → worker, for every round worker this process has alive.
_live_workers: Dict[int, "_Worker"] = {}
#: True inside a round worker: a worker never forks workers of its own.
_in_worker = False


def _split(plan: List[List[int]], weights: List[Fraction], parts: int) -> List[List[List[int]]]:
    """``plan`` cut into ``parts`` contiguous runs balanced by ``weights``.

    ``weights`` holds each cohort's cost.  Each cut falls on the cohort
    boundary nearest its even share of the total (ties go to the earlier
    run).  The arithmetic is exact, so equal item costs cut where a count
    of items would.
    """
    total = sum(weights)
    runs: List[List[List[int]]] = []
    start, done = 0, 0
    for j in range(1, parts):
        target = total * j / parts
        cut, seen = start + 1, done + weights[start]  # every run takes a cohort
        while cut < len(plan) - (parts - j) and abs(seen + weights[cut] - target) <= abs(
            seen - target
        ):
            seen += weights[cut]
            cut += 1
        runs.append(plan[start:cut])
        start, done = cut, seen
    runs.append(plan[start:])
    return runs


class _Worker:
    """A forked child running a contiguous run of a group's cohorts.

    The child sends one frame per cohort, in order: a protocol-5 pickle
    of ``(True, results, fills)`` or, for a failing cohort (after which it
    stops), ``(False, exception or None, traceback text)``, its array
    buffers out of band, each part behind its length.  A writer thread
    sends them, so a full pipe never stalls training.
    """

    def __init__(self, work: "CohortFn", items: List[Any], run: List[List[int]],
                 worker_state: List[Any]):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:  # the child: never returns
            code = 1
            try:
                os.close(read_fd)
                _serve(work, items, run, worker_state, write_fd)
                code = 0
            finally:
                os._exit(code)  # no atexit, no inherited buffer flushed twice
        os.close(write_fd)
        self.pid, self.owner = pid, os.getpid()
        self.stream = io.FileIO(read_fd, "rb")
        self.worker_state = worker_state
        self.pending = len(run)
        _live_workers[pid] = self

    def results(self, idxs: List[int]) -> List[Any]:
        """Read the next cohort's frame: its results, or its error raised.

        Each array buffer is read straight into the bytes its array then
        wraps, so a cohort's results are in memory once, not twice.
        """
        frame = self._frame()
        if frame is None:
            raise RoundWorkerError(
                f"round worker {self.pid} {self._reap()} before returning "
                f"the cohort of items {idxs}"
            )
        ok, value, extra = pickle.loads(frame[0], buffers=frame[1:])
        del frame
        self.pending -= 1
        if not self.pending:
            self.close()
        if not ok:
            if value is None:
                raise RuntimeError(
                    f"the cohort of items {idxs} raised an exception that cannot "
                    f"be pickled in round worker {self.pid}:\n{extra}"
                )
            if hasattr(value, "add_note"):  # Python >= 3.11
                value.add_note(f"raised in round worker {self.pid}:\n{extra}")
            raise value
        for state, fills in zip(self.worker_state, extra):
            state.adopt_fills(fills)
        return value

    def _frame(self) -> Optional[List[bytearray]]:
        """``[pickle, *array buffers]``, or None when the pipe ends first."""
        count = self._read(_COUNT.size)
        sizes = count and self._read(_COUNT.size * _COUNT.unpack(count)[0])
        parts = []
        for (size,) in _COUNT.iter_unpack(sizes or b""):
            part = self._read(size)
            if part is None:
                return None
            parts.append(part)
        return parts or None

    def _read(self, size: int) -> Optional[bytearray]:
        buf = bytearray(size)
        view, got = memoryview(buf), 0
        while got < size:
            n = self.stream.readinto(view[got:])
            if not n:
                return None
            got += n
        return buf

    def _reap(self) -> str:
        """Wait for the child; how it ended, in words.  Nothing is read or
        killed afterwards: the pid may belong to another process by then."""
        self.pending = 0
        self.stream.close()
        _live_workers.pop(self.pid, None)
        if not _live_workers:
            _Blas.release()
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:
            return "ended"
        if os.WIFSIGNALED(status):
            return f"was killed by signal {os.WTERMSIG(status)}"
        return f"exited with status {os.waitstatus_to_exitcode(status)}"

    def close(self) -> None:
        """Kill (if still running) and reap the child; idempotent."""
        if self.owner != os.getpid() or _live_workers.get(self.pid) is not self:
            return  # reaped, or a forked copy of the owner's handle
        if self.pending:
            os.kill(self.pid, signal.SIGKILL)  # unreaped, so still our child
        self._reap()


def _serve(work: "CohortFn", items: List[Any], run: List[List[int]],
           worker_state: List[Any], fd: int) -> None:
    """The worker's body: run ``run``'s cohorts, send a frame for each."""
    global _in_worker
    _in_worker = True
    for state in worker_state:
        state.record_fills()
    frames: "queue.SimpleQueue[Optional[list]]" = queue.SimpleQueue()

    def send() -> None:
        try:
            with io.FileIO(fd, "wb") as out:
                for parts in iter(frames.get, None):
                    views = [memoryview(p).cast("B") for p in parts]
                    head = [_COUNT.pack(len(views))] + [_COUNT.pack(v.nbytes) for v in views]
                    for view in [memoryview(b"".join(head))] + views:
                        while view:
                            view = view[out.write(view):]
        except OSError:
            pass  # the caller closed the group: nobody reads any more

    writer = threading.Thread(target=send, daemon=True)
    writer.start()
    for idxs in run:
        buffers: List[pickle.PickleBuffer] = []
        try:
            results = _run_cohort(work, items, idxs)
            fills = [state.take_fills() for state in worker_state]
            meta = pickle.dumps((True, results, fills), protocol=5, buffer_callback=buffers.append)
        except BaseException as err:  # re-raised by the caller's pull
            text = traceback.format_exc()
            try:
                meta = pickle.dumps((False, err, text), protocol=5)
                pickle.loads(meta)
            except Exception:
                meta = pickle.dumps((False, None, text), protocol=5)
            frames.put([meta])
            break
        frames.put([meta] + [b.raw() for b in buffers])
        del results, fills, buffers
    frames.put(None)
    writer.join()


def _run_cohort(work: "CohortFn", items: List[Any], idxs: List[int]) -> List[Any]:
    results = work.cohort_fn([items[i] for i in idxs])
    if len(results) != len(idxs):
        raise RuntimeError(
            f"cohort fn returned {len(results)} results for {len(idxs)} items"
        )
    return results


class CohortFn:
    """A work function that runs clients as fused cohorts.

    Cohort dispatch (:meth:`RoundExecutor.submit_group`) needs two things
    from a round's work function:

    * ``cohort_fn(items)`` — run K ≥ 1 homogeneous items as one cohort,
      returning their results in item order; a cohort of one is a lone
      client (``fn(item)`` is ``cohort_fn([item])[0]``), and K fused items
      are bit-identical to K cohorts of one;
    * ``group_key(item)`` — hashable fusion key.  Items may be fused only
      when their keys are equal; ``None`` keeps an item a cohort of one
      (heterogeneous segment/mask shapes, ragged batch schedules).
    """

    def __init__(
        self,
        cohort_fn: Callable[[List[Any]], List[Any]],
        group_key: Optional[Callable[[Any], Any]] = None,
    ):
        self.cohort_fn = cohort_fn
        self._group_key = group_key

    def __call__(self, item: Any) -> Any:
        return self.cohort_fn([item])[0]

    def group_key(self, item: Any) -> Any:
        return self._group_key(item) if self._group_key is not None else None


class RoundExecutor:
    """Plans a round's client work items into cohorts of at most
    ``fusion_width`` (``1`` disables fusion) and runs them, on forked
    round workers as well as inline when a worker's share of the
    group's modelled FLOPs clears :data:`FORK_FLOOR_FLOPS`.

    ``client_flops`` is one client's modelled training FLOPs, the cost of
    a work item unless the group names its own (``0``: never fork).
    ``worker_state`` lists process state a work unit fills that the caller
    must see (FedProphet's prefix cache): a worker calls ``record_fills()``
    once and ``take_fills()`` after each cohort, and the caller hands each
    result to ``adopt_fills`` as it reads the cohort.
    """

    def __init__(self, fusion_width: int = DEFAULT_FUSION_WIDTH, client_flops: float = 0.0):
        if fusion_width < 1:
            raise ValueError("fusion_width must be >= 1")
        self.fusion_width = fusion_width
        self.client_flops = client_flops
        self.worker_state: List[Any] = []

    def plan_cohorts(self, fn: CohortFn, items: Sequence[Any]) -> List[List[int]]:
        """Deterministic fusion plan: item indices grouped into cohorts.

        Items sharing a non-``None`` ``group_key`` coalesce (in input
        order) into chunks of at most ``fusion_width``; everything else is
        a singleton.  A pure function of ``(keys, width)``, so cohort
        composition is reproducible.
        """
        width = self.fusion_width
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

    def plan_runs(
        self, plan: List[List[int]], costs: Sequence[float], slots: Optional[int] = None
    ) -> List[List[List[int]]]:
        """The plan cut into the caller's run and one run per worker to fork.

        ``costs[i]`` is item ``i``'s modelled FLOPs, and runs are balanced
        by cost.  At most ``slots`` workers (default: the spare cores not
        already running one); a lone multi-client cohort is split first
        (fused ≡ per item).  Workers are dropped until each one's share,
        and the work taken off the caller's path (the total less the
        largest run), model more than :data:`FORK_FLOOR_FLOPS`; none forks
        when the OpenBLAS thread count cannot be pinned (asked only of a
        plan that would fork, so a group below the floor reads no library
        state).  ``[plan]`` means run inline.
        """
        if slots is None:
            slots = 0 if _in_worker else spare_cores() - len(_live_workers)
        if slots < 1 or math.fsum(costs) <= 2 * FORK_FLOOR_FLOPS:  # no cut clears both
            return [plan]
        for parts in range(slots + 1, 1, -1):
            cohorts = plan
            if len(plan) == 1:  # contiguous chunks, the larger first
                lone, at = plan[0], 0
                cohorts = []
                for j in range(min(parts, len(lone))):
                    size = len(lone) // parts + (j < len(lone) % parts)
                    cohorts.append(lone[at : at + size])
                    at += size
            if len(cohorts) < parts:
                continue
            runs = _split(cohorts, [sum(Fraction(costs[i]) for i in c) for c in cohorts], parts)
            shares = [math.fsum(costs[i] for c in run for i in c) for run in runs]
            off_path = math.fsum(sorted(shares)[:-1])  # what running side by side saves
            if min(shares[1:]) > FORK_FLOOR_FLOPS and off_path > FORK_FLOOR_FLOPS:
                return runs if _Blas.pinnable() else [plan]
        return [plan]

    def workers_for(self, clients: int) -> int:
        """Workers a group of ``clients`` plain work units forks on this host."""
        plan = [[i] for i in range(clients)]
        return len(self.plan_runs(plan, [self.client_flops] * clients, spare_cores())) - 1

    def submit_group(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        costs: Optional[Sequence[float]] = None,
    ) -> Iterator[Tuple[int, Any]]:
        """A generator: each pull runs the next cohort, yielding its ``(index, result)`` pairs.

        A plain function is a group of width-1 cohorts; a :class:`CohortFn`
        fuses per :meth:`plan_cohorts` (planned per group, so the async
        pipeline's per-round groups never fuse clients across base
        versions).  Cohorts come out in the order of their first item, and
        each result is handed out once and not kept.  The first pull forks
        the workers :meth:`plan_runs` asks for, which run the plan's tail
        while the caller runs its head; ``costs`` are the items' modelled
        FLOPs (default: ``client_flops`` each).  A work-unit exception
        propagates, with its own type, from the pull that reaches its
        cohort and ends the group; a worker that dies raises
        :class:`RoundWorkerError` there.  Ending the group early
        (``close()``, or dropping it) kills and reaps its workers.
        """
        items = list(items)
        if costs is None:
            costs = [self.client_flops] * len(items)
        work = fn if isinstance(fn, CohortFn) else CohortFn(lambda members: [fn(members[0])])
        own, *tails = self.plan_runs(self.plan_cohorts(work, items), costs)

        def inline(idxs: List[int]) -> List[Any]:
            return _run_cohort(work, items, idxs)

        sources = [(own, inline)]  # (cohorts, how one cohort's results are had)
        workers: List[_Worker] = []
        try:
            if tails:
                _Blas.pin()
            for run in tails:
                try:
                    workers.append(_Worker(work, items, run, self.worker_state))
                except OSError:  # no process to be had: the caller trains it
                    sources.append((run, inline))
                else:
                    sources.append((run, workers[-1].results))
            for cohorts, results_of in sources:
                for idxs in cohorts:
                    results = results_of(idxs)[::-1]  # popped: none pinned once out
                    for i in idxs:
                        yield i, results.pop()
        finally:
            for worker in workers:
                worker.close()
            if not _live_workers:
                _Blas.release()

    def run_group(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        costs: Optional[Sequence[float]] = None,
    ) -> List[Any]:
        """The barrier view of :meth:`submit_group`: results in input order."""
        return [result for _, result in sorted(self.submit_group(fn, items, costs))]

    # Nothing calls ``map``: the name stays only because perfbench's layer
    # table (perfbench/layers.py) wraps ``RoundExecutor.map`` by name.
    map = run_group
