"""Round execution engine: client work units, run cohort by cohort on every core.

Clients within a federated round are independent — each one's local
training is a pure function of (round-start global state, its local
shard, its own counter-derived RNG).  :class:`RoundExecutor` is the one
class that plans and runs them: cohort by cohort, on the caller and on the
round workers it forks.

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

**Round workers** are how a group uses the host's other cores.  A run,
and an evaluation outside one, opens a **scope**
(:meth:`RoundExecutor.scope`) that forks one worker per spare core
(:func:`spare_cores`) at its first group, once the scope's modelled work
clears :data:`FORK_FLOOR_FLOPS`.  Each worker returns from the fork as a
lockstep replica of the scope: it runs the same deterministic program,
and every group whose shares clear :data:`EXCHANGE_FLOOR_FLOPS` is cut
into runs of equal modelled cost, one per process, each process sending
the others its run's results (and the prefix-cache rows they filled), so
all of them merge the same results in plan order; a smaller group runs
whole in every process.  The caller runs its run as it pulls it and
reads another process's frames only when it pulls that cohort, so
results are still handed out one cohort at a time.  A group outside any
scope runs inline.  Every item carries its modelled FLOPs (a client its
training, an evaluation shard its attack passes), and workers fork only
where the OpenBLAS numpy loaded can be pinned to one thread
(:class:`_Blas`) — two processes running two BLAS threads each on two
cores ran 3–4× slower than one thread each.

Determinism contract: **fused output is bit-identical to cohorts of
one**, and a worker's output to the caller's.  Results are keyed by
their position in the input list (which fixes the aggregation order),
and per-client RNGs are derived from ``(seed, round, cid)`` — so neither
cohort composition nor the process a cohort ran in can leak into the
result.
"""

from __future__ import annotations

import contextlib
import ctypes
import fcntl
import hashlib
import io
import math
import os
import pickle
import queue
import signal
import struct
import sys
import threading
import traceback
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np


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


#: Modelled FLOPs a scope's work must exceed for it to fork round workers:
#: a run's remaining training (rounds × cohort × one client's, a client
#: costing ``training_flops_per_iteration × local_iters``), or an
#: evaluation's plan outside a run (each shard rows × forward FLOPs × its
#: attack's passes).  On
#: two-client jFAT rounds a one-client worker share of
#: 0.010–0.25 GFLOP ran 1.28–1.35× *slower* than inline (fork, copy-on-write
#: faults and a cold cache cost more than the share), 0.51 GFLOP broke even
#: (0.97×), and 1.01–3.04 GFLOP won (0.93–0.72×) — so any value in
#: [0.51, 1.01) GFLOP decides every measured training point the same way,
#: keeping tier-1's 8×8 models and ``swarm_async`` from forking a worker
#: per group.  Two-shard eval
#: plans at ``robust_eval``'s geometry break even lower for PGD (a 0.14 GFLOP
#: share lost, 0.56 won) and higher for AutoAttack, whose modelled cost is
#: an upper bound (2.6 GFLOP even, 10.4 won): priced by its total, the floor
#: decides 14 of their 15 measured points as measured
#: (``scripts/fork_floor_sweep.py``; docs/benchmarks.md, "a round's clients
#: train on every core", "evaluation shards on round workers", "one fork rule").
FORK_FLOOR_FLOPS = 1e9

#: Modelled FLOPs each process's share of a group must exceed for a
#: scope to split the group between its processes (below it every process
#: runs the whole group).  No fork is paid here: a split costs pickling
#: and piping each share's results to the other process and reading the
#: other's, against half the group's work.  With the replica already
#: running, a group split two ways lost or broke even at 0.005-0.010 GFLOP
#: shares (1.01-1.28×: two or four 8×8 tier-1 clients, two ``swarm_async``
#: clients), read 0.97-1.09× at 0.020 and won from 0.028 on (0.46-0.95×:
#: larger ``swarm_async`` groups, ``prophet_cascade``'s 3 GFLOP clients and
#: its validation plans), so the floor sits where the readings change sign
#: (``scripts/fork_floor_sweep.py``, docs/benchmarks.md § PR 44).
EXCHANGE_FLOOR_FLOPS = 0.015e9

_COUNT = struct.Struct("<Q")  # a frame opens with its part count, then each part's length


class RoundWorkerError(RuntimeError):
    """A round worker ended before returning a cohort's results, left the
    run on an error of its own, or planned a group other than the caller."""


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


def _fuse(idxs: Iterable[int], keys: Sequence[Any], width: int) -> List[List[int]]:
    """``idxs`` as fusion cohorts: equal non-``None`` keys in chunks of at
    most ``width`` (in input order), others alone, sorted by first item."""
    groups: Dict[Any, List[int]] = {}
    cohorts: List[List[int]] = []
    for i in idxs:
        key = keys[i]
        if key is None:
            cohorts.append([i])
        else:
            groups.setdefault(key, []).append(i)
    for members in groups.values():
        for start in range(0, len(members), width):
            cohorts.append(members[start : start + width])
    cohorts.sort(key=lambda c: c[0])
    return cohorts


def _plan_digest(plan: List[List[int]], costs: Sequence[float]) -> bytes:
    """What two processes must agree on before they split a group."""
    text = repr((plan, [float(c) for c in costs]))
    return hashlib.blake2b(text.encode(), digest_size=8).digest()


def _write_frame(out: io.FileIO, parts: list) -> None:
    """Write a frame: its part count, each part's length, then the parts."""
    views = [memoryview(p).cast("B") for p in parts]
    head = [_COUNT.pack(len(views))] + [_COUNT.pack(v.nbytes) for v in views]
    for view in [memoryview(b"".join(head))] + views:
        while view:
            view = view[out.write(view):]


def _send_frames(out: io.FileIO, frames: "queue.SimpleQueue[Optional[list]]") -> None:
    """A writer thread's body: write each queued frame, then close ``out``."""
    try:
        with out:
            for parts in iter(frames.get, None):
                _write_frame(out, parts)
                del parts  # no result outlives its frame here
    except OSError:
        pass  # the other end has gone: nobody reads any more


def _read_frame(stream: io.FileIO) -> Optional[List[bytearray]]:
    """The next frame's parts, or None when the pipe ends first.

    Each part is read straight into the bytes its array then wraps, so a
    cohort's results are in memory once, not twice.
    """

    def read(size: int) -> Optional[bytearray]:
        buf = bytearray(size)
        view, got = memoryview(buf), 0
        while got < size:
            n = stream.readinto(view[got:])
            if not n:
                return None
            got += n
        return buf

    count = read(_COUNT.size)
    sizes = count and read(_COUNT.size * _COUNT.unpack(count)[0])
    parts = []
    for (size,) in _COUNT.iter_unpack(sizes or b""):
        part = read(size)
        if part is None:
            return None
        parts.append(part)
    return parts or None


def _widen(fd: int) -> None:
    """Give a pipe the largest buffer an unprivileged process may set (1 MiB
    by default), so a frame crosses in a few writes and reads, each of which
    waits for its process's interpreter lock."""
    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):  # not Linux, or over the limit: the default serves
        pass


def _die_with_parent(parent: int) -> None:
    """Ask the kernel to kill this process when ``parent`` dies (Linux), so
    a worker whose caller was killed stops at once, not at its next read."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (AttributeError, OSError):  # no prctl: the worker stops at its next read
        return
    if os.getppid() != parent:  # the parent died before the request
        os._exit(1)


def _quiet() -> None:
    """Point this process's stdout and stderr at /dev/null: a worker prints nothing."""
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, 1)
    os.dup2(null, 2)
    sys.stdout = sys.stderr = open(null, "w", encoding="utf-8", closefd=False)


class _Link:
    """This process's pipes to one other process of a scope.

    A replica drains what it is sent on a reader thread, so a process
    writes a frame to a replica at once, and the results in it are not
    held past the write; the caller reads a worker's frames only as it
    pulls them (so it never holds them early), and a worker's frames to
    the caller go through a writer thread, so a full pipe never stalls
    its training.
    """

    def __init__(self, name: str, read_fd: int, write_fd: int, drains: bool, drained: bool):
        self.name = name
        self.worker: Optional["_Worker"] = None  # the caller's handle, on the caller's side
        self.stream = io.FileIO(read_fd, "rb")
        self.out = io.FileIO(write_fd, "wb")
        self.frames: Optional["queue.SimpleQueue[Optional[list]]"] = None
        self.writer: Optional[threading.Thread] = None
        if not drained:
            self.frames = queue.SimpleQueue()
            self.writer = threading.Thread(
                target=_send_frames, args=(self.out, self.frames), daemon=True
            )
            self.writer.start()
        #: ``(seq, position) → payload parts`` read before their pull.
        self.cohorts: Dict[Tuple[int, int], list] = {}
        #: Group digests: the other process's, for groups not opened here
        #: yet (``ahead``), and this one's, for groups whose header from the
        #: other process has not arrived (``opened``).
        self.ahead: Dict[int, bytes] = {}
        self.opened: Dict[int, bytes] = {}
        self.ended = False
        self.inbox: Optional["queue.SimpleQueue[Optional[list]]"] = None
        if drains:
            self.inbox = queue.SimpleQueue()
            threading.Thread(target=self._drain, daemon=True).start()

    def _drain(self) -> None:
        while True:
            frame = _read_frame(self.stream)
            self.inbox.put(frame)
            if frame is None:
                return

    def send(self, parts: list) -> None:
        if self.frames is not None:
            self.frames.put(parts)
        elif not self.out.closed:
            try:
                _write_frame(self.out, parts)
            except OSError:  # the replica has gone: the caller's next read reports it
                self.out.close()

    def receive(self) -> Optional[list]:
        """The next frame, or None once the pipe has ended."""
        if self.ended:
            return None
        frame = _read_frame(self.stream) if self.inbox is None else self.inbox.get()
        self.ended = frame is None
        return frame

    def close(self) -> None:
        """Stop the writer once it has sent what is queued; close the pipes."""
        if self.frames is not None:
            self.frames.put(None)
            self.writer.join()
            self.frames = None
        self.out.close()
        if self.inbox is None:
            self.stream.close()


class _Worker:
    """The caller's handle on one forked round worker: its pid and link."""

    def __init__(self, pid: int, link: _Link):
        self.pid, self.link = pid, link
        link.worker = self
        _live_workers[pid] = self

    def reap(self, kill: bool) -> str:
        """Wait for the child (killed first if ``kill``); how it ended, in
        words.  Nothing is killed afterwards: the pid may be another's by then."""
        if _live_workers.get(self.pid) is not self:
            return "ended"  # reaped already
        del _live_workers[self.pid]
        if kill:
            os.kill(self.pid, signal.SIGKILL)  # unreaped, so still our child
        try:
            _, status = os.waitpid(self.pid, 0)
        except ChildProcessError:
            return "ended"
        if os.WIFSIGNALED(status):
            return f"was killed by signal {os.WTERMSIG(status)}"
        return f"exited with status {os.waitstatus_to_exitcode(status)}"


class _Pickler(pickle.Pickler):
    """Pickles a built-in numpy dtype by name, so an array another process
    reads back carries numpy's own dtype object, as the sender's did.
    (numpy's reduction copies the dtype, and a checkpoint of a copy pickles
    it anew: its bytes would differ from an inline run's.)"""

    def reducer_override(self, obj: Any) -> Any:
        if isinstance(obj, np.dtype) and obj.isbuiltin == 1:
            return np.dtype, (obj.str,)
        return NotImplemented


def _payload(ok: bool, value: Any, extra: Any) -> List[Any]:
    """A cohort frame's ``[pickle, *array buffers]`` (an error's without buffers)."""
    if not ok:
        try:
            meta = pickle.dumps((False, value, extra), protocol=5)
            pickle.loads(meta)
        except Exception:  # the caller gets the traceback text in a RuntimeError
            meta = pickle.dumps((False, None, extra), protocol=5)
        return [meta]
    buffers: List[pickle.PickleBuffer] = []
    out = io.BytesIO()
    _Pickler(out, protocol=5, buffer_callback=buffers.append).dump((True, value, extra))
    return [out.getbuffer()] + [b.raw() for b in buffers]


class _Scope:
    """Groups that share round workers, forked at the scope's first group.

    A scope (:meth:`RoundExecutor.scope`, ``work_flops`` the modelled
    work left to it) forks one worker per spare core at its first group
    when that work clears :data:`FORK_FLOOR_FLOPS`.  Each worker returns
    from the fork as a *replica*: it runs the same deterministic program
    as the caller, so both reach every later group with the same plan.
    A group whose every share clears :data:`EXCHANGE_FLOOR_FLOPS`
    is split between the processes: each computes its run of cohorts and
    sends the results (and the worker state they filled) to every other,
    so all of them merge the same results in plan order; a smaller group
    runs whole in each.  Every group opens with a header carrying its
    sequence number and plan digest, and a mismatch raises
    :class:`RoundWorkerError` naming the group.  A replica writes nothing
    (the run's :class:`~repro.flsim.journal.RunRecorder` is inert outside
    the caller's process; stdout and stderr point at /dev/null), and it
    leaves by ``os._exit`` at the scope's end, which the caller ends by
    killing and reaping it.
    """

    def __init__(self, executor: "RoundExecutor", work_flops: float):
        self.executor = executor
        self.work_flops = work_flops
        self.rank = 0  # 0: the caller
        self.links: Dict[int, _Link] = {}  # rank → link, one per other process
        self.started = False
        self.seq = 0  # the next group's sequence number
        self.dropped: set = set()  # groups ended before their last pull

    def __enter__(self) -> "_Scope":
        self.executor._scope = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.executor._scope = None
        if self.rank:  # a replica never leaves its scope alive
            if exc is None:
                self._leave(0)
            text = "".join(traceback.format_exception(exc_type, exc, tb))
            self._leave(1, [pickle.dumps(("left", self.seq - 1)), pickle.dumps(text)])
        self.end()

    # -- forking ------------------------------------------------------------
    def _runs(self, plan: List[List[int]], costs: Sequence[float],
              fuse: Callable[[List[int]], List[List[int]]]) -> List[List[List[int]]]:
        """The group's runs by rank (``[plan]``: whole in every process);
        the scope's first group forks its workers first.

        The items are cut, in index order, into runs of equal cost, and
        each run's own cohorts are fused (``fuse``; fused ≡ per item), so
        a share is never a whole cohort too many.
        """
        if not self.started:
            self.started = True
            slots = self.executor.replicas_for(self.work_flops) - len(_live_workers)
            if slots > 0:
                self._fork(slots)
        procs = len(self.links) + 1
        if procs == 1 or math.fsum(costs) <= 2 * EXCHANGE_FLOOR_FLOPS:  # no cut clears it
            return [plan]
        # Cut from the tail, so a tie leaves the caller, who also writes the
        # run's records, the smaller run.
        singles = [[i] for i in reversed(range(len(costs)))]
        weights = [Fraction(costs[i]) for [i] in singles]
        for parts in range(min(procs, len(costs)), 1, -1):
            runs = [sorted(i for [i] in run) for run in reversed(_split(singles, weights, parts))]
            if min(math.fsum(costs[i] for i in run) for run in runs) > EXCHANGE_FLOOR_FLOPS:
                return [fuse(run) for run in runs] + [[]] * (procs - parts)
        return [plan]

    def _fork(self, workers: int) -> None:
        """Fork ``workers`` processes, each with a pipe to every other; on
        any failure none (the scope runs inline)."""
        procs = workers + 1
        pipes: Dict[Tuple[int, int], Tuple[int, int]] = {}
        pids: List[int] = []
        try:
            for a in range(procs):
                for b in range(procs):
                    if a != b:
                        pipes[a, b] = os.pipe()
                        _widen(pipes[a, b][1])
            _Blas.pin()
            caller = os.getpid()
            for rank in range(1, procs):
                pid = os.fork()
                if pid == 0:
                    try:
                        self._become(rank, pipes, caller)
                    except BaseException:
                        os._exit(1)
                    return
                pids.append(pid)
        except OSError:  # no process (or pipe) to be had: the caller runs it all
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for read_fd, write_fd in pipes.values():
                os.close(read_fd)
                os.close(write_fd)
            if not _live_workers:
                _Blas.release()
            return
        names = {rank: f"round worker {pid}" for rank, pid in enumerate(pids, start=1)}
        self._connect(pipes, names)
        for rank, pid in enumerate(pids, start=1):
            _Worker(pid, self.links[rank])

    def _connect(self, pipes: Dict[Tuple[int, int], Tuple[int, int]],
                 names: Dict[int, str]) -> None:
        """Link this process to every other (``names``: rank → name) over
        its ends of ``pipes`` (``(from rank, to rank) → (read fd, write
        fd)``); close the rest."""
        for (a, b), (read_fd, write_fd) in pipes.items():
            if b != self.rank:
                os.close(read_fd)
            if a != self.rank:
                os.close(write_fd)
        for other in sorted(names):
            self.links[other] = _Link(names[other], pipes[other, self.rank][0],
                                      pipes[self.rank, other][1],
                                      drains=self.rank > 0, drained=other > 0)

    def _become(self, rank: int, pipes, caller: int) -> None:
        """The child's side of a fork: a round worker of rank ``rank``."""
        global _in_worker
        _in_worker = True
        _live_workers.clear()  # the caller's handles: never this process's to reap
        self.rank = rank
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller owns an interrupt
        _die_with_parent(caller)
        _quiet()
        procs = 1 + max(max(pair) for pair in pipes)
        self._connect(pipes, {other: "the caller" if other == 0 else f"round worker {other}"
                              for other in range(procs) if other != rank})

    # -- ending -------------------------------------------------------------
    def _leave(self, code: int, frame: Optional[list] = None) -> None:
        """A worker's end: send ``frame`` to every process, flush, exit."""
        try:
            for link in self.links.values():
                if frame is not None:
                    link.send(frame)
                link.close()
        finally:
            os._exit(code)  # no atexit, no inherited buffer flushed twice

    def end(self) -> None:
        """The caller's end of the scope: kill and reap its workers; idempotent."""
        links, self.links = self.links, {}
        for link in links.values():
            if link.worker is not None:
                link.worker.reap(kill=True)
        for link in links.values():
            link.close()
        if not _live_workers:
            _Blas.release()

    # -- groups -------------------------------------------------------------
    def open(self, plan: List[List[int]], costs: Sequence[float],
             fuse: Callable[[List[int]], List[List[int]]]) -> Tuple[List[List[List[int]]], int]:
        """Runs and sequence number of the next group; forks at the first.

        With workers every process sends every other the group's header,
        and the headers must agree.
        """
        runs = self._runs(plan, costs, fuse)
        seq = self.seq
        self.seq += 1
        if not self.links:
            return runs, seq
        digest = _plan_digest(plan, costs)
        header = [pickle.dumps(("group", seq, digest))]
        for link in self.links.values():
            link.send(header)
            theirs = link.ahead.pop(seq, None)
            if theirs is None:
                link.opened[seq] = digest
            elif theirs != digest:
                raise self._diverged(link, seq, theirs, digest)
        return runs, seq

    @staticmethod
    def _diverged(link: _Link, seq: int, theirs: bytes, ours: bytes) -> RoundWorkerError:
        return RoundWorkerError(
            f"{link.name} diverged from this process at group {seq}: its plan "
            f"digest {theirs.hex()}, this process's {ours.hex()}"
        )

    def _take_frame(self, link: _Link, frame: list) -> None:
        """File one frame received from ``link``: a header is checked, a
        cohort's results kept for their pull, a worker's exit raised."""
        head = pickle.loads(frame[0])
        if head[0] == "group":
            _, seq, digest = head
            ours = link.opened.pop(seq, None)
            if ours is None:
                link.ahead[seq] = digest
            elif ours != digest:
                raise self._diverged(link, seq, digest, ours)
        elif head[0] == "cohort":
            if head[1] not in self.dropped:
                link.cohorts[head[1], head[2]] = frame[1:]
        else:  # "left": a worker's exception ended its part in the scope
            raise RoundWorkerError(
                f"{link.name} left the run at group {head[1]}:\n{pickle.loads(frame[1])}"
            )

    def _receive(self, link: _Link, seq: int, pos: int, idxs: List[int]) -> Tuple[bool, Any]:
        """Another process's ``(ok, results or exception)`` for a cohort."""
        while (seq, pos) not in link.cohorts:
            frame = link.receive()
            if frame is None:
                how = link.worker.reap(kill=False) if link.worker is not None else "ended"
                raise RoundWorkerError(
                    f"{link.name} {how} before returning the cohort of items {idxs} "
                    f"(group {seq})"
                )
            self._take_frame(link, frame)
        parts = link.cohorts.pop((seq, pos))
        ok, value, extra = pickle.loads(parts[0], buffers=parts[1:])
        del parts
        if not ok:
            if value is None:
                return False, RuntimeError(
                    f"the cohort of items {idxs} raised an exception that cannot "
                    f"be pickled in {link.name}:\n{extra}"
                )
            if hasattr(value, "add_note"):  # Python >= 3.11
                value.add_note(f"raised in {link.name}:\n{extra}")
            return False, value
        for state, fills in zip(self.executor.worker_state, extra):
            state.adopt_fills(fills)
        return True, value

    def _compute(self, work: "CohortFn", items: List[Any], idxs: List[int], seq: int,
                 pos: int, share: bool) -> Tuple[bool, Any]:
        """Run a cohort here: ``(ok, results or exception)``; with ``share``,
        also send it, with the worker state it filled, to the other processes."""
        states = self.executor.worker_state if share else ()
        for state in states:
            state.record_fills()
        try:
            results = _run_cohort(work, items, idxs)
            fills, states = [state.take_fills() for state in states], ()
            if share:
                self._send(seq, pos, _payload(True, results, fills))
        except BaseException as err:  # raised by the pull that reaches the cohort
            for state in states:
                state.take_fills()
            if share:
                self._send(seq, pos, _payload(False, err, traceback.format_exc()))
            return False, err
        return True, results

    def _send(self, seq: int, pos: int, payload: List[Any]) -> None:
        frame = [pickle.dumps(("cohort", seq, pos))] + payload
        for link in self.links.values():
            link.send(frame)

    def play(self, work: "CohortFn", items: List[Any], runs: List[List[List[int]]],
             seq: int) -> Iterator[Tuple[int, Any]]:
        """Hand out a group's results in plan order, one cohort per pull.

        The caller runs its own cohorts as they are pulled; a worker runs
        its whole run at the first pull.  Results are read-only once handed
        out: a writer thread may still be sending them.
        """
        cohorts = [(rank, idxs) for rank, run in enumerate(runs) for idxs in run]
        split = len(runs) > 1  # then every process computes its run and shares it
        mine: Dict[int, Tuple[bool, Any]] = {}
        if split and self.rank:
            for pos, (rank, idxs) in enumerate(cohorts):
                if rank == self.rank:
                    mine[pos] = self._compute(work, items, idxs, seq, pos, split)
                    if not mine[pos][0]:
                        break  # the pull that reaches it raises and ends the group

        for pos, (rank, idxs) in enumerate(cohorts):
            if not split or rank == self.rank:
                ok, results = (
                    mine.pop(pos) if pos in mine
                    else self._compute(work, items, idxs, seq, pos, split)
                )
            else:
                ok, results = self._receive(self.links[rank], seq, pos, idxs)
            if not ok:
                raise results
            results.reverse()  # popped: none pinned once out
            for i in idxs:
                yield i, results.pop()

    def drop(self, seq: int) -> None:
        """A group ended before its last pull: its unread frames are dropped."""
        if not self.links:
            return
        self.dropped.add(seq)
        for link in self.links.values():
            for key in [key for key in link.cohorts if key[0] == seq]:
                del link.cohorts[key]


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
    ``fusion_width`` (``1`` disables fusion) and runs them, inline or,
    inside a :meth:`scope` whose modelled FLOPs clear
    :data:`FORK_FLOOR_FLOPS`, split with its forked round workers.

    ``client_flops`` is one client's modelled training FLOPs, the cost of
    a work item unless the group names its own (``0``: never fork).
    ``worker_state`` lists process state a work unit fills that every
    process must see (FedProphet's prefix cache): a process running a
    cohort of a split group calls ``record_fills()`` before it and
    ``take_fills()`` after it (which stops the recording), and the
    processes it sends the cohort to hand what it filled to
    ``adopt_fills`` as they pull the cohort.
    """

    def __init__(self, fusion_width: int = DEFAULT_FUSION_WIDTH, client_flops: float = 0.0):
        if fusion_width < 1:
            raise ValueError("fusion_width must be >= 1")
        self.fusion_width = fusion_width
        self.client_flops = client_flops
        self.worker_state: List[Any] = []
        self._scope: Optional[_Scope] = None

    def plan_cohorts(self, fn: CohortFn, items: Sequence[Any]) -> List[List[int]]:
        """Deterministic fusion plan: item indices grouped into cohorts.

        Items sharing a non-``None`` ``group_key`` coalesce (in input
        order) into chunks of at most ``fusion_width``; everything else is
        a singleton.  A pure function of ``(keys, width)``, so cohort
        composition is reproducible.
        """
        keys = [fn.group_key(item) for item in items]
        return _fuse(range(len(keys)), keys, self.fusion_width)

    def replicas_for(self, work_flops: float) -> int:
        """Round workers a scope with ``work_flops`` of modelled work forks here."""
        if _in_worker or work_flops <= FORK_FLOOR_FLOPS or not _Blas.pinnable():
            return 0
        return spare_cores()

    def describe(self, work_flops: float, activation_bytes: Optional[int] = None) -> str:
        """The engine clause of a run's verbose report: its round workers for
        ``work_flops`` of modelled work, the pin, both floors, and the fusion
        width with its cause (``activation_bytes``: one client's ``4·B·A`` when
        the width was derived from it; ``None``: configured)."""
        floor = (
            f"a scope (a run, or an evaluation outside one) forks its round workers "
            f"once, at its first group, when its modelled work (a run's: rounds × "
            f"cohort × one client's {self.client_flops / 1e9:.3g} GFLOP) clears "
            f"{FORK_FLOOR_FLOPS / 1e9:g} GFLOP"
        )
        workers = self.replicas_for(work_flops)
        if workers:
            engine = (
                f"engine: {workers} run-scoped round worker(s) beside the caller "
                f"({spare_cores()} spare core(s)), each a replica of the run loop, "
                f"OpenBLAS pinned to 1 thread while they live; a group (training or "
                f"eval) splits between the processes when each share clears "
                f"{EXCHANGE_FLOOR_FLOPS / 1e9:g} GFLOP, else runs whole in each; {floor}"
            )
        else:
            engine = f"engine: serial, one work unit at a time ({floor})"
        cause = "configured" if activation_bytes is None else (
            f"derived: 4·B·A = {activation_bytes / 2**10:.4g} KiB per client against a "
            f"{STACKED_ACTIVATION_BUDGET >> 10} KiB stacked budget, at most "
            f"{DEFAULT_FUSION_WIDTH}; configured: auto"
        )
        return (
            f"{engine}; fusion width {self.fusion_width} ({cause}) for equal-key "
            f"clients, others per item, 1 disables fusion"
        )

    def scope(self, work_flops: float):
        """A context whose groups share round workers forked once.

        A run and an evaluation outside one open the same scope.  At its
        first group it forks one worker per spare core when ``work_flops``,
        the modelled work left to it, clears :data:`FORK_FLOOR_FLOPS` (see
        :class:`_Scope`).  Each worker returns from the fork as a replica of
        this process's program, which writes nothing, and leaves by
        ``os._exit`` when it reaches the scope's end; the caller's end kills
        and reaps it.  Inside a scope already open this is a no-op; a group
        outside any scope runs inline.
        """
        if self._scope is not None:
            return contextlib.nullcontext()
        return _Scope(self, work_flops)

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
        each result is handed out once and not kept.  ``costs`` are the
        items' modelled FLOPs (default: ``client_flops`` each).  Inside a
        :meth:`scope` the first pull splits the group between the scope's
        processes when each share clears :data:`EXCHANGE_FLOOR_FLOPS`;
        outside one the group runs inline.  A work-unit exception
        propagates, with its own type, from the pull that reaches its
        cohort and ends the group; a worker that dies raises
        :class:`RoundWorkerError` there.  Ending a group early
        (``close()``, or dropping it) drops its unread frames; the scope's
        end kills and reaps its workers.
        """
        items = list(items)
        if costs is None:
            costs = [self.client_flops] * len(items)
        work = fn if isinstance(fn, CohortFn) else CohortFn(lambda members: [fn(members[0])])
        keys: List[Any] = []

        def fuse(idxs: List[int]) -> List[List[int]]:  # a split's share, fused on its own
            if not keys:
                keys.extend(work.group_key(item) for item in items)
            return _fuse(idxs, keys, self.fusion_width)

        scope = self._scope if self._scope is not None else _Scope(self, 0.0)  # never forks
        seq, finished = None, False
        try:
            runs, seq = scope.open(self.plan_cohorts(work, items), costs, fuse)
            yield from scope.play(work, items, runs, seq)
            finished = True
        finally:
            if not finished and seq is not None:
                scope.drop(seq)

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
