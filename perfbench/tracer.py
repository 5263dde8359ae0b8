"""In-memory span tracer, installed around ``repro``'s public callables.

The tracer lives entirely in ``perfbench/``: :func:`install` swaps wrapped
callables into the ``repro`` modules and classes named by a table (see
``layers.py``) and :func:`uninstall` puts the originals back, so a traced
run needs no edit under ``src/``.  Spans stay in memory until the run ends.

A span is a list ``[name, start, end, parent, round, tid]`` — ``parent``
is the enclosing span *on the same thread* (or ``None``), ``round`` the
operation id in force when the span opened.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, ROUND, TID = range(6)

Span = list
Probe = Callable[["Tracer", Span, tuple, dict, Any], None]


class _ThreadStack(threading.local):
    def __init__(self) -> None:
        self.items: List[Span] = []
        self.tid = threading.get_ident()


class Tracer:
    """Collects spans and boundary counters for one traced run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.round_id = -1
        self._local = _ThreadStack()

    # -- recording -----------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        probe: Optional[Probe] = None,
        name_of: Optional[Callable[[tuple], str]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``name_of(args)`` picks the span name per call (e.g. by attack
        spec); ``probe`` runs after the span closed, outside its timing,
        to record counts and bytes at the same boundary.
        """
        spans, local, clock = self.spans, self._local, time.perf_counter

        def traced(*args, **kwargs):
            stack = local.items
            span = [
                name if name_of is None else name_of(args),
                0.0, 0.0,
                stack[-1] if stack else None,
                self.round_id,
                local.tid,
            ]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                probe(self, span, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def wrap_iter(self, name: str, fn: Callable) -> Callable:
        """A generator function with one span per item it produces."""
        spans, local, clock = self.spans, self._local, time.perf_counter

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                stack = local.items
                span = [name, 0.0, 0.0, stack[-1] if stack else None,
                        self.round_id, local.tid]
                span[START] = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span[END] = clock()
                spans.append(span)
                yield item

        return functools.update_wrapper(traced, fn)

    def span(self, name: str) -> "_SpanContext":
        """Context manager form, for the benchmark's own scaffolding."""
        return _SpanContext(self, name)


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self) -> Span:
        t = self.tracer
        stack = t._local.items
        self.rec = [self.name, 0.0, 0.0, stack[-1] if stack else None,
                    t.round_id, t._local.tid]
        t.spans.append(self.rec)
        stack.append(self.rec)
        self.rec[START] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc) -> None:
        self.rec[END] = time.perf_counter()
        self.tracer._local.items.pop()


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

def aggregate(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` (inclusive) and ``self_s``.

    ``self_s`` subtracts every direct child's duration from its parent.
    ``total_s`` skips a span nested (at any depth) under a span of the
    same name, so re-entrant callables are not counted twice.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for s in spans:
        parent = s[PARENT]
        if parent is not None:
            child_time[id(parent)] += s[END] - s[START]
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = s[END] - s[START]
        row["calls"] += 1
        row["self_s"] += dur - child_time.get(id(s), 0.0)
        ancestor = s[PARENT]
        while ancestor is not None and ancestor[NAME] != s[NAME]:
            ancestor = ancestor[PARENT]
        if ancestor is None:
            row["total_s"] += dur
    return out


def coverage(
    spans: Sequence[Span], window: Tuple[float, float], scaffold: str = "bench."
) -> float:
    """Share of ``window`` spent inside named layer spans.

    Counts, on the thread that owns the window's scaffold spans, every
    span whose parent is missing or a scaffold span (``bench.*``) — i.e.
    the outermost layer spans — clipped to the window.
    """
    t0, t1 = window
    if t1 <= t0:
        return 0.0
    main = next((s[TID] for s in spans if s[NAME].startswith(scaffold)), None)
    covered = 0.0
    for s in spans:
        if s[TID] != main or s[NAME].startswith(scaffold):
            continue
        parent = s[PARENT]
        if parent is not None and not parent[NAME].startswith(scaffold):
            continue
        covered += max(0.0, min(s[END], t1) - max(s[START], t0))
    return covered / (t1 - t0)


def self_time_table(
    spans: Sequence[Span], wall_s: float
) -> List[Dict[str, Any]]:
    """Rows ``{name, calls, total_s, self_s, share}`` sorted by self share."""
    rows = [
        {"name": name, **row, "share": row["self_s"] / wall_s if wall_s else 0.0}
        for name, row in aggregate(spans).items()
    ]
    rows.sort(key=lambda r: r["self_s"], reverse=True)
    return rows


def chrome_trace(spans: Iterable[Span], pid: int = 0, label: str = "") -> List[dict]:
    """Chrome-trace "complete" events (``ph: X``, microseconds)."""
    events: List[dict] = []
    if label:
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": label}})
    ids = {}
    for i, s in enumerate(spans):
        ids[id(s)] = i
        events.append({
            "ph": "X", "pid": pid, "tid": s[TID], "name": s[NAME],
            "ts": s[START] * 1e6, "dur": (s[END] - s[START]) * 1e6,
            "args": {
                "id": i,
                "parent": ids.get(id(s[PARENT])) if s[PARENT] is not None else None,
                "round": s[ROUND],
            },
        })
    return events


def write_chrome_trace(path: str, events: List[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


# ---------------------------------------------------------------------------
# Installation: swap wrapped callables into repro, and back
# ---------------------------------------------------------------------------

Undo = Tuple[Any, str, Any]  # (owner module/class, attribute, original)


def _repro_modules() -> List[Any]:
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer, table: Sequence[dict]) -> List[Undo]:
    """Apply a wrapper table; returns the undo list for :func:`uninstall`.

    Entries (see ``layers.py``):

    * ``{"span", "module", "func"}`` — a module-level function.  Callers
      bind it with ``from m import f``, so every ``repro`` module whose
      namespace holds that exact object gets the wrapper.
    * ``{"span", "module", "cls", "method"}`` — a method defined on the
      class itself (inherited by subclasses that do not override it).

    Optional keys: ``probe``, ``name_of``, ``iter`` (generator function).
    """
    undo: List[Undo] = []
    try:
        for entry in table:
            module = importlib.import_module(entry["module"])
            if "func" in entry:
                original = getattr(module, entry["func"])
                wrapped = _wrapped(tracer, entry, original)
                for mod in _repro_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
            else:
                cls = getattr(module, entry["cls"])
                original = cls.__dict__[entry["method"]]
                setattr(cls, entry["method"], _wrapped(tracer, entry, original))
                undo.append((cls, entry["method"], original))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def _wrapped(tracer: Tracer, entry: dict, original: Callable) -> Callable:
    if entry.get("iter"):
        return tracer.wrap_iter(entry["span"], original)
    return tracer.wrap(
        entry["span"], original, entry.get("probe"), entry.get("name_of")
    )


def uninstall(undo: Sequence[Undo]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
