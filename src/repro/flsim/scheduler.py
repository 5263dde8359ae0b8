"""Cross-round async pipeline over the round executor.

:class:`~repro.flsim.executor.RoundExecutor` plans and runs every group
of work units: ``submit_group(fn, items)`` is a generator that runs the
next cohort on each pull and yields its ``(index, result)`` pairs.

On top of it sits the **cross-round async pipeline**
(:class:`CrossRoundPipeline`): up to ``depth`` training rounds in flight
at once, each dispatched against the server state its *simulated*
dispatch time implies (the per-round **base version** — the count of
merge events applied to the server before dispatch), with merge events
replayed in simulated-arrival order across all in-flight rounds.  See the
class docstring for the full determinism argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.flsim.executor import RoundExecutor

#: The pre-generator name of the executor, kept for the benchmark's
#: traced span table, which binds ``FLScheduler.submit_group`` and
#: ``run_group`` by name (ROADMAP item 10).
FLScheduler = RoundExecutor


# ---------------------------------------------------------------------------
# Cross-round asynchronous pipeline
# ---------------------------------------------------------------------------


@dataclass
class AsyncRoundTicket:
    """Bookkeeping for one in-flight round of the cross-round pipeline.

    ``base_version`` is the per-round base version every client of the
    round trains from: the number of merge events the server had absorbed
    at the round's simulated dispatch time.  ``events`` holds the round's
    merge schedule as client *positions* (ascending within an event, so
    within-event averages always reduce in input order); ``event_times``
    are the absolute simulated times each event applies (the arrival of
    its slowest member).  ``updates`` buffers landed work-unit results,
    by position, until the simulated order lets them merge; a merged one
    is not kept.
    """

    round_idx: int
    dispatch_time: float
    base_version: int
    events: List[List[int]]
    event_times: List[float]
    meta: Any = None
    group: Optional[Iterator[Tuple[int, Any]]] = None
    next_event: int = 0
    updates: Dict[int, Any] = field(default_factory=dict)

    @property
    def drain_time(self) -> float:
        """Simulated time the round's last merge event applies."""
        return self.event_times[-1] if self.event_times else self.dispatch_time


class CrossRoundPipeline:
    """Staleness-bounded asynchronous execution across round boundaries.

    The classic async round still drains at every round boundary: all of
    round *r*'s updates must merge before round *r+1* may dispatch.  The
    pipeline removes that barrier the way a bounded-staleness parameter
    server does: up to ``depth`` rounds are in flight at once, round *r*
    dispatches against the **latest merged server state** its simulated
    dispatch time implies, and fast clients of round *r* merge while the
    stragglers of round *r−1* are still training.

    Mechanics (all in *simulated* time, never wall clock):

    * round *r*'s dispatch time is ``max(previous dispatch, drain time of
      round r−depth)`` — the SSP-style capacity rule: at most ``depth``
      rounds between the oldest un-drained round and the newest dispatch;
    * before dispatching, every merge event (of any in-flight round) with
      apply time ≤ the dispatch time is applied, in global
      ``(time, round, event)`` order; the server version after that replay
      is the round's **base version** and the caller snapshots the server
      for the round's clients right then;
    * each round's own merge schedule is
      :func:`repro.core.aggregator.async_merge_schedule` over its
      simulated arrival order, so ``max_staleness`` bounds the
      *intra-round* merge lag exactly as in the single-round engine; the
      staleness handed to the merge callback is the **total** lag
      ``server version at merge − base version``, which additionally
      counts interleaved merges of the other in-flight rounds (at
      ``depth=1`` the two notions coincide).

    Determinism contract: the merge replay order, per-round base
    versions, and dispatch times are pure functions of the per-client
    simulated costs; a round's group trains when the merge replay pulls
    it, so the overlap is a simulated-time schedule, not a wall-clock
    one.  ``depth=1`` with ``max_staleness=0`` reproduces synchronous
    FedAvg exactly: a round-barrier run is one such pipeline per round,
    started at the run's clock (``start_time``) and drained at once.

    The merge callback gets an event's updates as a one-shot iterator in
    member order: a member trains when the merge pulls its update, and
    nothing here keeps the update once handed out, so a merge that folds
    its updates holds one running result, not the event's whole cohort.

    Population-engine composition: tickets hold strong references to the
    dispatched :class:`~repro.flsim.population.FLClient` objects (via
    their items and ``meta``), so a lazily materialised client stays
    alive for every in-flight round that uses it even after the
    population LRU evicts it — eviction only drops the *cache entry*,
    and a later re-touch rematerialises the identical client from its
    ``(seed, cid)`` streams.
    """

    def __init__(
        self,
        executor: RoundExecutor,
        max_staleness: int,
        depth: int,
        merge_event: Callable[[AsyncRoundTicket, List[int], Iterator[Any], int], None],
        round_complete: Callable[[AsyncRoundTicket], None],
        start_time: float = 0.0,
    ):
        if depth < 1:
            raise ValueError("pipeline depth must be >= 1")
        if max_staleness < 0:
            raise ValueError("max_staleness must be >= 0")
        self.executor = executor
        self.max_staleness = max_staleness
        self.depth = depth
        self.merge_event = merge_event
        self.round_complete = round_complete
        #: Server version: merge events applied so far.
        self.version = 0
        #: Highest number of concurrently in-flight rounds observed.
        self.peak_in_flight = 0
        self._inflight: List[AsyncRoundTicket] = []
        self._dispatched = 0
        self._last_dispatch_time = start_time
        self._drain_watermarks: List[float] = []  # running max drain per dispatch

    @property
    def in_flight(self) -> int:
        """Rounds dispatched but not yet fully merged."""
        return len(self._inflight)

    def stats(self) -> Dict[str, int]:
        """Live pipeline counters (the status endpoint's async panel).

        Pure bookkeeping reads — safe to sample between merges — and
        derived from the simulated schedule.
        """
        return {
            "version": self.version,
            "in_flight": self.in_flight,
            "peak_in_flight": self.peak_in_flight,
            "rounds_dispatched": self._dispatched,
        }

    def dispatch(
        self,
        round_idx: int,
        items: Sequence[Any],
        costs_s: Sequence[float],
        fn_factory: Callable[[AsyncRoundTicket], Callable[[Any], Any]],
        meta: Any = None,
    ) -> AsyncRoundTicket:
        """Dispatch one round against the server state its sim-time implies.

        ``costs_s`` are the clients' simulated training latencies (pure
        arithmetic over device states, known *before* training), which fix
        the arrival order, the merge schedule, and every event's apply
        time.  ``fn_factory(ticket)`` is called *after* the pre-dispatch
        merge replay, so it can snapshot the server at exactly the
        round's base version and close the work function over that
        snapshot.  Rounds must be dispatched in increasing simulated
        order (the run loop's natural order).
        """
        from repro.core.aggregator import arrival_merge_events  # local: core imports flsim

        items = list(items)
        costs_s = [float(c) for c in costs_s]
        if len(items) != len(costs_s):
            raise ValueError("items and costs_s must have equal length")
        t = self._last_dispatch_time
        if self._dispatched >= self.depth:
            t = max(t, self._drain_watermarks[self._dispatched - self.depth])
        self.advance_to(t)
        events = arrival_merge_events(costs_s, self.max_staleness)
        event_times = [
            t + max(costs_s[i] for i in event) for event in events
        ]
        ticket = AsyncRoundTicket(
            round_idx=round_idx,
            dispatch_time=t,
            base_version=self.version,
            events=events,
            event_times=event_times,
            meta=meta,
        )
        ticket.group = self.executor.submit_group(fn_factory(ticket), items)
        self._last_dispatch_time = t
        previous = self._drain_watermarks[-1] if self._drain_watermarks else 0.0
        self._drain_watermarks.append(max(previous, ticket.drain_time))
        self._dispatched += 1
        if ticket.events:
            self._inflight.append(ticket)
            self.peak_in_flight = max(self.peak_in_flight, len(self._inflight))
        else:  # empty round: nothing to merge
            self.round_complete(ticket)
        return ticket

    def advance_to(self, time_limit: float) -> None:
        """Apply every merge event with apply time ≤ ``time_limit``.

        Events replay in global ``(apply time, round, event)`` order;
        applying one first trains the round's cohorts up to the event's
        members.
        """
        while True:
            ticket = self._next_ready(time_limit)
            if ticket is None:
                return
            self._apply_event(ticket)

    def drain_all(self) -> None:
        """Apply every outstanding merge event (end of the run loop)."""
        self.advance_to(float("inf"))

    # -- checkpoint support --------------------------------------------------
    def export_state(self, export_meta: Callable[[Any], Any]) -> Dict[str, Any]:
        """Snapshot the pipeline's bookkeeping for a checkpoint.

        Lands every in-flight ticket's remaining updates (the simulated
        merge schedule is fixed at dispatch, so training them early cannot
        change what merges when) beside the unmerged ones it already
        landed, and stores them with each ticket.  The live pipeline keeps
        running afterwards: landed tickets never pull their group again
        (:meth:`_updates` only calls ``next`` while a member is
        un-landed).  ``export_meta`` serialises each ticket's
        opaque ``meta`` (the experiment's round context).
        """
        tickets = []
        for ticket in self._inflight:
            if ticket.group is not None:
                ticket.updates.update(ticket.group)
                ticket.group = None
            tickets.append(
                {
                    "round_idx": ticket.round_idx,
                    "dispatch_time": ticket.dispatch_time,
                    "base_version": ticket.base_version,
                    "events": [list(e) for e in ticket.events],
                    "event_times": list(ticket.event_times),
                    "next_event": ticket.next_event,
                    "updates": dict(ticket.updates),
                    "meta": export_meta(ticket.meta),
                }
            )
        return {
            "version": self.version,
            "peak_in_flight": self.peak_in_flight,
            "dispatched": self._dispatched,
            "last_dispatch_time": self._last_dispatch_time,
            "drain_watermarks": list(self._drain_watermarks),
            "tickets": tickets,
        }

    def restore_state(
        self, state: Dict[str, Any], build_meta: Callable[[Any], Any]
    ) -> None:
        """Rebuild a freshly constructed pipeline from a checkpoint snapshot.

        Restored tickets carry their unmerged updates (``group=None`` —
        all landed, so the merge replay never consults the group) and
        the scalar bookkeeping resumes exactly where the checkpoint left
        it, so the continuing dispatch/merge schedule is bit-identical to
        the uninterrupted run's.  ``build_meta`` rehydrates each ticket's
        round context from ``export_meta``'s output.
        """
        if self._dispatched:
            raise RuntimeError(
                "restore_state requires a freshly constructed pipeline"
            )
        self.version = state["version"]
        self.peak_in_flight = state["peak_in_flight"]
        self._dispatched = state["dispatched"]
        self._last_dispatch_time = state["last_dispatch_time"]
        self._drain_watermarks = list(state["drain_watermarks"])
        for data in state["tickets"]:
            updates = data["updates"]  # older checkpoints: a list by position
            ticket = AsyncRoundTicket(
                round_idx=data["round_idx"],
                dispatch_time=data["dispatch_time"],
                base_version=data["base_version"],
                events=[list(e) for e in data["events"]],
                event_times=list(data["event_times"]),
                meta=build_meta(data["meta"]),
                next_event=data["next_event"],
                updates=dict(enumerate(updates) if isinstance(updates, list) else updates),
            )
            self._inflight.append(ticket)

    # -- internals ---------------------------------------------------------
    def _next_ready(self, time_limit: float) -> Optional[AsyncRoundTicket]:
        best: Optional[AsyncRoundTicket] = None
        best_key: Optional[Tuple[float, int, int]] = None
        for ticket in self._inflight:
            key = (
                ticket.event_times[ticket.next_event],
                ticket.round_idx,
                ticket.next_event,
            )
            if key[0] <= time_limit and (best_key is None or key < best_key):
                best, best_key = ticket, key
        return best

    @staticmethod
    def _updates(ticket: AsyncRoundTicket, members: List[int]) -> Iterator[Any]:
        """``members``' updates in order, each landed when pulled and not kept:
        the pop hands the update out without this frame holding it."""
        for i in members:
            while i not in ticket.updates:
                ticket.updates.update([next(ticket.group)])
            yield ticket.updates.pop(i)

    def _apply_event(self, ticket: AsyncRoundTicket) -> None:
        members = ticket.events[ticket.next_event]
        staleness = self.version - ticket.base_version
        self.merge_event(ticket, members, self._updates(ticket, members), staleness)
        self.version += 1
        ticket.next_event += 1
        if ticket.next_event == len(ticket.events):
            self._inflight.remove(ticket)
            ticket.group = None  # drained: its work function and base go with it
            self.round_complete(ticket)
