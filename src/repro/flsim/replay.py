"""Deterministic journal replay: re-execute a run and verify its log.

The engine-wide bit-identity contract says every journalled payload is a
pure function of the config's semantic fields — never of the fusion
width or the wall clock.  Replay turns that contract into an oracle:
:func:`replay_run` re-executes a journalled run from a freshly built
experiment and asserts that **every event the run loop re-emits matches
the recorded one bit-for-bit** (at the JSON-serialisation level, so float
formatting differences count as divergence too).  A replay may run at a
different fusion width than the original — that is the point.

Resumed journals replay too: the canonicaliser folds each
``resume`` segment back onto the checkpoint that anchored it, producing
the event stream an *uninterrupted* run would have written — which is
exactly what re-execution emits.

The verifier is installed in the experiment's recorder: a
:class:`ReplayJournal` takes the place of its
:class:`~repro.flsim.journal.RunJournal`, so the run loop needs no replay
mode — it just records, and every ``append`` becomes an assertion.  On
mismatch a :class:`ReplayDivergence` names the first divergent ``seq``,
its kind, and the differing fields.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.flsim.checkpoint import nonsemantic_fields
from repro.flsim.journal import JournalError, RunJournal


class ReplayDivergence(JournalError):
    """Re-execution emitted an event that differs from the journal.

    ``seq`` is the recorded event's sequence number in the *original*
    journal file (not the canonicalised stream), so the report points at
    the exact line that diverged.
    """

    def __init__(
        self,
        message: str,
        seq: Optional[int] = None,
        kind: Optional[str] = None,
        recorded: Optional[dict] = None,
        replayed: Optional[dict] = None,
    ):
        super().__init__(message)
        self.seq = seq
        self.kind = kind
        self.recorded = recorded
        self.replayed = replayed


@dataclass
class ReplayReport:
    """What a successful :func:`replay_run` verified."""

    path: str
    fingerprint: str
    events_verified: int
    rounds: int
    merges: int
    evals: int
    skipped_checkpoints: int
    resumes_folded: int

    def summary(self) -> str:
        parts = [
            f"{self.events_verified} events bit-identical",
            f"{self.rounds} rounds",
            f"{self.merges} merges",
            f"{self.evals} evals",
        ]
        if self.resumes_folded:
            parts.append(f"{self.resumes_folded} resume(s) folded")
        if self.skipped_checkpoints:
            parts.append(f"{self.skipped_checkpoints} checkpoint event(s) skipped")
        return f"replay ok [{self.fingerprint}]: " + ", ".join(parts)


def _normalise(kind: str, payload: Dict[str, Any]) -> dict:
    """An event as the journal writer would serialise it (minus ``seq``).

    Round-tripping through ``json.dumps``/``loads`` puts the replayed
    payload in exactly the recorded events' representation (tuples become
    lists, floats take their JSON round-trip form), so dict equality *is*
    serialisation-level bit-identity.
    """
    record: Dict[str, Any] = {"kind": kind}
    record.update(payload)
    return json.loads(json.dumps(record))


def canonical_events(events: List[dict], path: str = "journal") -> Tuple[List[dict], int]:
    """Fold resume segments into the uninterrupted-run event stream.

    A crashed-and-resumed journal contains the dying process's tail
    (events after its last checkpoint, possibly a ``run_abort``) followed
    by a ``resume`` event and the resumed process's re-emission of the
    same rounds.  Re-execution produces the *uninterrupted* stream, so
    each ``resume`` is folded: truncate back to the checkpoint that
    anchored it (matched by ``next_round``) and drop the ``resume`` event
    itself.  Returns the canonical stream and the number of folds.

    Refuses journals that are not a completed run: no ``run_start``, no
    final ``run_end``, or a ``run_abort`` surviving the folds (a Python-
    level failure, not a crash — there is nothing bit-identical to
    verify).

    When folds occurred, the ``cache`` counters are stripped from
    ``sample`` events: the client LRU's hit/miss counters are
    process-local observability (a resumed process restarts them at its
    restore's touches), so they are the one payload field an
    uninterrupted re-execution legitimately cannot reproduce.  Journals
    of uninterrupted runs keep them and verify them bit-for-bit.
    """
    if not events or events[0].get("kind") != "run_start":
        raise JournalError(f"{path}: journal does not start with run_start")
    canonical: List[dict] = []
    folds = 0
    for event in events:
        if event.get("kind") != "resume":
            canonical.append(event)
            continue
        folds += 1
        anchor = None
        for i in range(len(canonical) - 1, -1, -1):
            e = canonical[i]
            if (
                e.get("kind") == "checkpoint"
                and e.get("next_round") == event.get("next_round")
            ):
                anchor = i
                break
        if anchor is None:
            raise JournalError(
                f"{path}: resume event (seq {event.get('seq')}) has no "
                f"matching checkpoint for next_round="
                f"{event.get('next_round')!r}"
            )
        del canonical[anchor + 1 :]
    for event in canonical:
        if event.get("kind") == "run_abort":
            raise JournalError(
                f"{path}: journal records a run_abort (seq "
                f"{event.get('seq')}) that no resume recovered — an "
                f"aborted run cannot be replayed"
            )
    if canonical[-1].get("kind") != "run_end":
        raise JournalError(
            f"{path}: journal has no run_end — the run is still in flight "
            f"or crashed; resume it before replaying"
        )
    if folds:
        canonical = [
            {k: v for k, v in e.items() if k != "cache"}
            if e.get("kind") == "sample"
            else e
            for e in canonical
        ]
    return canonical, folds


class ReplayJournal:
    """A journal stand-in that verifies appends against a recorded stream.

    Installed in the experiment's recorder before ``run()``
    (:meth:`~repro.flsim.journal.RunRecorder.install`): the run starts
    on it instead of opening a journal file, so every event the run loop
    records, ``run_start`` first, lands here and is compared — in strict
    order — against the canonical recorded events.  ``path`` keeps
    checkpoint writes working (the recorder's ``checkpoint_path`` derives
    from it); when the replay experiment has checkpointing off, recorded
    ``checkpoint`` events are skipped (and counted) instead of compared.
    """

    def __init__(self, events: List[dict], path: str, verify_checkpoints: bool):
        self.path = path
        self._events = events
        self._cursor = 0
        self._verify_checkpoints = verify_checkpoints
        self._failed = False
        self.verified = 0
        self.skipped_checkpoints = 0

    def _fail(self, message: str, **kw) -> None:
        self._failed = True
        raise ReplayDivergence(message, **kw)

    def append(self, kind: str, **payload) -> None:
        if self._failed:
            # The run loop's abort cleanup journals a run_abort after the
            # divergence already raised; swallow it so the original
            # report propagates.
            return
        replayed = _normalise(kind, payload)
        while True:
            if self._cursor >= len(self._events):
                self._fail(
                    f"replay divergence: re-execution emitted an extra "
                    f"{kind!r} event after the journal's last recorded "
                    f"event — {json.dumps(replayed)}",
                    kind=kind,
                    replayed=replayed,
                )
            recorded = self._events[self._cursor]
            if (
                not self._verify_checkpoints
                and recorded.get("kind") == "checkpoint"
                and kind != "checkpoint"
            ):
                self._cursor += 1
                self.skipped_checkpoints += 1
                continue
            break
        seq = recorded.get("seq")
        body = {k: v for k, v in recorded.items() if k != "seq"}
        if kind == "sample" and "cache" not in body:
            # Canonicalisation stripped the process-local cache counters
            # (resume folded); strip ours symmetrically.
            replayed.pop("cache", None)
        if body != replayed:
            diffs = []
            for key in sorted(set(body) | set(replayed)):
                a, b = body.get(key, "<absent>"), replayed.get(key, "<absent>")
                if a != b:
                    diffs.append(f"  {key}: recorded {a!r} != replayed {b!r}")
            self._fail(
                f"replay divergence at seq {seq} (kind "
                f"{recorded.get('kind')!r}):\n" + "\n".join(diffs),
                seq=seq,
                kind=recorded.get("kind"),
                recorded=body,
                replayed=replayed,
            )
        self._cursor += 1
        self.verified += 1

    def finish(self) -> None:
        """Assert the recorded stream is fully consumed."""
        while (
            not self._verify_checkpoints
            and self._cursor < len(self._events)
            and self._events[self._cursor].get("kind") == "checkpoint"
        ):
            self._cursor += 1
            self.skipped_checkpoints += 1
        if self._cursor < len(self._events):
            nxt = self._events[self._cursor]
            self._fail(
                f"replay divergence: journal records "
                f"{len(self._events) - self._cursor} event(s) the "
                f"re-execution never emitted, starting at seq "
                f"{nxt.get('seq')} (kind {nxt.get('kind')!r})",
                seq=nxt.get("seq"),
                kind=nxt.get("kind"),
                recorded={k: v for k, v in nxt.items() if k != "seq"},
            )

    def close(self) -> None:
        pass


def replay_run(
    journal_path: str,
    factory: Callable[[], Any],
    verbose: bool = False,
) -> ReplayReport:
    """Re-execute a journalled run and verify every event bit-for-bit.

    ``factory`` builds a **fresh** experiment with the same semantic
    config the journal records (the journal stores only the config
    fingerprint, which is checked before execution) — the non-semantic
    fields may differ, but the client materialisation/cache knobs must
    match the original because the ``run_start`` and ``sample`` events
    record live cache counters.

    Checkpoint events are verified bit-for-bit when the factory's config
    sets the original's ``checkpoint_every`` (checkpoints are then
    re-written under the replay experiment's ``journal_path``, whose
    basename must match the original journal's — the event payload names
    it); with ``checkpoint_every=0`` recorded checkpoint events are
    skipped and counted instead, and replay touches no files at all.

    Raises :class:`ReplayDivergence` on the first mismatching event,
    :class:`~repro.flsim.journal.JournalError` on an unreadable /
    incomplete journal or a fingerprint mismatch.  Returns a
    :class:`ReplayReport` on success.
    """
    events = RunJournal.read(journal_path)
    canonical, folds = canonical_events(events, journal_path)
    run_start, run_end = canonical[0], canonical[-1]
    exp = factory()
    try:
        if exp.history:
            raise RuntimeError("replay_run needs a freshly built experiment")
        fingerprint = exp._fingerprint()
        if run_start.get("fingerprint") != fingerprint:
            raise JournalError(
                f"{journal_path}: journal fingerprint "
                f"{run_start.get('fingerprint')} does not match the replay "
                f"experiment's config ({fingerprint}); only the non-semantic "
                f"fields ({', '.join(nonsemantic_fields(exp.config))}) may "
                f"differ, and client caching must still match: run_start and "
                f"sample events record its counters"
            )
        verify_checkpoints = bool(exp.config.checkpoint_every)
        if verify_checkpoints:
            recorded_names = {
                e["path"] for e in canonical if e.get("kind") == "checkpoint"
            }
            replay_name = os.path.basename(exp.recorder.checkpoint_path)
            if recorded_names and recorded_names != {replay_name}:
                raise JournalError(
                    f"{journal_path}: recorded checkpoint events name "
                    f"{sorted(recorded_names)} but the replay would write "
                    f"{replay_name!r}; give the replay journal_path the "
                    f"same basename as the original (or set "
                    f"checkpoint_every=0 to skip checkpoint verification)"
                )
        verifier = ReplayJournal(
            canonical, path=exp.config.journal_path or journal_path,
            verify_checkpoints=verify_checkpoints,
        )
        exp.recorder.install(verifier)
        exp.run(rounds=run_end.get("rounds"), verbose=verbose)
        verifier.finish()
        report = ReplayReport(
            path=journal_path,
            fingerprint=fingerprint,
            events_verified=verifier.verified,
            rounds=sum(1 for e in canonical if e.get("kind") == "round"),
            merges=sum(1 for e in canonical if e.get("kind") == "merge"),
            evals=sum(
                1 for e in canonical if e.get("kind") in ("eval", "merge_eval")
            ),
            skipped_checkpoints=verifier.skipped_checkpoints,
            resumes_folded=folds,
        )
        if verbose:  # pragma: no cover - console reporting
            print(report.summary())
        return report
    finally:
        exp.close()
