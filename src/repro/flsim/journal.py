"""Append-only JSONL run journal: the crash-tolerant record of a run.

One JSON object per line, flushed to the OS after every event, so a
``SIGKILL`` loses at most the line being written (a torn tail is
tolerated on read).  The journal is pure observability *plus* the resume
index: it names the config fingerprint the run was started with and the
checkpoint files written along the way, which is everything
:meth:`~repro.flsim.base.FederatedExperiment.resume` needs to restart a
run from its last consistent state.  A run writes it, its status tee and
its checkpoints through one :class:`RunRecorder`.

Event kinds written by the run loop (in deterministic program order):

========== ==============================================================
kind        payload
========== ==============================================================
run_start   ``fingerprint``, ``experiment``, ``rounds``, ``mode``, plus
            the population shape: ``population``, ``cohort``, ``scheme``,
            ``materialisation``, ``cache_capacity``
sample      ``round``, ``cids`` (the cohort that will train),
            ``population``, ``cache`` (hit/miss/eviction/live counters of
            the client LRU at sampling time)
faults      ``round``, ``sampled``, ``dropped``, ``retries``, ``aborted``
threats     ``round``, ``attack``, ``byzantine`` (cids marked this round)
dispatch    pipelined round: ``round``, ``base_version``, ``dispatch_time``,
            ``cids``
merge       pipelined round: mirrors one ``AsyncMergeEvent`` (+``agg``
            rule stats)
merge_eval  async: merged-server accuracy at a server ``version``
            (``eval_every_merge`` — the staleness-curve sample points)
agg         barrier round: ``round``, ``events`` (robust-rule
            rejection/clipping stats)
agg_abort   barrier round: ``round``, ``error`` (an ``AggregationError``
            ended the round)
round       ``round``, ``sim_time_s`` (+cumulative costs, ``aborted``)
eval        ``round``, ``clean_acc``, ``pgd_acc``, ``aa_acc``
checkpoint  ``next_round``, ``path`` (basename, relative to the journal)
resume      ``next_round`` (a resumed process took over here)
run_end     ``rounds``, ``clock_s``
========== ==============================================================
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional

from repro.flsim import checkpoint as ckpt
from repro.flsim.service import MetricsService


class JournalError(RuntimeError):
    """A journal could not be read, or does not match the experiment."""


#: The closed set of event kinds the run loop emits.  The writer refuses
#: unknown kinds (a typo would silently corrupt the replay contract) and
#: the reader refuses files containing them (they are not run journals —
#: or they were written by a newer schema this reader cannot replay).
KNOWN_KINDS = frozenset(
    {
        "run_start",
        "sample",
        "faults",
        "threats",
        "dispatch",
        "merge",
        "merge_eval",
        "agg",
        "agg_abort",
        "round",
        "eval",
        "checkpoint",
        "resume",
        "run_end",
        "run_abort",
    }
)


class RunJournal:
    """Append-only JSONL event log with monotonically increasing ``seq``."""

    def __init__(self, path: str, mode: str = "w"):
        if mode not in ("w", "a"):
            raise ValueError(f"journal mode must be 'w' or 'a', got {mode!r}")
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        seq = 0
        if mode == "a" and os.path.exists(path):
            seq = len(self.read(path))
            self._end_last_line(path)
        self.path = path
        self._file = open(path, mode, encoding="utf-8")
        self._seq = seq

    @staticmethod
    def _end_last_line(path: str) -> None:
        """End the file at a line boundary, or the next append is glued onto
        its last line: a torn line (which :meth:`read` ignores) is cut off,
        a complete event that lost only its newline gets one."""
        with open(path, "rb+") as f:
            data = f.read()
            tail = data[data.rfind(b"\n") + 1 :]
            if not tail.strip():
                return
            try:
                json.loads(tail)
            except ValueError:
                f.truncate(len(data) - len(tail))
            else:
                f.write(b"\n")

    @classmethod
    def create(cls, path: str) -> "RunJournal":
        """Start a fresh journal (truncates any previous run's log)."""
        return cls(path, "w")

    @classmethod
    def resume_open(cls, path: str) -> "RunJournal":
        """Reopen an existing journal for appending (the resume path)."""
        if not os.path.exists(path):
            raise JournalError(f"journal not found: {path}")
        return cls(path, "a")

    def append(self, kind: str, **payload) -> None:
        """Write one event and flush it to the OS (crash-tolerant)."""
        if kind not in KNOWN_KINDS:
            raise ValueError(
                f"unknown journal event kind {kind!r} "
                f"(known: {sorted(KNOWN_KINDS)})"
            )
        record = {"seq": self._seq, "kind": kind}
        record.update(payload)
        self._file.write(json.dumps(record) + "\n")
        self._file.flush()
        self._seq += 1

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    # -- readers -------------------------------------------------------------
    @staticmethod
    def read(path: str) -> List[dict]:
        """Parse a journal; a torn *final* line (crash artefact) is dropped.

        A malformed line anywhere else means the file is not an
        append-only journal and raises :class:`JournalError`.  The
        writer's ``seq`` counter is contiguous from 0, so the reader also
        verifies it: a gap, repeat, or missing ``seq`` mid-file (silent
        corruption a JSON parse alone cannot see — e.g. a torn *middle*
        page after a crashed overwrite) raises :class:`JournalError`
        naming the expected and found seq, and resume refuses cleanly
        instead of continuing from a hole.  An event whose ``kind`` is
        not in :data:`KNOWN_KINDS` likewise raises, naming the line.
        """
        events: List[dict] = []
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail from a mid-write kill
                raise JournalError(
                    f"{path}: malformed journal line {i + 1} "
                    f"(expected seq {len(events)})"
                ) from None
            expected = len(events)
            got = event.get("seq") if isinstance(event, dict) else None
            if got != expected:
                raise JournalError(
                    f"{path}: journal line {i + 1} has seq {got!r}, "
                    f"expected {expected} (mid-file corruption?)"
                )
            kind = event.get("kind")
            if kind not in KNOWN_KINDS:
                raise JournalError(
                    f"{path}: journal line {i + 1} (seq {expected}) has "
                    f"unknown event kind {kind!r}"
                )
            events.append(event)
        return events


class RunRecorder:
    """The one writer of a run: its journal, status tee and checkpoints.

    The journal is opened at the run's start (``journal_path``), reopened
    by :meth:`resume`, or :meth:`install`-ed (the replay verifier); the
    status tee (``status_port``) answers from construction on.  In any
    process but the one that opened it, recording, checkpointing, aborting
    and closing do nothing: a forked round worker's copy writes nothing.
    """

    def __init__(self, journal_path: Optional[str] = None, status_port: Optional[int] = None,
                 parallelism: Callable[[], Optional[str]] = lambda: None):
        self._pid = os.getpid()
        self._started = False  # run_start is recorded
        self.journal_path = journal_path
        self.journal = None
        self.status = None if status_port is None else MetricsService(status_port, parallelism())

    @property
    def address(self) -> Optional[str]:
        return self.status.address if self.status is not None else None

    @property
    def checkpoint_path(self) -> str:
        return (self.journal.path if self.journal is not None else self.journal_path) + ".ckpt"

    def install(self, journal) -> None:
        """Record the run in ``journal`` (``append``/``close``/``path``)."""
        self.journal = journal

    def start(self, run_start: Dict[str, Any]) -> None:
        """Open the journal unless one is installed, and record ``run_start``
        once (a resumed journal has its own)."""
        if self._started or os.getpid() != self._pid:
            return
        self._started = True
        if self.journal is None and self.journal_path is not None:
            self.journal = RunJournal.create(self.journal_path)
        self.record("run_start", **run_start)

    def record(self, kind: str, **payload) -> None:
        """Append one event to the journal and tee it into the status."""
        if os.getpid() != self._pid:
            return
        if self.journal is not None:
            self.journal.append(kind, **payload)
        if self.status is not None:
            self.status.observe(kind, payload)

    def observe_pipeline(self, stats: Callable[[], Dict[str, int]]) -> None:
        """Fold the cross-round pipeline's live counters into the status."""
        if self.status is not None and os.getpid() == self._pid:
            self.status.update_pipeline(stats())

    def checkpoint(self, next_round: int, payload: Callable[[], Dict[str, Any]]) -> None:
        """Write and record the checkpoint ``payload()`` builds (built only here)."""
        if os.getpid() != self._pid:
            return
        path = self.checkpoint_path
        ckpt.write_checkpoint(path, payload())
        self.record("checkpoint", next_round=next_round, path=os.path.basename(path))

    def resume(self, path: str, run_start: Dict[str, Any],
               restore: Callable[[Dict[str, Any]], None], config: Any) -> None:
        """Take over the run journalled at ``path``: ``restore`` its last
        checkpoint's payload and reopen the journal to append.  Without a
        checkpoint nothing is installed, and the run starts afresh.
        ``config`` names the fields a resume may change when the
        fingerprints differ."""
        events = RunJournal.read(path)
        if not events or events[0].get("kind") != "run_start":
            raise JournalError(f"{path}: journal does not start with run_start")
        fingerprint = run_start["fingerprint"]
        if events[0].get("fingerprint") != fingerprint:
            raise JournalError(
                f"{path}: journal fingerprint {events[0].get('fingerprint')} "
                f"does not match this experiment's config ({fingerprint}); "
                f"only the non-semantic fields "
                f"({', '.join(ckpt.nonsemantic_fields(config))}) may change "
                f"across a resume"
            )
        event = next((e for e in reversed(events) if e["kind"] == "checkpoint"), None)
        if event is None:
            return  # the run is deterministic: replaying from scratch *is* the resume
        ckpt_path = os.path.join(os.path.dirname(os.path.abspath(path)), event["path"])
        payload = ckpt.read_checkpoint(ckpt_path)
        if payload["fingerprint"] != fingerprint:
            raise JournalError(
                f"{ckpt_path}: checkpoint fingerprint does not match this "
                f"experiment's config"
            )
        restore(payload)
        self.journal = RunJournal.resume_open(path)
        self._started = True
        if self.status is not None:
            self.status.observe("run_start", run_start)
        next_round = payload["next_round"]
        if next_round != event["next_round"]:
            # Killed between the checkpoint's rename and its journal event:
            # log it now, so the resume anchors on it and the journal folds.
            self.record("checkpoint", next_round=next_round, path=event["path"])
        self.record("resume", next_round=next_round)

    def abort(self) -> None:
        """Record ``run_abort`` (a failure, not a crash) and close, best effort:
        the journal is written first and each step has its own guard, so a
        status tee that raises keeps it neither from recording nor closing."""
        for step in (lambda: self.record("run_abort"), self.close):
            try:
                step()
            except Exception:  # the run re-raises its own error
                pass

    def close(self) -> None:
        """Close the journal and shut the status endpoint down; idempotent."""
        if os.getpid() != self._pid:
            return
        journal, self.journal = self.journal, None
        try:
            if journal is not None:
                journal.close()
        finally:
            if self.status is not None:
                self.status.close()
