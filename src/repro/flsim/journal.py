"""Append-only JSONL run journal: the crash-tolerant record of a run.

One JSON object per line, flushed to the OS after every event, so a
``SIGKILL`` loses at most the line being written (a torn tail is
tolerated on read).  The journal is pure observability *plus* the resume
index: it names the config fingerprint the run was started with and the
checkpoint files written along the way, which is everything
:meth:`~repro.flsim.base.FederatedExperiment.resume` needs to restart a
run from its last consistent state.

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
from typing import List, Optional


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
        self.path = path
        self._file = open(path, mode, encoding="utf-8")
        self._seq = seq

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

    @staticmethod
    def last_checkpoint(events: List[dict]) -> Optional[dict]:
        """The most recent ``checkpoint`` event, or None."""
        for event in reversed(events):
            if event.get("kind") == "checkpoint":
                return event
        return None
