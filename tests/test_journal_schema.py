"""Journal schema guards: the closed kind set and the on-disk format.

``tests/data/golden_journal.jsonl`` is a checked-in journal containing
one event of **every** kind in :data:`~repro.flsim.journal.KNOWN_KINDS`,
written by the real writer.  It pins the on-disk format: if the writer's
serialisation or the kind set drifts, these tests fail before any stored
journal in the wild stops replaying.
"""

import json
import os

import pytest

from repro.flsim import JournalError, RunJournal
from repro.flsim.journal import KNOWN_KINDS
from repro.flsim.replay import canonical_events

pytestmark = pytest.mark.replay

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_journal.jsonl")


class TestKnownKinds:
    def test_writer_refuses_unknown_kind(self, tmp_path):
        j = RunJournal.create(str(tmp_path / "run.jsonl"))
        with pytest.raises(ValueError, match="unknown journal event kind 'telemetry'"):
            j.append("telemetry", round=0)
        j.close()

    def test_reader_refuses_unknown_kind_naming_the_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"seq": 0, "kind": "run_start"}) + "\n")
            fh.write(json.dumps({"seq": 1, "kind": "telemetry"}) + "\n")
            fh.write(json.dumps({"seq": 2, "kind": "run_end"}) + "\n")
        with pytest.raises(JournalError, match=r"line 2 \(seq 1\).*'telemetry'"):
            RunJournal.read(path)

    def test_reader_refuses_seq_gap_naming_the_line(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"seq": 0, "kind": "run_start"}) + "\n")
            fh.write(json.dumps({"seq": 2, "kind": "round"}) + "\n")
            fh.write(json.dumps({"seq": 3, "kind": "run_end"}) + "\n")
        with pytest.raises(JournalError, match="line 2 has seq 2, expected 1"):
            RunJournal.read(path)

    def test_reader_refuses_seq_repeat(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"seq": 0, "kind": "run_start"}) + "\n")
            fh.write(json.dumps({"seq": 0, "kind": "round"}) + "\n")
        with pytest.raises(JournalError, match="line 2 has seq 0, expected 1"):
            RunJournal.read(path)

    def test_every_kind_round_trips_writer_to_reader(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        j = RunJournal.create(path)
        kinds = sorted(KNOWN_KINDS)
        for i, kind in enumerate(kinds):
            j.append(kind, probe=i)
        j.close()
        events = RunJournal.read(path)
        assert [e["kind"] for e in events] == kinds
        assert [e["seq"] for e in events] == list(range(len(kinds)))
        assert [e["probe"] for e in events] == list(range(len(kinds)))


class TestGoldenJournal:
    def test_covers_every_known_kind(self):
        events = RunJournal.read(GOLDEN)
        assert {e["kind"] for e in events} == set(KNOWN_KINDS)

    def test_on_disk_format_is_pinned(self):
        """Re-serialising each event reproduces the file byte-for-byte.

        This is the format guard: key order, separators, float repr, and
        the trailing newline are all part of the on-disk contract (the
        replay verifier compares at this level).
        """
        events = RunJournal.read(GOLDEN)
        reserialised = "".join(json.dumps(e) + "\n" for e in events)
        with open(GOLDEN, encoding="utf-8") as fh:
            assert fh.read() == reserialised

    def test_writer_reproduces_the_golden_bytes(self, tmp_path):
        path = str(tmp_path / "rewrite.jsonl")
        events = RunJournal.read(GOLDEN)
        j = RunJournal.create(path)
        for e in events:
            j.append(e["kind"], **{k: v for k, v in e.items() if k not in ("seq", "kind")})
        j.close()
        with open(GOLDEN, encoding="utf-8") as a, open(path, encoding="utf-8") as b:
            assert a.read() == b.read()

    def test_golden_lifecycle_canonicalises(self):
        """The golden journal is a plausible crashed-and-resumed run: the
        replay canonicaliser folds its resume and recovers the abort."""
        canonical, folds = canonical_events(RunJournal.read(GOLDEN), GOLDEN)
        assert folds == 1
        assert canonical[0]["kind"] == "run_start"
        assert canonical[-1]["kind"] == "run_end"
        assert all(e["kind"] != "run_abort" for e in canonical)

    def test_resume_open_continues_the_seq(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(GOLDEN, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as dst:
            dst.write(src.read())
        n = len(RunJournal.read(path))
        j = RunJournal.resume_open(path)
        j.append("resume", next_round=1)
        j.close()
        events = RunJournal.read(path)
        assert events[-1] == {"seq": n, "kind": "resume", "next_round": 1}
