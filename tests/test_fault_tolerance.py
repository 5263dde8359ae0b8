"""Crash tolerance: run journal, checkpoint/resume, seeded fault injection.

Load-bearing properties (PR 6):

* a run interrupted at a round boundary and resumed from its journal's
  last checkpoint produces **bit-identical** final weights, history, and
  merge-event log to the uninterrupted run — in sync, async, and
  ``pipeline_depth>=2`` modes, resuming at any fusion width (the
  checkpoint stores no execution-engine state);
* the journal is an append-only JSONL log that tolerates a torn final
  line (the SIGKILL artefact) and refuses malformed lines elsewhere;
* fault injection is deterministic: the same :class:`FaultPlan` seed
  yields bit-identical surviving-cohort aggregation fused and per item,
  and a disabled plan reproduces the fault-free engine
  exactly (the fault RNG is a separate stream);
* rounds degrade gracefully: dropped clients reweight the aggregation
  over the survivors, stragglers/retries stretch the simulated clock,
  and a cohort below ``min_clients_per_round`` aborts the round
  deterministically without touching the model.
"""

import errno
import gc
import json
import os
import pickle
import shutil
import socket
import warnings

import numpy as np
import pytest

from repro.baselines import FedDFAT, FedETAT, JointFAT
from repro.core import FedProphet, FedProphetConfig
from repro.data import make_cifar10_like
from repro.flsim import (
    CheckpointError,
    FaultPlan,
    FLConfig,
    JournalError,
    RunJournal,
    read_checkpoint,
)
from repro.flsim.base import FederatedExperiment
from repro.flsim.checkpoint import TRAILER_MAGIC, nonsemantic_fields
from repro.hardware import DeviceSampler, device_pool
from repro.models import build_cnn
from repro.optim import SGD

pytestmark = [pytest.mark.scheduler, pytest.mark.fault_tolerance]


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _sampler():
    return DeviceSampler(device_pool("cifar10"), "unbalanced")


def _cfg(cls=FLConfig, **overrides):
    defaults = dict(
        num_clients=5, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=5, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, eval_max_samples=24, seed=0,
    )
    if cls is FedProphetConfig:
        defaults.update(rounds_per_module=2, patience=5, r_min_fraction=0.4,
                        val_samples=16, val_pgd_steps=2)
    defaults.update(overrides)
    return cls(**defaults)


def _state(exp):
    return {k: v.copy() for k, v in exp.global_model.state_dict().items()}


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


def _assert_runs_equal(ref, exp):
    _assert_states_equal(_state(ref), _state(exp))
    assert len(ref.history) == len(exp.history)
    for x, y in zip(ref.history, exp.history):
        assert (x.round, x.sim_time_s, x.compute_s, x.access_s, x.aborted) == (
            y.round, y.sim_time_s, y.compute_s, y.access_s, y.aborted
        )
        if x.eval is None:
            assert y.eval is None
        else:
            assert x.eval.as_dict() == y.eval.as_dict()
    assert ref.async_log == exp.async_log


# ---------------------------------------------------------------------------
# Journal format
# ---------------------------------------------------------------------------


class TestRunJournal:
    def test_append_and_read_round_trip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_start", fingerprint="abc", rounds=3)
        journal.append("round", round=0, sim_time_s=1.5)
        journal.close()
        events = RunJournal.read(path)
        assert [e["kind"] for e in events] == ["run_start", "round"]
        assert [e["seq"] for e in events] == [0, 1]
        assert events[1]["sim_time_s"] == 1.5

    def test_torn_final_line_tolerated(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_start", fingerprint="abc")
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"seq": 1, "kind": "rou')  # SIGKILL mid-write
        events = RunJournal.read(path)
        assert [e["kind"] for e in events] == ["run_start"]

    def test_malformed_middle_line_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"seq": 0, "kind": "run_start"}\nnot json\n{"seq": 2}\n')
        with pytest.raises(JournalError, match="malformed"):
            RunJournal.read(path)

    def test_seq_gap_mid_file_rejected(self, tmp_path):
        # A torn *middle* page (crashed overwrite, disk corruption) can
        # leave valid JSON with a hole in the seq chain — the reader must
        # notice even though every line parses.
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"seq": 0, "kind": "run_start"}\n')
            f.write('{"seq": 2, "kind": "round", "round": 1}\n')
        with pytest.raises(JournalError, match="seq 2, expected 1"):
            RunJournal.read(path)

    def test_seq_repeat_mid_file_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"seq": 0, "kind": "run_start"}\n')
            f.write('{"seq": 0, "kind": "round"}\n')
        with pytest.raises(JournalError, match="seq 0, expected 1"):
            RunJournal.read(path)

    def test_missing_seq_rejected(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"kind": "run_start"}\n')
        with pytest.raises(JournalError, match="seq None, expected 0"):
            RunJournal.read(path)

    def test_resume_refuses_corrupt_journal(self, tmp_path):
        # resume_open reads the journal to continue the seq counter, so a
        # mid-file hole must refuse the resume cleanly (no silent append
        # past corruption) while leaving the file untouched.
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write('{"seq": 0, "kind": "run_start"}\n')
            f.write('{"seq": 5, "kind": "round"}\n')
        before = open(path, encoding="utf-8").read()
        with pytest.raises(JournalError, match="mid-file corruption"):
            RunJournal.resume_open(path)
        assert open(path, encoding="utf-8").read() == before

    def test_resume_open_continues_seq(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_start")
        journal.append("round", round=0)
        journal.close()
        journal = RunJournal.resume_open(path)
        journal.append("resume", next_round=1)
        journal.close()
        assert [e["seq"] for e in RunJournal.read(path)] == [0, 1, 2]

    @pytest.mark.parametrize(
        "tail,kept",
        [('{"seq": 1, "kind": "rou', 1), ('{"seq": 1, "kind": "round"}', 2)],
        ids=["torn", "unterminated"],
    )
    def test_resume_open_appends_after_the_last_complete_event(self, tmp_path, tail, kept):
        # A torn tail is cut off (read() never counted it); a complete
        # event that lost only its newline is kept.  Either way the
        # appended events start on a line of their own.
        path = str(tmp_path / "run.jsonl")
        journal = RunJournal.create(path)
        journal.append("run_start")
        journal.close()
        with open(path, "a", encoding="utf-8") as f:
            f.write(tail)  # SIGKILL mid-write
        journal = RunJournal.resume_open(path)
        journal.append("resume", next_round=1)
        journal.append("round", round=1)
        journal.close()
        events = RunJournal.read(path)
        assert [e["seq"] for e in events] == list(range(kept + 2))
        assert [e["kind"] for e in events[kept:]] == ["resume", "round"]

    def test_resume_open_requires_file(self, tmp_path):
        with pytest.raises(JournalError, match="not found"):
            RunJournal.resume_open(str(tmp_path / "missing.jsonl"))

    def test_run_journal_records_lifecycle(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder, _cfg(rounds=2, eval_every=2,
                                               journal_path=path))
        exp.run()
        exp.close()
        kinds = [e["kind"] for e in RunJournal.read(path)]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        assert kinds.count("sample") == 2
        assert kinds.count("round") == 2
        assert "eval" in kinds


# ---------------------------------------------------------------------------
# Checkpoint / resume bit-identity
# ---------------------------------------------------------------------------

MODES = [
    pytest.param(dict(), id="sync"),
    pytest.param(dict(aggregation_mode="async", max_staleness=2), id="async"),
    pytest.param(
        dict(aggregation_mode="async", max_staleness=2, pipeline_depth=2),
        id="pipeline2",
    ),
]


class TestCheckpointResume:
    @pytest.mark.parametrize("mode", MODES)
    def test_resume_is_bit_identical(self, tmp_path, mode):
        ref = JointFAT(_task(), _builder, _cfg(**mode))
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        interrupted = JointFAT(
            _task(), _builder, _cfg(journal_path=path, checkpoint_every=2, **mode)
        )
        interrupted.run(rounds=3)  # dies after round 3; checkpoint at round 2
        interrupted.close()

        resumed = JointFAT(
            _task(), _builder, _cfg(journal_path=path, checkpoint_every=2, **mode)
        )
        resumed.resume(path)
        _assert_runs_equal(ref, resumed)
        resumed.close()
        events = RunJournal.read(path)
        kinds = [e["kind"] for e in events]
        assert "resume" in kinds and kinds[-1] == "run_end"

    def test_resume_at_another_fusion_width(self, tmp_path):
        """The checkpoint carries no engine state: resume per item."""
        mode = dict(aggregation_mode="async", max_staleness=2, pipeline_depth=2)
        ref = JointFAT(_task(), _builder, _cfg(**mode))
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        interrupted = JointFAT(
            _task(), _builder, _cfg(journal_path=path, checkpoint_every=2, **mode)
        )
        interrupted.run(rounds=3)
        interrupted.close()

        resumed = JointFAT(
            _task(), _builder,
            _cfg(journal_path=path, checkpoint_every=2, fusion_width=1, **mode),
        )
        resumed.resume(path)
        _assert_runs_equal(ref, resumed)
        resumed.close()

    @pytest.mark.parametrize("mode", MODES)
    def test_resume_into_a_lazy_population(self, tmp_path, mode):
        """The checkpoint holds no client objects: an eager run resumes
        into a two-entry lazy cache that rebuilds clients from their cid."""
        ref = JointFAT(_task(), _builder, _cfg(**mode))
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        interrupted = JointFAT(
            _task(), _builder, _cfg(journal_path=path, checkpoint_every=2, **mode)
        )
        interrupted.run(rounds=3)
        interrupted.close()

        resumed = JointFAT(
            _task(), _builder,
            _cfg(journal_path=path, checkpoint_every=2,
                 client_materialisation="lazy", client_cache_size=2, **mode),
        )
        resumed.resume(path)
        _assert_runs_equal(ref, resumed)
        assert resumed.clients.stats()["evictions"] > 0
        resumed.close()

    def test_resume_without_checkpoint_replays_from_scratch(self, tmp_path):
        ref = JointFAT(_task(), _builder, _cfg(rounds=3))
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        interrupted = JointFAT(_task(), _builder, _cfg(rounds=3, journal_path=path))
        interrupted.run(rounds=1)  # no checkpoint_every: journal only
        interrupted.close()

        resumed = JointFAT(_task(), _builder, _cfg(rounds=3, journal_path=path))
        resumed.resume(path)
        _assert_runs_equal(ref, resumed)
        resumed.close()

    @pytest.mark.round_engine
    def test_a_resumed_run_tells_the_status_tee_what_it_runs(self, tmp_path):
        # /status names the experiment, its fingerprint and its rounds after
        # a resume exactly as after a fresh run: each sees one run_start.
        import urllib.request

        path = str(tmp_path / "run.jsonl")
        with JointFAT(_task(), _builder,
                      _cfg(rounds=4, journal_path=path, checkpoint_every=2)) as first:
            first.run(rounds=2)
        status = {}
        for name, journal in (("fresh", str(tmp_path / "fresh.jsonl")), ("resumed", path)):
            with JointFAT(_task(), _builder, _cfg(rounds=4, journal_path=journal,
                                                  checkpoint_every=2, status_port=0)) as exp:
                if name == "resumed":
                    exp.resume(path)
                else:
                    exp.run()
                with urllib.request.urlopen(f"{exp.status_address}/status", timeout=10) as resp:
                    snap = json.loads(resp.read().decode("utf-8"))
                status[name] = [snap.get(k) for k in ("experiment", "fingerprint", "rounds_total")]
        fingerprint = RunJournal.read(path)[0]["fingerprint"]
        assert status["fresh"] == ["jfat", fingerprint, 4]
        assert status["resumed"] == status["fresh"]

    def test_checkpoint_file_is_valid_and_atomic(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder,
                       _cfg(rounds=2, journal_path=path, checkpoint_every=1))
        exp.run()
        exp.close()
        payload = read_checkpoint(path + ".ckpt")
        assert payload["next_round"] == 2
        assert payload["mode"] == "sync"
        assert not [p for p in os.listdir(str(tmp_path)) if p.endswith(".tmp")]

    def test_unreadable_checkpoint_raises(self, tmp_path):
        bad = str(tmp_path / "bad.ckpt")
        with open(bad, "wb") as f:
            f.write(b"garbage")
        with pytest.raises(CheckpointError):
            read_checkpoint(bad)

    def test_every_flipped_or_truncated_byte_is_caught(self, tmp_path):
        """A damaged checkpoint raises CheckpointError or loads unchanged.

        Never a payload that differs, and never another exception type.
        Only a flip in the trailer's marker or a cut inside the trailer
        loads: the file then reads as one written before the trailer, and
        its pickle is intact.
        """
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder,
                       _cfg(rounds=1, journal_path=path, checkpoint_every=1))
        exp.run()
        exp.close()
        with open(path + ".ckpt", "rb") as fh:
            raw = fh.read()
        reference = pickle.dumps(read_checkpoint(path + ".ckpt"))
        damaged = str(tmp_path / "damaged.ckpt")

        def loads_unchanged(data: bytes) -> bool:
            with open(damaged, "wb") as fh:
                fh.write(data)
            try:
                payload = read_checkpoint(damaged)
            except CheckpointError:
                return False
            assert pickle.dumps(payload) == reference
            return True

        flips = sum(
            loads_unchanged(raw[:i] + bytes([raw[i] ^ 0xFF]) + raw[i + 1:])
            for i in range(len(raw))
        )
        cuts = sum(loads_unchanged(raw[:n]) for n in range(len(raw)))
        trailer = len(TRAILER_MAGIC) + 32  # marker + sha256 digest
        assert (flips, cuts) == (len(TRAILER_MAGIC), trailer)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder,
                       _cfg(journal_path=path, checkpoint_every=2))
        exp.run(rounds=3)
        exp.close()
        other = JointFAT(_task(), _builder,
                         _cfg(lr=0.05, journal_path=path, checkpoint_every=2))
        with pytest.raises(JournalError, match="fingerprint") as refused:
            other.resume(path)
        other.close()
        # The refusal names what may change: the declared non-semantic fields.
        assert all(name in str(refused.value) for name in nonsemantic_fields(other.config))

    def test_nonsemantic_field_change_allowed(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder,
                       _cfg(journal_path=path, checkpoint_every=2))
        exp.run(rounds=3)
        exp.close()
        resumed = JointFAT(
            _task(), _builder,
            _cfg(journal_path=path, checkpoint_every=2, fusion_width=1),
        )
        resumed.resume(path)  # no JournalError: the fusion width is non-semantic
        assert len(resumed.history) == 5
        resumed.close()

    def test_resume_from_a_checkpoint_written_before_pr23(self, tmp_path):
        """``tests/data/parent_pr22_run.*``: ``_cfg()`` killed after round 3 by
        the tree that still had ``FLConfig.split_autoattack`` (its fingerprint
        payload is kept as a legacy entry, so the recorded id still matches)."""
        data = os.path.join(os.path.dirname(__file__), "data")
        path = str(tmp_path / "parent_pr22_run.jsonl")
        for suffix in ("", ".ckpt"):
            shutil.copy(os.path.join(data, "parent_pr22_run.jsonl" + suffix), path + suffix)
        assert read_checkpoint(path + ".ckpt")["fingerprint"] == "3aff1b538fb6edf8"
        assert not hasattr(_cfg(), "split_autoattack")

        ref = JointFAT(_task(), _builder, _cfg())
        ref.run()
        ref.close()
        resumed = JointFAT(_task(), _builder, _cfg(journal_path=path, checkpoint_every=2))
        resumed.resume(path)
        _assert_runs_equal(ref, resumed)
        resumed.close()

    def test_resume_requires_fresh_experiment(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder,
                       _cfg(journal_path=path, checkpoint_every=2))
        exp.run(rounds=3)
        with pytest.raises(RuntimeError, match="fresh"):
            exp.resume(path)
        exp.close()

    def test_fedprophet_checkpoints_and_resumes(self, tmp_path):
        """Algorithm 2's stage is checkpoint state, not a second run loop."""
        ref = FedProphet(_task(), _builder, _cfg(FedProphetConfig))
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        kw = dict(journal_path=path, checkpoint_every=1)
        interrupted = FedProphet(_task(), _builder, _cfg(FedProphetConfig, **kw))
        interrupted.run(rounds=3)
        interrupted.close()
        stage = read_checkpoint(path + ".ckpt")["experiment"]
        # rounds_per_module=2: module 0 fixed after two rounds, one round into 1
        assert (stage["current_module"], stage["_stage_rounds"]) == (1, 1)
        assert len(stage["eps_star"]) == 1 and len(stage["pert_log"]) == 3

        resumed = FedProphet(_task(), _builder, _cfg(FedProphetConfig, **kw))
        resumed.resume(path)
        resumed.close()
        _assert_runs_equal(ref, resumed)
        for a, b in zip(ref.heads, resumed.heads):
            if a is not None:
                _assert_states_equal(a.state_dict(), b.state_dict(), "head ")
        assert ref.eps_star == resumed.eps_star
        assert ref.stage_results == resumed.stage_results
        assert ref.pert_log == resumed.pert_log

    def test_resume_repairs_a_checkpoint_event_the_kill_swallowed(self, tmp_path):
        """Killed between the checkpoint's rename and its journal event.

        The file is then one checkpoint ahead of the log; resume must log
        the missing event, or the resumed journal never folds under replay
        (found by the FedProphet kill/resume smoke, whose rounds are short
        enough for SIGKILL to land in that window).
        """
        from repro.flsim.replay import replay_run

        path = str(tmp_path / "run.jsonl")
        kw = dict(journal_path=path, checkpoint_every=1)
        exp = JointFAT(_task(), _builder, _cfg(**kw))
        exp.run(rounds=3)
        exp.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        last = max(i for i, line in enumerate(lines) if '"kind": "checkpoint"' in line)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:last]) + "\n")

        resumed = JointFAT(_task(), _builder, _cfg(**kw))
        resumed.resume(path)
        resumed.close()
        kinds = [(e["kind"], e.get("next_round")) for e in RunJournal.read(path)]
        assert kinds[last:last + 2] == [("checkpoint", 3), ("resume", 3)]
        report = replay_run(path, lambda: JointFAT(_task(), _builder, _cfg()))
        assert report.resumes_folded == 1 and report.rounds == 5

    def test_resume_after_a_torn_tail_leaves_a_replayable_journal(self, tmp_path):
        from repro.flsim.replay import replay_run

        path = str(tmp_path / "run.jsonl")
        kw = dict(journal_path=path, checkpoint_every=1)
        exp = JointFAT(_task(), _builder, _cfg(**kw))
        exp.run(rounds=1)
        exp.close()
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        first = next(i for i, line in enumerate(lines) if '"kind": "checkpoint"' in line)
        with open(path, "w", encoding="utf-8") as fh:  # killed mid-write of the next event
            fh.write("\n".join(lines[: first + 1]) + "\n" + f'{{"seq": {first + 1}, "kind": "sam')

        resumed = JointFAT(_task(), _builder, _cfg(**kw))
        resumed.resume(path)
        resumed.close()
        events = RunJournal.read(path)
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[first + 1]["kind"] == "resume" and events[-1]["kind"] == "run_end"
        report = replay_run(path, lambda: JointFAT(_task(), _builder, _cfg()))
        assert report.resumes_folded == 1 and report.rounds == 5

    def test_experiment_entry_is_none_without_extra_state(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(_task(), _builder,
                       _cfg(rounds=1, journal_path=path, checkpoint_every=1))
        exp.run()
        exp.close()
        assert read_checkpoint(path + ".ckpt")["experiment"] is None

    @pytest.mark.parametrize("cls", [FedDFAT, FedETAT])
    def test_distillation_resume_restores_the_small_prototypes(self, tmp_path, cls):
        """The checkpoint's global state is only the *largest* prototype.

        On the stock pools every client affords ``"large"``, so a resume
        that restarted the smaller prototypes from their initialisation
        went unnoticed; this pool puts most clients on ``"small"``.
        """
        from repro.hardware import Device
        from repro.hardware.memory import MemoryModel

        family = {
            "small": lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=2, rng=rng),
            "large": _builder,
        }
        large = _builder(np.random.default_rng(0))
        req_gb = MemoryModel(batch_size=8).bytes_for(large, large.in_shape) / 1024**3

        def build(**kw):
            # available memory is mem * U(0, 0.2): ~0.6x the large MemReq
            return cls(
                _task(), family, _cfg(rounds=4, clients_per_round=4, **kw),
                device_sampler=DeviceSampler([Device("edge", 1.0, 6 * req_gb, 4)], "balanced"),
                distill_iters=2,
            )

        ref = build()
        initial = {k: v.copy() for k, v in ref.prototypes["small"].state_dict().items()}
        ref.run()
        ref.close()
        trained = ref.prototypes["small"].state_dict()
        assert any(not np.array_equal(initial[k], trained[k]) for k in initial)

        path = str(tmp_path / "run.jsonl")
        interrupted = build(journal_path=path, checkpoint_every=2)
        interrupted.run(rounds=2)
        interrupted.close()
        resumed = build(journal_path=path, checkpoint_every=2)
        resumed.resume(path)
        resumed.close()
        _assert_runs_equal(ref, resumed)
        _assert_states_equal(trained, resumed.prototypes["small"].state_dict(), "small ")

    def test_checkpoint_every_requires_journal(self):
        with pytest.raises(ValueError, match="journal_path"):
            _cfg(checkpoint_every=2)

    def test_fedprophet_journals_its_cascade_loop(self, tmp_path):
        path = str(tmp_path / "prophet.jsonl")
        exp = FedProphet(_task(), _builder,
                         _cfg(FedProphetConfig, rounds=2, journal_path=path))
        exp.run()
        exp.close()
        kinds = [e["kind"] for e in RunJournal.read(path)]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        assert kinds.count("round") == 2

    def test_run_end_counts_the_rounds_run(self, tmp_path):
        """FedProphet stops when its last module is fixed, not at the budget."""
        path = str(tmp_path / "prophet.jsonl")
        exp = FedProphet(_task(), _builder,
                         _cfg(FedProphetConfig, rounds=50, journal_path=path))
        history = exp.run()
        exp.close()
        stages = len(exp.partition)
        assert len(history) == 2 * stages and exp.run_finished()
        assert [s.rounds for s in exp.stage_results] == [2] * stages
        events = RunJournal.read(path)
        assert events[-1]["kind"] == "run_end"
        assert events[-1]["rounds"] == 2 * stages
        assert sum(e["kind"] == "sample" for e in events) == 2 * stages
        rounds = [e for e in events if e["kind"] == "round"]
        assert [e["module"] for e in rounds] == [m for m in range(stages) for _ in "ab"]


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="dropout_prob"):
            FaultPlan(dropout_prob=1.5)
        with pytest.raises(ValueError, match="exceed 1"):
            FaultPlan(dropout_prob=0.6, straggler_prob=0.3, flaky_prob=0.3)
        with pytest.raises(ValueError, match="straggler_slowdown"):
            FaultPlan(straggler_slowdown=0.5)
        assert not FaultPlan(seed=9).active
        assert FaultPlan(dropout_prob=0.1).active

    def test_outcome_is_deterministic(self):
        plan = FaultPlan(seed=3, dropout_prob=0.3, straggler_prob=0.3, flaky_prob=0.3)
        for r in range(5):
            for cid in range(8):
                a = plan.outcome(r, cid, max_retries=2)
                b = plan.outcome(r, cid, max_retries=2)
                assert a == b

    def test_flaky_retries_bounded_with_backoff(self):
        plan = FaultPlan(seed=0, flaky_prob=1.0, retry_success_prob=0.0,
                         backoff_base_s=2.0)
        oc = plan.outcome(0, 0, max_retries=3)
        assert oc.kind == "flaky" and not oc.survived
        assert oc.attempts == 4  # first try + 3 retries
        assert oc.extra_delay_s == 2.0 + 4.0 + 8.0
        assert plan.outcome(0, 0, max_retries=0).attempts == 1

    def test_json_round_trip_and_parse(self, tmp_path):
        plan = FaultPlan(seed=5, dropout_prob=0.2, flaky_prob=0.1)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert FaultPlan.parse(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.parse(str(path)) == plan
        with pytest.raises(ValueError, match="neither"):
            FaultPlan.parse(str(tmp_path / "missing.json"))

    def test_timeout_drops_slow_clients(self):
        plan = FaultPlan(seed=0, straggler_prob=1.0, straggler_slowdown=10.0)
        faults = plan.plan_round(
            0, [0, 1, 2], [1.0, 1.0, 1.0],
            client_timeout=5.0, max_retries=2, min_clients=1,
        )
        assert faults.survivors == []
        assert all(oc.timed_out for oc in faults.outcomes)
        assert faults.aborted and faults.timeout_floor_s == 5.0


class TestFaultInjection:
    PLAN = FaultPlan(seed=7, dropout_prob=0.3, straggler_prob=0.2, flaky_prob=0.2)

    @pytest.mark.parametrize("mode", MODES)
    def test_deterministic_across_engines(self, mode):
        runs = []
        for width in (None, 1):  # derived (fused) and per item
            exp = JointFAT(
                _task(), _builder,
                _cfg(fault_plan=self.PLAN, fusion_width=width, **mode),
                device_sampler=_sampler(),
            )
            exp.run()
            runs.append(exp)
            exp.close()
        for other in runs[1:]:
            _assert_runs_equal(runs[0], other)

    def test_disabled_plan_reproduces_fault_free_run(self):
        plain = JointFAT(_task(), _builder, _cfg())
        plain.run()
        plain.close()
        inactive = JointFAT(_task(), _builder, _cfg(fault_plan=FaultPlan(seed=3)))
        inactive.run()
        inactive.close()
        _assert_runs_equal(plain, inactive)

    def test_dropout_reweights_over_survivors(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = JointFAT(
            _task(), _builder,
            _cfg(fault_plan=FaultPlan(seed=7, dropout_prob=0.4),
                 journal_path=path),
        )
        exp.run()
        exp.close()
        events = RunJournal.read(path)
        dropped = [e for e in events if e["kind"] == "faults" and e["dropped"]]
        assert dropped, "seed 7 at 40% dropout must drop somebody in 5 rounds"
        by_round = {e["round"]: e for e in events if e["kind"] == "sample"}
        for fault_event in dropped:
            cohort = by_round[fault_event["round"]]["cids"]
            assert not set(cohort) & set(fault_event["dropped"])
            assert len(cohort) == 3 - len(fault_event["dropped"])

    def test_all_dropout_aborts_without_touching_model(self):
        exp = JointFAT(_task(), _builder, _cfg(fault_plan=FaultPlan(dropout_prob=1.0)))
        before = _state(exp)
        history = exp.run()
        exp.close()
        assert all(rec.aborted for rec in history)
        _assert_states_equal(before, _state(exp))

    def test_min_clients_threshold_aborts_deterministically(self):
        plan = FaultPlan(seed=0, dropout_prob=0.5)
        a = JointFAT(_task(), _builder, _cfg(fault_plan=plan, min_clients_per_round=2))
        b = JointFAT(_task(), _builder, _cfg(fault_plan=plan, min_clients_per_round=2))
        ha, hb = a.run(), b.run()
        a.close()
        b.close()
        aborts = [rec.aborted for rec in ha]
        assert aborts == [rec.aborted for rec in hb]
        assert any(aborts) and not all(aborts)

    def test_stragglers_stretch_the_clock(self):
        plain = JointFAT(_task(), _builder, _cfg(), device_sampler=_sampler())
        plain.run()
        plain.close()
        slow = JointFAT(
            _task(), _builder,
            _cfg(fault_plan=FaultPlan(straggler_prob=1.0, straggler_slowdown=4.0)),
            device_sampler=_sampler(),
        )
        slow.run()
        slow.close()
        assert slow.clock_s == pytest.approx(4.0 * plain.clock_s)
        _assert_states_equal(_state(plain), _state(slow))  # latency-only fault

    def test_sync_timeout_waits_then_drops(self):
        plan = FaultPlan(seed=0, straggler_prob=1.0, straggler_slowdown=1e6)
        exp = JointFAT(
            _task(), _builder,
            _cfg(fault_plan=plan, client_timeout=1e-4, min_clients_per_round=1),
            device_sampler=_sampler(),
        )
        history = exp.run()
        exp.close()
        assert all(rec.aborted for rec in history)
        # The synchronous server waits out client_timeout per aborted round.
        assert exp.clock_s == pytest.approx(1e-4 * len(history))

    def test_a_trained_round_that_dropped_clients_lasts_the_timeout(self, tmp_path):
        """Sync: a round that lost clients but still trained waits out
        ``client_timeout`` — the clock moves by max(bottleneck, timeout) and
        the excess is access time.  The async server never waits."""
        plan = FaultPlan(seed=0, dropout_prob=0.4)

        def run(mode, timeout):
            path = str(tmp_path / f"{mode}-{timeout}.jsonl")
            exp = JointFAT(
                _task(), _builder,
                _cfg(fault_plan=plan, client_timeout=timeout, aggregation_mode=mode,
                     journal_path=path),
                device_sampler=_sampler(),
            )
            history = exp.run()
            exp.close()
            dropped = {
                e["round"] for e in RunJournal.read(path)
                if e["kind"] == "faults" and e["dropped"]
            }
            return history, dropped

        plain, dropped = run("sync", None)
        assert not any(rec.aborted for rec in plain)
        bottlenecks = np.diff([0.0] + [rec.sim_time_s for rec in plain])
        timeout = 2.0 * float(bottlenecks.max())  # no survivor times out
        assert dropped and len(dropped) < len(plain)  # some rounds lost a client, some none
        floored, floored_dropped = run("sync", timeout)
        assert floored_dropped == dropped
        waits = [timeout - b if rec.round in dropped else 0.0
                 for rec, b in zip(plain, bottlenecks)]
        steps = np.diff([0.0] + [rec.sim_time_s for rec in floored])
        for rec, b, step in zip(plain, bottlenecks, steps):
            assert step == pytest.approx(max(b, timeout) if rec.round in dropped else b)
        for rec, ref, extra in zip(floored, plain, np.cumsum(waits)):
            assert not rec.aborted
            assert rec.compute_s == ref.compute_s
            assert rec.access_s == pytest.approx(ref.access_s + extra)

        async_plain, _ = run("async", None)
        async_timed, _ = run("async", timeout)  # pipeline_depth=1
        assert [(r.sim_time_s, r.compute_s, r.access_s) for r in async_timed] == [
            (r.sim_time_s, r.compute_s, r.access_s) for r in async_plain
        ]

    @pytest.mark.parametrize("method", ["fedprophet", "feddf-at", "fedet-at"])
    def test_every_cost_model_honours_client_timeout(self, method):
        # Before PR 15 these methods reported "no estimate", so the timeout
        # check was skipped and every round trained straight through it.
        kw = dict(
            fault_plan=FaultPlan(seed=0, straggler_prob=1.0),
            client_timeout=1e-9, rounds=2,
        )
        if method == "fedprophet":
            exp = FedProphet(
                _task(), _builder, _cfg(FedProphetConfig, **kw),
                device_sampler=_sampler(),
            )
        else:
            family = {
                "small": lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=2, rng=rng),
                "large": _builder,
            }
            cls = FedDFAT if method == "feddf-at" else FedETAT
            exp = cls(
                _task(), family, _cfg(**kw),
                device_sampler=_sampler(), distill_iters=2,
            )
        before = _state(exp)
        history = exp.run()
        exp.close()
        assert [rec.aborted for rec in history] == [True, True]
        assert exp.clock_s == pytest.approx(2e-9)
        _assert_states_equal(before, _state(exp))

    def test_client_timeout_without_cost_model_refused(self):
        class NoCostModel(FederatedExperiment):
            def async_client_fn(self, ctx, base_state):
                return lambda item: base_state

        # A plan-less experiment could never clock, drop or merge a round:
        # refused at construction, with a timeout or without one.
        for cfg in (_cfg(), _cfg(client_timeout=1.0)):
            with pytest.raises(TypeError, match="implement async_round_context"):
                NoCostModel(_task(), _builder, cfg)

    def test_experiment_without_an_algorithm_refused(self):
        class Nothing(FederatedExperiment):
            pass

        with pytest.raises(TypeError, match="states no algorithm.*async_client_fn"):
            Nothing(_task(), _builder, _cfg())

    def test_faults_compose_with_resume(self, tmp_path):
        mode = dict(aggregation_mode="async", max_staleness=2, pipeline_depth=2)
        plan = FaultPlan(seed=7, dropout_prob=0.3, straggler_prob=0.2)
        ref = JointFAT(_task(), _builder, _cfg(fault_plan=plan, **mode),
                       device_sampler=_sampler())
        ref.run()
        ref.close()
        path = str(tmp_path / "run.jsonl")
        interrupted = JointFAT(
            _task(), _builder,
            _cfg(fault_plan=plan, journal_path=path, checkpoint_every=2, **mode),
            device_sampler=_sampler(),
        )
        interrupted.run(rounds=3)
        interrupted.close()
        resumed = JointFAT(
            _task(), _builder,
            _cfg(fault_plan=plan, journal_path=path, checkpoint_every=2, **mode),
            device_sampler=_sampler(),
        )
        resumed.resume(path)
        _assert_runs_equal(ref, resumed)
        resumed.close()

    def test_fedprophet_survives_aborted_rounds(self):
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, rounds=4,
                 fault_plan=FaultPlan(seed=11, dropout_prob=0.5),
                 min_clients_per_round=3),
        )
        history = exp.run()
        exp.close()
        assert len(history) == 4
        assert any(rec.aborted for rec in history)


class TestAbortedRoundClock:
    """The simulated clock never runs backwards through aborted rounds."""

    @staticmethod
    def _run(**overrides):
        cfg = _cfg(rounds=4, fault_plan=FaultPlan(seed=0, dropout_prob=0.6),
                   min_clients_per_round=2, **overrides)
        return JointFAT(_task(), _builder, cfg, device_sampler=_sampler())

    def test_sim_time_monotone_through_aborts(self):
        exp = self._run()
        exp.run()
        exp.close()
        assert any(r.aborted for r in exp.history), (
            "fault plan produced no aborted round; weaken the test config"
        )
        times = [r.sim_time_s for r in exp.history]
        assert times == sorted(times)
        # An aborted round never rolls the clock back; with no
        # client_timeout configured the server waits zero seconds, so the
        # clock may stand still but must not regress.
        by_round = {r.round: r for r in exp.history}
        for r in exp.history:
            if r.aborted and r.round > 0:
                assert r.sim_time_s >= by_round[r.round - 1].sim_time_s

    def test_sim_time_monotone_across_checkpoint_resume(self, tmp_path):
        ref = self._run()
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        interrupted = self._run(journal_path=path, checkpoint_every=2)
        interrupted.run(rounds=2)
        interrupted.close()
        resumed = self._run(journal_path=path, checkpoint_every=2)
        resumed.resume(path)
        resumed.close()

        assert resumed.history == ref.history
        times = [r.sim_time_s for r in resumed.history]
        assert times == sorted(times)
        assert [r.aborted for r in resumed.history] == [
            r.aborted for r in ref.history
        ]


# ---------------------------------------------------------------------------
# Satellites: experiment context manager, journalled abort, clamping
# ---------------------------------------------------------------------------


class TestLifecycleSatellites:
    def test_experiment_context_manager(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with JointFAT(_task(), _builder, _cfg(rounds=1, journal_path=path)) as exp:
            exp.run()
            journal = exp.recorder.journal
        assert journal._file.closed and exp.recorder.journal is None

    @pytest.mark.parametrize("mode", MODES)
    def test_aborted_run_journals_the_abort(self, tmp_path, mode):
        class Exploding(JointFAT):
            def async_client_fn(self, ctx, base_state):
                if ctx.round_idx == 1:
                    raise RuntimeError("boom")
                return super().async_client_fn(ctx, base_state)

        path = str(tmp_path / "run.jsonl")
        exp = Exploding(_task(), _builder, _cfg(journal_path=path, **mode))
        with pytest.raises(RuntimeError, match="boom"):
            exp.run()
        assert list(RunJournal.read(path))[-1]["kind"] == "run_abort"
        assert exp.recorder.journal is None

    @pytest.mark.parametrize(
        "field,value",
        [("num_clients", 0), ("num_clients", -3), ("clients_per_round", 0),
         ("local_iters", -1), ("rounds", -2)],
    )
    def test_sizes_it_cannot_run_are_refused(self, field, value):
        # Refused by name, before the clients_per_round clamp could warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=field):
                _cfg(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("rounds_per_module", 0), ("rounds_per_module", -3), ("val_samples", 0),
         ("val_pgd_steps", 0), ("feature_pgd_steps", 0), ("mu", -1e-5),
         ("mu", float("nan")), ("mu", float("inf")), ("alpha_init", -1.0),
         ("alpha_min", 3.0), ("alpha_min", 0.0), ("alpha_max", 0.1)],
    )
    def test_fedprophet_settings_it_cannot_run_are_refused(self, field, value):
        # Each of these used to train silently, or fail rounds later.
        with pytest.raises(ValueError, match=field):
            _cfg(FedProphetConfig, num_clients=4, **{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("lr", float("nan")), ("lr", float("inf")), ("lr", 0.0), ("lr", -1.0),
         ("momentum", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
         ("weight_decay", -1.0), ("weight_decay", float("inf")),
         ("batch_size", 0), ("train_pgd_steps", -1), ("eval_pgd_steps", -1),
         ("eps0", float("nan")), ("eps0", -1.0), ("eps0", float("inf")),
         ("sgd.lr", float("nan")), ("sgd.lr", float("inf")),
         ("sgd.weight_decay", float("nan")), ("sgd.weight_decay", float("inf")),
         ("client_timeout", float("inf")), ("client_timeout", float("nan")),
         ("clip_norm", float("inf")), ("clip_norm", float("nan")),
         ("eval_max_samples", -1)],
    )
    def test_optimizer_and_attack_settings_it_cannot_run_are_refused(self, field, value):
        # Each of these trained to NaN weights, or raised inside the first
        # work unit (by then, possibly in a forked round worker).
        if field.startswith("sgd."):
            name = field[len("sgd."):]
            with pytest.raises(ValueError, match=name):
                SGD(_builder(np.random.default_rng(0)).parameters(), **{"lr": 0.1, name: value})
        else:
            with pytest.raises(ValueError, match=field):
                _cfg(**{field: value})

    def test_eps0_zero_stays_legal(self):
        assert _cfg(eps0=0.0).eps0 == 0.0

    def test_clients_per_round_clamps_with_warning(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            cfg = _cfg(num_clients=3, clients_per_round=7, rounds=1)
        assert cfg.clients_per_round == 3
        exp = JointFAT(_task(), _builder, cfg)
        history = exp.run()
        exp.close()
        assert len(history) == 1


class TestHostileInfrastructure:
    """A failing sink or a busy port costs neither data nor handles."""

    def test_taken_status_port_is_a_typed_error_leaking_nothing(self):
        with socket.socket() as taken, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            with pytest.raises(OSError, match=f"status_port={port}") as excinfo:
                JointFAT(_task(), _builder, _cfg(status_port=port))
            del excinfo  # drops the half-built service the traceback pins
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_abort_closes_journal_when_status_tee_raises(self, tmp_path, monkeypatch):
        from repro.flsim.service import MetricsService

        journal = str(tmp_path / "run.jsonl")
        exp = JointFAT(
            _task(), _builder, _cfg(journal_path=journal, status_port=0),
        )
        journals = []

        def broken(self, kind, payload):  # fails from the first round on
            if kind == "round" or journals:
                journals.append(exp.recorder.journal)
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(MetricsService, "observe", broken)
        with pytest.raises(OSError, match="No space left on device"):
            exp.run()
        assert list(RunJournal.read(journal))[-1]["kind"] == "run_abort"
        assert journals[0]._file.closed and exp.recorder.journal is None
        assert exp.recorder.status._server is None  # the endpoint was shut down

    def test_interrupted_async_drain_trains_no_queued_unit(self, tmp_path):
        # Two pipelined rounds hold 32 units; an interrupt from the second
        # merge must reach the caller without training any unit first.
        interrupted, late, merges = [], [], []

        class Interrupted(JointFAT):
            def async_client_fn(self, ctx, base_state):
                inner = super().async_client_fn(ctx, base_state)

                def unit(item):
                    if interrupted:
                        late.append(ctx.round_idx)
                    return inner(item)

                return unit

            def async_merge_event(self, *args):
                merges.append(1)
                if len(merges) == 2:
                    interrupted.append(True)
                    raise KeyboardInterrupt
                return super().async_merge_event(*args)

        journal = str(tmp_path / "run.jsonl")
        exp = Interrupted(
            _task(), _builder,
            _cfg(num_clients=16, clients_per_round=16, rounds=4,
                 aggregation_mode="async", pipeline_depth=2,
                 journal_path=journal),
        )
        with pytest.raises(KeyboardInterrupt):
            exp.run()
        assert late == []  # a unit trains only when a merge pulls it
        assert list(RunJournal.read(journal))[-1]["kind"] == "run_abort"
