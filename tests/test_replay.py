"""Deterministic journal replay + streaming metrics service (PR 10).

Load-bearing properties:

* :func:`~repro.flsim.replay.replay_run` re-executes a journalled run
  and verifies **every** recorded event bit-for-bit at the JSON
  serialisation level — at any fusion width, with fault
  plans, robust aggregation, and ``pipeline_depth>=2`` async all active;
* the canonicaliser folds resume segments back onto their anchoring
  checkpoints and refuses journals that never completed;
* any tampering with the journal yields a :class:`ReplayDivergence`
  naming the first divergent ``seq`` and the differing fields;
* :class:`~repro.flsim.service.MetricsService` folds events into a
  status snapshot and serves it on a live read-only JSON endpoint over
  HTTP, without perturbing results (pure observability);
* ``eval_every_merge`` samples the accuracy-vs-version staleness curve
  at merge-event granularity, survives checkpoint/resume bit-for-bit,
  and is refused where it cannot hook the merge stream.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.baselines import JointFAT
from repro.data import make_cifar10_like
from repro.flsim import (
    FaultPlan,
    FLConfig,
    JournalError,
    MetricsService,
    ReplayDivergence,
    RunJournal,
    canonical_events,
    replay_run,
)
from repro.flsim.checkpoint import nonsemantic_fields
from repro.models import build_cnn

pytestmark = [pytest.mark.scheduler, pytest.mark.replay]


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _cfg(**overrides):
    defaults = dict(
        num_clients=5, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=3, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, eval_max_samples=24, seed=0,
    )
    defaults.update(overrides)
    return FLConfig(**defaults)


def _exp(**overrides):
    return JointFAT(_task(), _builder, _cfg(**overrides))


#: The hardest journalled scenario the engine offers: depth-2 async
#: pipeline with an active fault plan and robust aggregation.
HARD_MODE = dict(
    aggregation_mode="async", max_staleness=2, pipeline_depth=2,
    aggregation_rule="median",
    fault_plan=FaultPlan(seed=7, dropout_prob=0.3, straggler_prob=0.2),
)


def _record_run(path, **overrides):
    exp = _exp(journal_path=path, **overrides)
    exp.run()
    exp.close()
    return exp


# ---------------------------------------------------------------------------
# canonical_events
# ---------------------------------------------------------------------------

def _ev(seq, kind, **payload):
    return {"seq": seq, "kind": kind, **payload}


class TestCanonicalEvents:
    def test_passthrough_without_resumes(self):
        events = [
            _ev(0, "run_start"), _ev(1, "round", round=0), _ev(2, "run_end"),
        ]
        canonical, folds = canonical_events(events)
        assert canonical == events
        assert folds == 0

    def test_fold_truncates_to_anchor_checkpoint(self):
        events = [
            _ev(0, "run_start"),
            _ev(1, "round", round=0),
            _ev(2, "checkpoint", next_round=1),
            _ev(3, "round", round=1),       # dying process's tail
            _ev(4, "resume", next_round=1),
            _ev(5, "round", round=1),       # resumed re-emission
            _ev(6, "run_end"),
        ]
        canonical, folds = canonical_events(events)
        assert folds == 1
        assert [e["seq"] for e in canonical] == [0, 1, 2, 5, 6]

    def test_fold_recovers_run_abort(self):
        events = [
            _ev(0, "run_start"),
            _ev(1, "checkpoint", next_round=1),
            _ev(2, "run_abort", error="boom"),
            _ev(3, "resume", next_round=1),
            _ev(4, "run_end"),
        ]
        canonical, folds = canonical_events(events)
        assert folds == 1
        assert [e["kind"] for e in canonical] == ["run_start", "checkpoint", "run_end"]

    def test_fold_strips_process_local_cache_counters(self):
        cache = {"hits": 3, "misses": 2, "evictions": 0, "live": 5, "peak_live": 5}
        events = [
            _ev(0, "run_start"),
            _ev(1, "sample", round=0, clients=[0, 1], cache=cache),
            _ev(2, "checkpoint", next_round=1),
            _ev(3, "resume", next_round=1),
            _ev(4, "sample", round=1, clients=[2], cache=cache),
            _ev(5, "run_end"),
        ]
        canonical, _ = canonical_events(events)
        samples = [e for e in canonical if e["kind"] == "sample"]
        assert samples and all("cache" not in e for e in samples)
        # ...but an uninterrupted journal keeps them for verification.
        clean = [e for e in events if e["kind"] != "resume"]
        clean = [dict(e, seq=i) for i, e in enumerate(clean)]
        canonical, _ = canonical_events(clean)
        assert all("cache" in e for e in canonical if e["kind"] == "sample")

    def test_refuses_journal_without_run_start(self):
        with pytest.raises(JournalError, match="run_start"):
            canonical_events([_ev(0, "round", round=0)])

    def test_refuses_resume_without_matching_checkpoint(self):
        events = [
            _ev(0, "run_start"),
            _ev(1, "checkpoint", next_round=1),
            _ev(2, "resume", next_round=2),
            _ev(3, "run_end"),
        ]
        with pytest.raises(JournalError, match="no.*matching checkpoint"):
            canonical_events(events)

    def test_refuses_surviving_run_abort(self):
        events = [
            _ev(0, "run_start"), _ev(1, "run_abort", error="ValueError"),
        ]
        with pytest.raises(JournalError, match="run_abort"):
            canonical_events(events)

    def test_refuses_incomplete_journal(self):
        events = [_ev(0, "run_start"), _ev(1, "round", round=0)]
        with pytest.raises(JournalError, match="no run_end"):
            canonical_events(events)


# ---------------------------------------------------------------------------
# replay_run end-to-end
# ---------------------------------------------------------------------------

class TestReplayRun:
    def test_hard_mode_replays_per_item(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path, **HARD_MODE)
        report = replay_run(path, lambda: _exp(fusion_width=1, **HARD_MODE))
        assert report.rounds == 3
        assert report.merges > 0
        assert report.events_verified == len(RunJournal.read(path))
        assert report.resumes_folded == 0
        assert "bit-identical" in report.summary()

    def test_lazy_population_run_replays_per_item(self, tmp_path):
        # The journal records the population's materialisation, so the
        # replay rebuilds the same two-entry cache — and runs per item.
        lazy = dict(client_materialisation="lazy", client_cache_size=2, **HARD_MODE)
        path = str(tmp_path / "run.jsonl")
        _record_run(path, **lazy)
        report = replay_run(path, lambda: _exp(fusion_width=1, **lazy))
        assert report.rounds == 3 and report.merges > 0
        assert report.events_verified == len(RunJournal.read(path))

    def test_sync_mode_replays(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path)
        report = replay_run(path, lambda: _exp())
        assert report.rounds == 3
        assert report.merges == 0

    @pytest.mark.round_engine
    def test_the_status_tee_sees_one_run_start(self, tmp_path, monkeypatch):
        # A replay with a status port and no journal of its own tees each
        # re-executed event once, run_start included.
        path = str(tmp_path / "run.jsonl")
        _record_run(path, rounds=2)
        observed, observe = [], MetricsService.observe

        def noting(self, kind, payload):
            observed.append(kind)
            observe(self, kind, payload)

        monkeypatch.setattr(MetricsService, "observe", noting)
        report = replay_run(path, lambda: _exp(rounds=2, status_port=0))
        assert observed == [e["kind"] for e in RunJournal.read(path)]
        assert observed.count("run_start") == 1 and report.events_verified == 6

    def test_checkpoints_verified_bit_for_bit(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path, checkpoint_every=1, **HARD_MODE)
        replay_path = str(tmp_path / "replay" / "run.jsonl")
        report = replay_run(
            path,
            lambda: _exp(journal_path=replay_path, checkpoint_every=1,
                         **HARD_MODE),
        )
        assert report.skipped_checkpoints == 0
        assert any(
            e["kind"] == "checkpoint" for e in RunJournal.read(path)
        )

    def test_checkpoints_skipped_when_replay_has_them_off(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path, checkpoint_every=1, **HARD_MODE)
        report = replay_run(path, lambda: _exp(**HARD_MODE))
        assert report.skipped_checkpoints == 3
        assert report.events_verified == len(RunJournal.read(path)) - 3

    def test_checkpoint_basename_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path, checkpoint_every=1)
        other = str(tmp_path / "replay" / "other.jsonl")
        with pytest.raises(JournalError, match="basename"):
            replay_run(
                path, lambda: _exp(journal_path=other, checkpoint_every=1)
            )

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path)
        with pytest.raises(JournalError, match="fingerprint") as refused:
            replay_run(path, lambda: _exp(lr=0.05))
        message = str(refused.value)
        assert all(name in message for name in nonsemantic_fields(FLConfig()))
        assert "client caching must still match" in message

    def test_used_experiment_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path)
        used = _exp()
        used.run()
        used.close()
        with pytest.raises(RuntimeError, match="fresh"):
            replay_run(path, lambda: used)

    def test_tampered_event_names_divergent_seq(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path)
        events = RunJournal.read(path)
        victim = next(e for e in events if e["kind"] == "round")
        victim["sim_time_s"] = victim["sim_time_s"] + 1.0
        with open(path, "w", encoding="utf-8") as fh:
            for e in events:
                fh.write(json.dumps(e) + "\n")
        with pytest.raises(ReplayDivergence) as exc:
            replay_run(path, lambda: _exp())
        assert exc.value.seq == victim["seq"]
        assert exc.value.kind == "round"
        assert "sim_time_s" in str(exc.value)

    def test_surplus_recorded_events_diverge(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path)
        events = RunJournal.read(path)
        # Claim fewer rounds than the journal records: re-execution stops
        # early and the surplus recorded round must be reported.
        events[-1]["rounds"] = 2
        with open(path, "w", encoding="utf-8") as fh:
            for e in events:
                fh.write(json.dumps(e) + "\n")
        with pytest.raises(ReplayDivergence):
            replay_run(path, lambda: _exp())

    def test_replay_closes_experiment_on_divergence(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        _record_run(path)
        events = RunJournal.read(path)
        events[1]["clients"] = [0]
        with open(path, "w", encoding="utf-8") as fh:
            for e in events:
                fh.write(json.dumps(e) + "\n")
        holder = {}

        def factory():
            holder["exp"] = _exp()
            return holder["exp"]

        with pytest.raises(ReplayDivergence):
            replay_run(path, factory)
        # close() is idempotent; a second call after replay's cleanup
        # must not raise.
        holder["exp"].close()


# ---------------------------------------------------------------------------
# MetricsService + status endpoint
# ---------------------------------------------------------------------------

def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


class TestMetricsService:
    def test_snapshot_folds_counters(self):
        svc = MetricsService()
        svc.observe("run_start", {"rounds": 4, "mode": "async"})
        svc.observe("faults", {"round": 0, "dropped": [1, 2]})
        svc.observe("threats", {"round": 0, "byzantine": [3]})
        svc.observe("round", {"round": 0, "sim_time_s": 2.0, "aborted": True})
        svc.observe("merge", {"round": 0, "sim_time_s": 2.5})
        svc.close()
        snap = svc.snapshot()
        assert snap["state"] == "running"
        assert snap["rounds_completed"] == 1
        assert snap["aborted_rounds"] == 1
        assert snap["server_version"] == 1
        assert snap["clock_s"] == 2.5
        assert snap["counters"]["faults_dropped"] == 2
        assert snap["counters"]["byzantine_clients"] == 1

    def test_run_end_and_abort_set_terminal_state(self):
        svc = MetricsService()
        svc.observe("run_end", {"rounds": 1, "clock_s": 1.0})
        assert svc.snapshot()["state"] == "finished"
        svc.observe("run_abort", {"error": "ValueError"})
        assert svc.snapshot()["state"] == "aborted"
        svc.close()

    def test_tail_keeps_the_last_events_only(self):
        from repro.flsim.service import TAIL_EVENTS

        svc = MetricsService()
        for i in range(TAIL_EVENTS + 7):
            svc.observe("round", {"round": i, "sim_time_s": float(i)})
        svc.close()
        assert [e["round"] for e in svc.tail()] == list(range(7, TAIL_EVENTS + 7))
        assert svc.snapshot()["events_observed"] == TAIL_EVENTS + 7

    def test_status_endpoint_serves_snapshot_and_tail(self):
        svc = MetricsService(status_port=0)
        try:
            assert svc.port and svc.port > 0
            svc.observe("run_start", {"rounds": 2, "fingerprint": "abc"})
            svc.observe("round", {"round": 0, "sim_time_s": 1.0})
            status, snap = _get(f"{svc.address}/status")
            assert status == 200
            assert snap["state"] == "running"
            assert snap["round"] == 0
            status, tail = _get(f"{svc.address}/events")
            assert [e["kind"] for e in tail["events"]] == ["run_start", "round"]
            status, health = _get(f"{svc.address}/health")
            assert health == {"ok": True, "state": "running"}
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(f"{svc.address}/nope")
            assert exc.value.code == 404
        finally:
            svc.close()

    def test_endpoint_live_during_run(self):
        """The status endpoint answers while the run loop is executing."""
        exp = _exp(status_port=0, **HARD_MODE)
        address = exp.status_address
        assert address is not None
        status, snap = _get(f"{address}/status")
        assert snap["state"] == "init"

        seen = []
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                try:
                    seen.append(_get(f"{address}/status")[1]["state"])
                except Exception:  # pragma: no cover - server teardown race
                    return
                stop.wait(0.005)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        exp.run()
        stop.set()
        poller.join(timeout=5)
        status, snap = _get(f"{address}/status")
        assert snap["state"] == "finished"
        assert snap["rounds_completed"] == 3
        assert snap["server_version"] > 0
        assert snap["pipeline"]["version"] == snap["server_version"]
        assert "running" in seen
        exp.close()

    def test_observability_does_not_perturb_results(self):
        bare = _exp(**HARD_MODE)
        bare.run()
        bare.close()
        observed = _exp(status_port=0, **HARD_MODE)
        observed.run()
        observed.close()
        for k, v in bare.global_model.state_dict().items():
            np.testing.assert_array_equal(
                v, observed.global_model.state_dict()[k], err_msg=k
            )
        assert [r.sim_time_s for r in bare.history] == [
            r.sim_time_s for r in observed.history
        ]

    def test_status_tail_is_the_journal_tail(self, tmp_path):
        """``/events`` serves the journal's own last events, minus ``seq``."""
        from repro.flsim.service import TAIL_EVENTS

        journal = str(tmp_path / "run.jsonl")
        exp = _exp(journal_path=journal, checkpoint_every=1, status_port=0,
                   **HARD_MODE)
        exp.run()
        _, tail = _get(f"{exp.status_address}/events")
        exp.close()
        events = [
            {k: v for k, v in e.items() if k != "seq"}
            for e in RunJournal.read(journal)
        ]
        assert tail["events"] == events[-TAIL_EVENTS:]
        assert {"run_start", "checkpoint", "run_end"} <= {e["kind"] for e in events}


# ---------------------------------------------------------------------------
# eval_every_merge (merge-event-granularity staleness curve)
# ---------------------------------------------------------------------------

class TestEvalEveryMerge:
    def test_requires_async_mode(self):
        with pytest.raises(ValueError, match="async"):
            _cfg(eval_every_merge=2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            _cfg(eval_every_merge=-1, aggregation_mode="async", max_staleness=2)

    def test_rejects_out_of_range_status_port(self):
        with pytest.raises(ValueError, match="status_port"):
            _cfg(status_port=70000)

    def test_run_wrapper_still_samples_merges_and_checkpoints(self, tmp_path):
        """No refusal is keyed on "overrides run()" any more: a subclass
        that wraps ``run`` keeps every engine feature."""
        class CustomRun(JointFAT):
            def run(self, rounds=None, verbose=False):
                self.wrapped = True
                return super().run(rounds, verbose)

        path = str(tmp_path / "run.jsonl")
        exp = CustomRun(
            _task(), _builder,
            _cfg(eval_every_merge=2, aggregation_mode="async", max_staleness=2,
                 journal_path=path, checkpoint_every=1),
        )
        exp.run()
        exp.close()
        kinds = [e["kind"] for e in RunJournal.read(path)]
        assert exp.wrapped and exp.merge_evals
        assert kinds.count("checkpoint") == 3 and "merge_eval" in kinds

    def test_refused_where_async_is_within_round(self):
        # FedProphet's async mode is run_round's event schedule: there is
        # no cross-round pipeline merge to sample.
        from repro.core import FedProphet, FedProphetConfig

        cfg = FedProphetConfig(
            num_clients=5, clients_per_round=3, rounds=2, eval_every=0,
            aggregation_mode="async", max_staleness=2, eval_every_merge=2,
        )
        with pytest.raises(ValueError, match="eval_every_merge.*within a round"):
            FedProphet(_task(), _builder, cfg)

    def test_samples_curve_at_merge_granularity(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        exp = _exp(journal_path=path, eval_every_merge=2, **HARD_MODE)
        exp.run()
        exp.close()
        merges = len(exp.async_log)
        assert len(exp.merge_evals) == merges // 2
        assert [rec.version for rec in exp.merge_evals] == [
            v for v in range(1, merges + 1) if v % 2 == 0
        ]
        for rec in exp.merge_evals:
            assert rec.staleness >= 0
            assert 0.0 <= rec.eval.clean_acc <= 1.0
        journalled = [
            e for e in RunJournal.read(path) if e["kind"] == "merge_eval"
        ]
        assert [e["version"] for e in journalled] == [
            rec.version for rec in exp.merge_evals
        ]

    def test_merge_evals_survive_checkpoint_resume(self, tmp_path):
        overrides = dict(eval_every_merge=2, **HARD_MODE)
        ref = _exp(**overrides)
        ref.run()
        ref.close()

        path = str(tmp_path / "run.jsonl")
        interrupted = _exp(journal_path=path, checkpoint_every=1, **overrides)
        interrupted.run(rounds=2)
        interrupted.close()
        resumed = _exp(journal_path=path, checkpoint_every=1, **overrides)
        resumed.resume(path)
        resumed.close()
        assert resumed.merge_evals == ref.merge_evals

    def test_curve_is_fingerprint_semantic(self, tmp_path):
        """A replayed journal re-emits merge_eval events bit-for-bit, and
        a config without the knob cannot impersonate one with it."""
        path = str(tmp_path / "run.jsonl")
        _record_run(path, eval_every_merge=2, **HARD_MODE)
        report = replay_run(
            path, lambda: _exp(eval_every_merge=2, **HARD_MODE)
        )
        assert report.evals > 0
        with pytest.raises(JournalError, match="fingerprint"):
            replay_run(path, lambda: _exp(**HARD_MODE))
