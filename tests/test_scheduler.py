"""Unified task scheduler: groups, async aggregation.

Load-bearing properties:

* ``FLScheduler`` task groups stream completions and gather in input
  order with exceptions propagated — the drop-in replacement for the
  ``map`` barrier;
* the default engine (``aggregation_mode="sync"``) is **bit-identical**
  to the pre-scheduler output on every backend at 1/2/4 workers, per
  round evaluation included;
* asynchronous aggregation respects ``max_staleness``, is
  seed-reproducible, and is deterministic across backends and worker
  counts (simulated-arrival order, never wall-clock order);
  ``max_staleness=0`` is exactly synchronous FedAvg.
"""

import threading
import time

import numpy as np
import pytest

from repro.baselines import JointFAT
from repro.baselines.jfat import AsyncMergeEvent
from repro.core import FedProphet, FedProphetConfig, async_merge_schedule
from repro.core.aggregator import merge_async_update
from repro.data import make_cifar10_like
from repro.flsim import CrossRoundPipeline, FLConfig, FLScheduler, RoundExecutor
from repro.models import build_cnn

BACKENDS = ["serial", "thread"]
# The thread backend at one worker is not pooled: its groups run inline.
ENGINES = BACKENDS + ["thread1"]


def _executor(engine, max_workers):
    if engine == "thread1":
        return RoundExecutor("thread", max_workers=1)
    return RoundExecutor(engine, max_workers=max_workers)


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


# ---------------------------------------------------------------------------
# FLScheduler unit behaviour
# ---------------------------------------------------------------------------


class TestFLScheduler:
    @pytest.mark.parametrize("backend", ENGINES)
    def test_results_in_input_order(self, backend):
        sched = FLScheduler(_executor(backend, 3))
        group = sched.submit_group("t", lambda i, slot: i * i, range(9))
        assert group.results() == [i * i for i in range(9)]

    def test_empty_group_is_done(self):
        sched = FLScheduler(RoundExecutor("thread", max_workers=2))
        group = sched.submit_group("t", lambda i, s: i, [])
        assert group.done()
        assert group.results() == []

    def test_stream_yields_every_item_exactly_once(self):
        sched = FLScheduler(RoundExecutor("thread", max_workers=3))
        group = sched.submit_group("t", lambda i, slot: i + 100, range(7))
        seen = dict(group.stream())
        assert seen == {i: i + 100 for i in range(7)}

    @pytest.mark.parametrize("backend", ENGINES)
    def test_exceptions_propagate(self, backend):
        sched = FLScheduler(_executor(backend, 2))

        def boom(i, slot):
            if i == 2:
                raise RuntimeError("work unit failed")
            return i

        with pytest.raises(RuntimeError, match="work unit failed"):
            sched.submit_group("t", boom, range(5)).results()

    def test_thread_slots_exclusive_within_group(self):
        workers = 3
        sched = FLScheduler(RoundExecutor("thread", max_workers=workers))
        active = set()
        lock = threading.Lock()
        overlaps = []

        def task(i, slot):
            with lock:
                if slot in active:
                    overlaps.append(slot)
                active.add(slot)
            time.sleep(0.005)
            with lock:
                active.discard(slot)
            return slot

        slots = sched.submit_group("t", task, range(12)).results()
        assert not overlaps
        assert set(slots) <= set(range(workers))
        assert sched.executor.slots_for(12) == list(range(workers))

    def test_inline_backends_use_slot_zero_namespace(self):
        assert RoundExecutor("serial").slots_for(5) == [0]
        assert RoundExecutor("thread", 1).slots_for(5) == [0]

    def test_run_group_matches_map(self):
        ex = RoundExecutor("thread", max_workers=2)
        sched = FLScheduler(ex)
        items = list(range(10))
        assert sched.run_group("t", lambda i, s: i * 3, items) == ex.map(
            lambda i, s: i * 3, items
        )

    @pytest.mark.parametrize("backend", ENGINES + ["empty"])
    def test_next_completion_past_the_end_raises(self, backend):
        # Nothing can ever arrive: an inline group has no producer thread,
        # so blocking on the queue would be a guaranteed deadlock.
        n = 0 if backend == "empty" else 3
        ex = _executor("serial" if backend == "empty" else backend, 2)
        group = FLScheduler(ex).submit_group("t", lambda i, s: i, range(n))
        assert sorted(group.next_completion() for _ in range(n)) == [(i, i) for i in range(n)]
        with pytest.raises(RuntimeError, match=f"handed out all {n} completions"):
            group.next_completion()
        assert list(group.stream()) == []
        ex.close()

    def test_concurrent_groups_gather_independently(self):
        # Groups carry no dependencies: two in flight on one pool each
        # gather their own results, whichever is collected first.
        ex = RoundExecutor("thread", max_workers=2)
        sched = FLScheduler(ex)
        first = sched.submit_group("a", lambda i, s: i, range(6))
        second = sched.submit_group("b", lambda i, s: -i, range(6))
        assert second.results() == [-i for i in range(6)]
        assert first.results() == list(range(6))
        ex.close()

    def test_persistent_pool_reused_across_groups(self):
        ex = RoundExecutor("thread", max_workers=2)
        ex.map(lambda i, s: i, range(4))
        pool = ex.thread_pool
        FLScheduler(ex).run_group("t", lambda i, s: i, range(4))
        assert ex.thread_pool is pool  # one pool across map and scheduler
        ex.close()
        assert ex._thread_pool is None
        ex.close()  # idempotent


class TestInlineGroupsRunOnDemand:
    """Serial groups train when the consumer pulls, and hand results over once."""

    @staticmethod
    def _group(n=5):
        ran = []

        def work(i, slot):
            ran.append(i)
            return 10 * i

        return FLScheduler(RoundExecutor("serial")).submit_group("t", work, range(n)), ran

    def test_nothing_trains_at_submit(self):
        group, ran = self._group()
        assert ran == []
        assert group.next_completion() == (0, 0) and ran == [0]
        assert group.next_completion() == (1, 10) and ran == [0, 1]

    @pytest.mark.parametrize("barrier", ["done", "wait"])
    def test_done_and_wait_run_the_rest(self, barrier):
        group, ran = self._group()
        group.next_completion()
        assert getattr(group, barrier)() is True
        assert ran == [0, 1, 2, 3, 4]
        # the rest is queued, and each result is handed out exactly once
        assert list(group.stream()) == [(i, 10 * i) for i in range(1, 5)] and ran == [0, 1, 2, 3, 4]

    def test_results_runs_everything_once(self):
        group, ran = self._group()
        assert group.results() == [0, 10, 20, 30, 40] and ran == [0, 1, 2, 3, 4]
        with pytest.raises(RuntimeError, match="handed out all 5"):
            group.next_completion()

    def test_results_refuses_after_a_partial_stream(self):
        group, _ = self._group()
        group.next_completion()
        with pytest.raises(RuntimeError, match="already handed out a completion"):
            group.results()

    def test_export_state_after_a_partial_merge_keeps_landed_updates(self):
        ran = []

        def work(i, slot):
            ran.append(i)
            return 10 * i

        merged = []
        pipeline = CrossRoundPipeline(
            FLScheduler(RoundExecutor("serial")), max_staleness=1, depth=2,
            merge_event=lambda t, members, s: merged.append([t.updates[i] for i in members]),
            round_complete=lambda t: None,
        )
        pipeline.dispatch(0, [0, 1, 2], [1.0, 2.0, 3.0], lambda ticket: work)
        assert ran == []  # nothing trains at dispatch
        pipeline.advance_to(1.0)  # event [0] pulls client 0 only
        assert merged == [[0]] and ran == [0]
        state = pipeline.export_state(lambda meta: meta)
        assert state["tickets"][0]["updates"] == [0, 10, 20]
        assert ran == [0, 1, 2]  # the landed update was kept, not retrained
        pipeline.drain_all()
        assert merged == [[0], [10, 20]] and ran == [0, 1, 2]


# ---------------------------------------------------------------------------
# Async merge schedule (unit level)
# ---------------------------------------------------------------------------


class TestAsyncMergeSchedule:
    def test_bound_respected_and_tail_coalesced(self):
        assert async_merge_schedule(5, 2) == [[0], [1], [2, 3, 4]]
        assert async_merge_schedule(3, 10) == [[0], [1], [2]]
        assert async_merge_schedule(4, 0) == [[0, 1, 2, 3]]
        assert async_merge_schedule(0, 3) == []
        for n, s in [(7, 0), (7, 3), (7, 99)]:
            events = async_merge_schedule(n, s)
            assert sorted(i for e in events for i in e) == list(range(n))
            assert len(events) - 1 <= s

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            async_merge_schedule(-1, 0)
        with pytest.raises(ValueError):
            async_merge_schedule(3, -1)

    def test_single_full_event_replaces_server_exactly(self):
        rng = np.random.default_rng(0)
        server = {"w": rng.normal(size=(3, 3)).astype(np.float32)}
        states = [{"w": rng.normal(size=(3, 3)).astype(np.float32)} for _ in range(3)]
        weights = [1.0, 2.0, 3.0]
        alpha = merge_async_update(server, states, weights, sum(weights), staleness=0)
        assert alpha == 1.0
        from repro.flsim.aggregation import weighted_average_states

        np.testing.assert_array_equal(
            server["w"], weighted_average_states(states, weights)["w"]
        )

    def test_stale_event_attenuated(self):
        server = {"w": np.zeros(2, dtype=np.float32)}
        states = [{"w": np.ones(2, dtype=np.float32)}]
        alpha = merge_async_update(server, states, [1.0], 2.0, staleness=1)
        assert alpha == pytest.approx(0.25)  # (1/2) / (1 + 1)
        np.testing.assert_allclose(server["w"], 0.25)


# ---------------------------------------------------------------------------
# Experiment-level determinism
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _jfat(backend="serial", workers=None, **overrides):
    defaults = dict(
        num_clients=4, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=3, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=1, eval_max_samples=24, seed=0,
        executor_backend=backend, round_parallelism=workers,
    )
    defaults.update(overrides)
    return JointFAT(
        _task(),
        lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng),
        FLConfig(**defaults),
    )


class TestSyncDeterminism:
    """Default mode: scheduler output == PR 3 barrier output, bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self):
        exp = _jfat("serial", workers=1)
        history = exp.run()
        return exp, history

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_across_backends_and_workers(self, backend, workers, reference):
        ref, ref_history = reference
        exp = _jfat(backend, workers=workers)
        history = exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert len(history) == len(ref_history)
        for a, b in zip(ref_history, history):
            assert a.eval.as_dict() == b.eval.as_dict()
            assert a.sim_time_s == b.sim_time_s

    @pytest.mark.parametrize("workers", [2, 3])
    def test_per_item_pool_bit_identical(self, workers, reference):
        # The tiny CNN fuses a round's three clients into one cohort, so the
        # rows above run one pool task; per item, every slot trains.
        ref, ref_history = reference
        exp = _jfat("thread", workers=workers, fusion_width=1)
        slots = []
        work = exp.async_client_fn

        def recording_client_fn(round_idx, base_state):
            fn = work(round_idx, base_state)
            train = fn.fn  # a CohortFn; at width 1 only its per-item path runs

            def unit(item, slot):
                slots.append(slot)
                return train(item, slot)

            fn.fn = unit
            return fn

        exp.async_client_fn = recording_client_fn
        history = exp.run()
        assert set(slots) == set(range(workers))
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert [h.eval.as_dict() for h in history] == [
            h.eval.as_dict() for h in ref_history
        ]
        assert [h.sim_time_s for h in history] == [h.sim_time_s for h in ref_history]


class TestPeriodicEvaluation:
    """Periodic evaluation is one barrier run_eval at the round boundary."""

    @pytest.mark.parametrize("every", [0, 1, 2, 3])
    def test_eval_rounds_follow_eval_every(self, every):
        exp = _jfat(eval_every=every, rounds=4)
        history = exp.run()
        evaluated = [r.round for r in history if r.eval is not None]
        assert evaluated == [r for r in range(4) if every and (r + 1) % every == 0]

    @pytest.mark.parametrize("backend,workers", [("serial", 1), ("thread", 2), ("thread", 4)])
    def test_eval_leaves_training_untouched(self, backend, workers):
        # The eval draws on its own RNG stream and replicas: weights and
        # the simulated clock are those of a run that never evaluates.
        quiet = _jfat("serial", eval_every=0)
        quiet.run()
        exp = _jfat(backend, workers=workers, eval_every=1)
        history = exp.run()
        assert all(r.eval is not None for r in history)
        _assert_states_equal(
            quiet.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert [r.sim_time_s for r in quiet.history] == [r.sim_time_s for r in history]
        exp.close()

    def test_describe_parallelism_names_one_eval_engine(self):
        exp = _jfat("thread", workers=2)
        text = exp.describe_parallelism()
        assert "eval engine: thread x2" in text
        assert "overlap" not in text
        exp.close()


class TestAsyncAggregation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(aggregation_mode="lazy")
        with pytest.raises(ValueError):
            FLConfig(max_staleness=-1)

    def test_prophet_accepts_async_but_rejects_cross_round_pipeline(self):
        # PR 5: FedProphet speaks async (per-module within-round merges)
        # but cascade_eval gates every round, so depth > 1 must raise.
        builder = lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)
        exp = FedProphet(
            _task(), builder,
            FedProphetConfig(
                num_clients=2, clients_per_round=1, rounds=1,
                aggregation_mode="async",
            ),
        )
        assert exp.supports_async_aggregation
        with pytest.raises(ValueError, match="pipeline_depth"):
            FedProphet(
                _task(), builder,
                FedProphetConfig(
                    num_clients=2, clients_per_round=1, rounds=1,
                    aggregation_mode="async", pipeline_depth=2,
                ),
            )

    def test_staleness_bound_respected_and_logged(self):
        exp = _jfat(aggregation_mode="async", max_staleness=1, eval_every=0)
        exp.run()
        assert exp.async_log, "async rounds must log their merge events"
        assert all(isinstance(e, AsyncMergeEvent) for e in exp.async_log)
        assert max(e.staleness for e in exp.async_log) <= 1
        # each round's events cover every sampled client exactly once
        per_round = {}
        for e in exp.async_log:
            per_round.setdefault(e.round, []).extend(e.client_ids)
        for cids in per_round.values():
            assert len(cids) == len(set(cids)) == exp.config.clients_per_round

    def test_seed_reproducible_at_fixed_worker_count(self):
        a = _jfat("thread", workers=2, aggregation_mode="async", max_staleness=2)
        b = _jfat("thread", workers=2, aggregation_mode="async", max_staleness=2)
        a.run(), b.run()
        _assert_states_equal(a.global_model.state_dict(), b.global_model.state_dict())
        assert a.async_log == b.async_log

    @pytest.mark.parametrize(
        "backend,workers", [("serial", 1), ("thread", 2), ("thread", 3), ("thread", 4)]
    )
    def test_deterministic_across_backends_and_workers(self, backend, workers):
        ref = _jfat("serial", aggregation_mode="async", max_staleness=2)
        ref.run()
        exp = _jfat(backend, workers=workers, aggregation_mode="async", max_staleness=2)
        exp.run()
        # simulated-arrival merge order makes async independent of
        # wall-clock scheduling: any backend/worker count is bit-identical
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert ref.async_log == exp.async_log

    def test_zero_staleness_is_exactly_sync(self):
        sync = _jfat(eval_every=0)
        sync.run()
        async0 = _jfat(aggregation_mode="async", max_staleness=0, eval_every=0)
        async0.run()
        _assert_states_equal(
            sync.global_model.state_dict(), async0.global_model.state_dict()
        )
        assert all(e.alpha == 1.0 and e.staleness == 0 for e in async0.async_log)

    def test_async_differs_from_sync_when_stale(self):
        # sanity that the async path actually changes the aggregation when
        # staleness attenuation kicks in (it is not a silent no-op)
        sync = _jfat(eval_every=0)
        sync.run()
        stale = _jfat(aggregation_mode="async", max_staleness=2, eval_every=0)
        stale.run()
        diff = sum(
            float(np.abs(a - b).max())
            for a, b in zip(
                sync.global_model.state_dict().values(),
                stale.global_model.state_dict().values(),
            )
        )
        assert diff > 0
