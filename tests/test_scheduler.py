"""Round executor groups, the cross-round pipeline, async aggregation.

Load-bearing properties:

* ``RoundExecutor.submit_group`` is a generator that runs one cohort per
  pull, and ``run_group`` gathers in input order with exceptions
  propagated — the drop-in replacement for the ``map`` barrier; a failing
  cohort raises once and ends the group;
* the per-item path (``fusion_width=1``) is **bit-identical** to the
  fused default, per round evaluation included;
* asynchronous aggregation respects ``max_staleness``, is
  seed-reproducible (simulated-arrival order, never wall-clock order);
  ``max_staleness=0`` is exactly synchronous FedAvg.
"""

import re

import numpy as np
import pytest

from repro.baselines import JointFAT
from repro.baselines.jfat import AsyncMergeEvent
from repro.core import FedProphet, FedProphetConfig, async_merge_schedule
from repro.data import make_cifar10_like
from repro.flsim import AsyncRoundContext, CrossRoundPipeline, FLConfig, RoundExecutor
from repro.flsim.executor import CohortFn
from repro.models import build_cnn

pytestmark = pytest.mark.scheduler

def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


# ---------------------------------------------------------------------------
# RoundExecutor groups
# ---------------------------------------------------------------------------


class TestRoundExecutorGroups:
    def test_results_in_input_order(self):
        assert RoundExecutor().run_group(lambda i: i * i, range(9)) == [i * i for i in range(9)]

    def test_empty_group_yields_nothing(self):
        ex = RoundExecutor()
        assert list(ex.submit_group(lambda i: i, [])) == []
        assert ex.run_group(lambda i: i, []) == []

    def test_stream_yields_every_item_exactly_once(self):
        group = RoundExecutor().submit_group(lambda i: i + 100, range(7))
        assert dict(group) == {i: i + 100 for i in range(7)}

    def test_exceptions_propagate(self):
        def boom(i):
            if i == 2:
                raise RuntimeError("work unit failed")
            return i

        with pytest.raises(RuntimeError, match="work unit failed"):
            RoundExecutor().run_group(boom, range(5))

    def test_run_group_matches_a_loop(self):
        ex = RoundExecutor()
        items = list(range(10))
        assert ex.run_group(lambda i: i * 3, items) == [i * 3 for i in items]

    @pytest.mark.parametrize("n", [3, 0], ids=["items", "empty"])
    def test_group_is_exhausted_past_the_end(self, n):
        # Nothing can ever arrive past the last item: the group ends, never blocks.
        group = RoundExecutor().submit_group(lambda i: i, range(n))
        assert sorted(next(group) for _ in range(n)) == [(i, i) for i in range(n)]
        assert next(group, None) is None
        assert list(group) == []

    def test_concurrent_groups_gather_independently(self):
        # Groups carry no dependencies: two in flight each gather their
        # own results, whichever is collected first.
        ex = RoundExecutor()
        first = ex.submit_group(lambda i: i, range(6))
        second = ex.submit_group(lambda i: -i, range(6))
        assert sorted(second) == [(i, -i) for i in range(6)]
        assert sorted(first) == [(i, i) for i in range(6)]

    def test_the_old_scheduler_name_is_the_executor(self):
        # The benchmark's traced span table binds FLScheduler.submit_group
        # and run_group by name.
        from repro.flsim.scheduler import FLScheduler

        assert FLScheduler is RoundExecutor


class TestCohortGroups:
    """A :class:`CohortFn` group runs cohort by cohort at any fusion width.

    Seven items under two fusion keys plus one unfusable item: width 1 runs
    every item alone, 2 and 3 leave ragged tails, 5 fuses each key whole.
    """

    ITEMS = list(range(7))

    @staticmethod
    def _key(i):
        return None if i == 3 else ("a" if i % 2 == 0 else "b")

    def _group(self, width, fail_on=None):
        runs = []

        def run(items):
            runs.append(tuple(items))
            if fail_on in items:
                raise RuntimeError("cohort failed")
            return [10 * i for i in items]

        fn = CohortFn(run, group_key=self._key)
        ex = RoundExecutor(fusion_width=width)
        plan = [tuple(self.ITEMS[i] for i in c) for c in ex.plan_cohorts(fn, self.ITEMS)]
        return ex.submit_group(fn, self.ITEMS), runs, plan

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_results_in_input_order(self, width):
        group, runs, plan = self._group(width)
        assert [result for _, result in sorted(group)] == [10 * i for i in self.ITEMS]
        assert runs == plan
        assert max(len(c) for c in runs) == min(width, 4)
        for cohort in runs:
            assert len({self._key(i) for i in cohort}) == 1

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_each_cohort_runs_when_pulled(self, width):
        group, runs, plan = self._group(width)
        assert runs == []
        first = next(group)
        assert runs == plan[:1] and first == (plan[0][0], 10 * plan[0][0])
        # the rest of the first cohort is handed out without running anything
        for _ in plan[0][1:]:
            next(group)
        assert runs == plan[:1]

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_a_failed_cohort_stops_the_group(self, width):
        group, runs, plan = self._group(width, fail_on=4)
        with pytest.raises(RuntimeError, match="cohort failed"):
            list(group)
        failed = next(n for n, cohort in enumerate(plan) if 4 in cohort)
        assert runs == plan[: failed + 1]  # no later cohort trains

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_group_is_exhausted_past_the_end(self, width):
        group, _, _ = self._group(width)
        for _ in self.ITEMS:
            next(group)
        assert next(group, None) is None

    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_stream_yields_every_item_exactly_once(self, width):
        group, runs, plan = self._group(width)
        assert dict(group) == {i: 10 * i for i in self.ITEMS}
        assert runs == plan


class TestInlineGroupsRunOnDemand:
    """Groups train when the consumer pulls, and hand results over once."""

    @staticmethod
    def _group(n=5):
        ran = []

        def work(i):
            ran.append(i)
            return 10 * i

        return RoundExecutor().submit_group(work, range(n)), ran

    def test_nothing_trains_at_submit(self):
        group, ran = self._group()
        assert ran == []
        assert next(group) == (0, 0) and ran == [0]
        assert next(group) == (1, 10) and ran == [0, 1]

    def test_the_rest_runs_once_when_drained(self):
        group, ran = self._group()
        next(group)
        # the rest runs on the drain, and each result is handed out exactly once
        assert list(group) == [(i, 10 * i) for i in range(1, 5)] and ran == [0, 1, 2, 3, 4]
        assert list(group) == [] and ran == [0, 1, 2, 3, 4]

    def test_run_group_runs_everything_once(self):
        ran = []

        def work(i):
            ran.append(i)
            return 10 * i

        assert RoundExecutor().run_group(work, range(5)) == [0, 10, 20, 30, 40]
        assert ran == [0, 1, 2, 3, 4]

    def test_export_state_after_a_partial_merge_keeps_landed_updates(self):
        ran = []

        def work(i):
            ran.append(i)
            return 10 * i

        merged = []
        pipeline = CrossRoundPipeline(
            RoundExecutor(), max_staleness=1, depth=2,
            merge_event=lambda t, members, updates, s: merged.append(list(updates)),
            round_complete=lambda t: None,
        )
        pipeline.dispatch(0, [0, 1, 2], [1.0, 2.0, 3.0], lambda ticket: work)
        assert ran == []  # nothing trains at dispatch
        pipeline.advance_to(1.0)  # event [0] pulls client 0 only
        assert merged == [[0]] and ran == [0]
        state = pipeline.export_state(lambda meta: meta)
        assert state["tickets"][0]["updates"] == {1: 10, 2: 20}  # the merged one is not kept
        assert ran == [0, 1, 2]  # the landed update was kept, not retrained
        pipeline.drain_all()
        assert merged == [[0], [10, 20]] and ran == [0, 1, 2]

    def test_restore_takes_an_older_list_of_every_landed_update(self):
        """Older checkpoints stored a ticket's updates as a list by position,
        merged ones included; a restored pipeline merges only the rest."""
        merged = []

        def pipeline():
            return CrossRoundPipeline(
                RoundExecutor(), max_staleness=1, depth=2,
                merge_event=lambda t, members, updates, s: merged.append(list(updates)),
                round_complete=lambda t: None,
            )

        live = pipeline()
        live.dispatch(0, [0, 1, 2], [1.0, 2.0, 3.0], lambda ticket: lambda i: 10 * i)
        live.advance_to(1.0)
        state = live.export_state(lambda meta: meta)
        state["tickets"][0]["updates"] = [0, 10, 20]  # the older format
        restored = pipeline()
        restored.restore_state(state, lambda meta: meta)
        restored.drain_all()
        assert merged == [[0], [10, 20]]


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

    @staticmethod
    def _merge(server, states, weights, round_weight, staleness):
        """One event of the engine's full-model rule over ``states``."""
        ctx = AsyncRoundContext(
            round_idx=0, clients=[], states=[], costs=[],
            weights=list(weights), round_weight=round_weight,
        )
        members = list(range(len(states)))
        return _jfat().async_merge_event(server, ctx, members, iter(states), staleness)

    def test_single_full_event_replaces_server_exactly(self):
        rng = np.random.default_rng(0)
        server = {"w": rng.normal(size=(3, 3)).astype(np.float32)}
        states = [{"w": rng.normal(size=(3, 3)).astype(np.float32)} for _ in range(3)]
        weights = [1.0, 2.0, 3.0]
        alpha = self._merge(server, states, weights, sum(weights), staleness=0)
        assert alpha == 1.0
        from repro.flsim.aggregation import weighted_average_states

        np.testing.assert_array_equal(
            server["w"], weighted_average_states(states, weights)["w"]
        )

    def test_stale_event_attenuated(self):
        server = {"w": np.zeros(2, dtype=np.float32)}
        states = [{"w": np.ones(2, dtype=np.float32)}]
        alpha = self._merge(server, states, [1.0], 2.0, staleness=1)
        assert alpha == pytest.approx(0.25)  # (1/2) / (1 + 1)
        np.testing.assert_allclose(server["w"], 0.25)


# ---------------------------------------------------------------------------
# Experiment-level determinism
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _jfat(**overrides):
    defaults = dict(
        num_clients=4, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=3, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=1, eval_max_samples=24, seed=0,
    )
    defaults.update(overrides)
    return JointFAT(
        _task(),
        lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng),
        FLConfig(**defaults),
    )


class TestSyncDeterminism:
    """Per item == fused == lazy, bit for bit, per round evaluation included."""

    def test_per_item_bit_identical_to_fused(self):
        # The tiny CNN fuses a round's three clients into one cohort; at
        # width 1 every client trains alone.
        ref = _jfat()
        ref_history = ref.run()
        exp = _jfat(fusion_width=1)
        history = exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert [h.eval.as_dict() for h in history] == [
            h.eval.as_dict() for h in ref_history
        ]
        assert [h.sim_time_s for h in history] == [h.sim_time_s for h in ref_history]

    def test_lazy_population_bit_identical_to_eager(self):
        # A two-entry cache rebuilds clients between rounds and evals.
        ref = _jfat()
        ref_history = ref.run()
        exp = _jfat(client_materialisation="lazy", client_cache_size=2)
        history = exp.run()
        assert exp.clients.stats()["evictions"] > 0
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

    def test_eval_leaves_training_untouched(self):
        # The eval draws on its own RNG stream: weights and the simulated
        # clock are those of a run that never evaluates.
        quiet = _jfat(eval_every=0)
        quiet.run()
        exp = _jfat(eval_every=1)
        history = exp.run()
        assert all(r.eval is not None for r in history)
        _assert_states_equal(
            quiet.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert [r.sim_time_s for r in quiet.history] == [r.sim_time_s for r in history]

    @pytest.mark.parametrize("samples", [0, 24])
    def test_verbose_round_line_prints_an_unmeasured_column_as_a_dash(self, samples, capsys):
        # eval_max_samples=0 is legal and measures nothing: every column is None.
        history = _jfat(eval_max_samples=samples, rounds=2).run(verbose=True)
        assert (history[0].eval.clean_acc is None) == (samples == 0)
        col = lambda v: "-" if v is None else f"{v:.3f}"
        assert capsys.readouterr().out.splitlines() == [
            f"[jfat] round {r.round + 1}: clean={col(r.eval.clean_acc)} "
            f"pgd={col(r.eval.pgd_acc)} aa=- time={r.sim_time_s:.3g}s"
            for r in history
        ]

    def test_describe_parallelism_carries_no_worker_count(self):
        # One engine runs one work unit at a time: the description names
        # it, the fusion width and the population, and no "xN" worker cap.
        text = _jfat().describe_parallelism()
        assert "engine: serial" in text
        assert re.search(r"\bx\d", text) is None
        assert "eval engine" not in text and "overlap" not in text
        assert "fusion width" in text and "population: 4 clients" in text


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

    def test_seed_reproducible(self):
        a = _jfat(aggregation_mode="async", max_staleness=2)
        b = _jfat(aggregation_mode="async", max_staleness=2)
        a.run(), b.run()
        _assert_states_equal(a.global_model.state_dict(), b.global_model.state_dict())
        assert a.async_log == b.async_log

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
