"""Cross-round async pipeline: every baseline, bounded depth, determinism.

Load-bearing properties (PR 5):

* asynchronous aggregation is no longer jFAT-only: FedRBN (staleness-aware
  dual-BN propagation), the partial-training family (masked partial
  average, attenuated), and FedProphet (per-module Eq. 16 merges) all
  accept ``aggregation_mode="async"``; the distillation baselines reject
  it with a clear error;
* ``max_staleness=0`` with ``pipeline_depth=1`` reproduces the
  synchronous run **bit for bit**, fused, per item, at width 2 and on a
  lazy population — model state, history, and evals;
* ``pipeline_depth>1`` really pipelines (more than one round in flight)
  and reruns bit-identically at any fusion width or materialisation,
  because merge order, base versions, and dispatch times derive from
  simulated latency only;
* the FedRBN dual-BN rule attenuates clean and adversarial running
  statistics separately under staleness and collapses to the sync result
  at staleness 0.
"""


import numpy as np
import pytest

from repro.baselines import FedDFAT, FedRBN, HeteroFLAT, JointFAT
from repro.core import FedProphet, FedProphetConfig, merge_async_partial
from repro.data import make_cifar10_like
from repro.flsim import AsyncMergeEvent, CrossRoundPipeline, FLConfig
from repro.flsim.aggregation import AggregationError
from repro.flsim.base import AsyncRoundContext, FLClient
from repro.hardware import DeviceSampler, device_pool
from repro.models import build_cnn
from repro.nn.normalization import DualBatchNorm2d
from tests.helpers import record_cohort_widths


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _dual_builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng, bn_cls=DualBatchNorm2d)


def _sampler(kind="unbalanced"):
    return DeviceSampler(device_pool("cifar10"), kind)


def _cfg(cls=FLConfig, **overrides):
    defaults = dict(
        num_clients=4, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=3, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, eval_max_samples=24, seed=0,
    )
    if cls is FedProphetConfig:
        defaults.update(rounds_per_module=2, patience=5, r_min_fraction=0.4,
                        val_samples=16, val_pgd_steps=2)
    defaults.update(overrides)
    return cls(**defaults)


#: Engine settings outside the config fingerprint, each of which must
#: leave a run bit-identical: fusion width 2 splits a round's three
#: clients 2 + 1, and a two-entry lazy population rebuilds the third.
SETTINGS = {
    "width2": dict(fusion_width=2),
    "lazy": dict(client_materialisation="lazy", client_cache_size=2),
}


def _hook_experiment(method):
    """One synchronous experiment per server-state policy."""
    if method == "fedprophet":
        return FedProphet(_task(), _builder, _cfg(FedProphetConfig))
    if method == "feddf":
        return FedDFAT(_task(), {"cnn": _builder}, _cfg())
    cls, builder = {"jfat": (JointFAT, _builder), "fedrbn": (FedRBN, _dual_builder)}[method]
    return cls(_task(), builder, _cfg())


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


def _histories_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.round == y.round
        assert x.sim_time_s == y.sim_time_s
        if x.eval is None:
            assert y.eval is None
        else:
            assert x.eval.as_dict() == y.eval.as_dict()


# ---------------------------------------------------------------------------
# Config / capability surface
# ---------------------------------------------------------------------------


class TestAsyncCapability:
    def test_pipeline_depth_validation(self):
        with pytest.raises(ValueError):
            FLConfig(pipeline_depth=0)
        with pytest.raises(ValueError, match="aggregation_mode"):
            FLConfig(pipeline_depth=2)  # sync + cross-round dispatch
        FLConfig(pipeline_depth=2, aggregation_mode="async")  # fine

    @pytest.mark.parametrize(
        "cls,builder,sampler",
        [
            (JointFAT, _builder, None),
            (FedRBN, _dual_builder, None),
            (HeteroFLAT, _builder, None),
        ],
    )
    def test_baselines_accept_async(self, cls, builder, sampler):
        exp = cls(_task(), builder, _cfg(aggregation_mode="async"))
        assert exp.supports_async_aggregation

    @pytest.mark.parametrize("cls,builder", [(JointFAT, _builder), (FedRBN, _dual_builder)])
    def test_replica_trained_server_state_is_the_live_model(self, cls, builder):
        """No copy: clients train on replicas and merges only rebind entries."""
        exp = cls(_task(), builder, _cfg())
        server = exp.async_server_state()
        model = exp.global_model
        assert list(server) == list(model.state_dict())
        for name, p in model.named_parameters():
            assert server[name] is p.data, name
        for name, b in model.named_buffers():
            assert server[name] is b, name

    @pytest.mark.parametrize("method", ["fedprophet", "feddf"])
    def test_live_model_writers_copy_their_server_state(self, method):
        """FedProphet trains on the live model and FedDF distils into
        it inside the merge: their server state shares no memory with it."""
        exp = _hook_experiment(method)
        live = [p.data for _, p in exp.global_model.named_parameters()]
        live += [b for _, b in exp.global_model.named_buffers()]
        server = exp.async_server_state()
        values = list(server.values())
        if method == "fedprophet":
            values = [v for v in values if isinstance(v, np.ndarray)]
            values += [a for h in server["heads"] if h is not None for a in h.values()]
            live += [a for h in exp.heads if h is not None for a in h.state_dict().values()]
        assert values
        assert not any(np.shares_memory(s, a) for s in values for a in live)

    @pytest.mark.parametrize("method", ["jfat", "fedrbn", "fedprophet", "feddf"])
    def test_an_aborted_round_leaves_the_live_model_bit_identical(self, method, monkeypatch):
        """The merge ran (and rebound the server's entries) before the round
        raised: the live model is back to its round-start bytes."""
        exp = _hook_experiment(method)
        before = {k: v.tobytes() for k, v in exp.global_model.state_dict().items()}
        real = type(exp).async_merge_event

        def merge_then_fail(self, server, *args):
            real(self, server, *args)
            raise AggregationError("late refusal")

        monkeypatch.setattr(type(exp), "async_merge_event", merge_then_fail)
        aborts, log = [], exp._jlog

        def jlog(kind, **payload):
            if kind == "agg_abort":
                aborts.append(payload["error"])
            log(kind, **payload)

        monkeypatch.setattr(exp, "_jlog", jlog)
        history = exp.run(rounds=1)  # the refusal is an aborted round, not a crash
        assert [r.aborted for r in history] == [True]
        assert aborts == ["late refusal"]
        after = {k: v.tobytes() for k, v in exp.global_model.state_dict().items()}
        assert after == before

    def test_distillation_rejects_async(self):
        with pytest.raises(ValueError, match="async"):
            FedDFAT(
                _task(),
                {"cnn": _builder},
                _cfg(aggregation_mode="async"),
            )


# ---------------------------------------------------------------------------
# Acceptance: max_staleness=0 + pipeline_depth=1 == sync, fused and per
# item, every async-capable baseline family
# ---------------------------------------------------------------------------


class TestZeroStalenessIsSync:
    @pytest.fixture(scope="class")
    def sync_runs(self):
        runs = {}
        for name, cls, builder in [
            ("jfat", JointFAT, _builder),
            ("fedrbn", FedRBN, _dual_builder),
            ("heterofl", HeteroFLAT, _builder),
        ]:
            exp = cls(_task(), builder, _cfg(eval_every=1), device_sampler=_sampler())
            history = exp.run()
            runs[name] = (exp, history)
        return runs

    @pytest.mark.parametrize("name", ["jfat", "fedrbn", "heterofl"])
    def test_bit_identical_to_sync(self, name, sync_runs):
        cls, builder = {
            "jfat": (JointFAT, _builder),
            "fedrbn": (FedRBN, _dual_builder),
            "heterofl": (HeteroFLAT, _builder),
        }[name]
        ref, ref_history = sync_runs[name]
        exp = cls(
            _task(), builder,
            _cfg(eval_every=1, aggregation_mode="async", max_staleness=0,
                 pipeline_depth=1),
            device_sampler=_sampler(),
        )
        history = exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict(),
            label=f"{name}: ",
        )
        _histories_equal(ref_history, history)
        assert all(e.alpha == 1.0 and e.staleness == 0 for e in exp.async_log)

    @pytest.mark.parametrize("name", ["jfat", "fedrbn", "heterofl"])
    def test_per_item_is_sync(self, name, sync_runs):
        # Per item, each of a round's three clients trains alone; the rows
        # above run at the derived fusion width.
        cls, builder = {
            "jfat": (JointFAT, _builder),
            "fedrbn": (FedRBN, _dual_builder),
            "heterofl": (HeteroFLAT, _builder),
        }[name]
        ref, ref_history = sync_runs[name]
        exp = cls(
            _task(), builder,
            _cfg(eval_every=1, aggregation_mode="async", max_staleness=0,
                 pipeline_depth=1, fusion_width=1),
            device_sampler=_sampler(),
        )
        history = exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict(),
            label=f"{name} per item: ",
        )
        _histories_equal(ref_history, history)

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("name", ["jfat", "fedrbn", "heterofl"])
    def test_engine_setting_is_sync(self, name, setting, sync_runs):
        cls, builder = {
            "jfat": (JointFAT, _builder),
            "fedrbn": (FedRBN, _dual_builder),
            "heterofl": (HeteroFLAT, _builder),
        }[name]
        ref, ref_history = sync_runs[name]
        exp = cls(
            _task(), builder,
            _cfg(eval_every=1, aggregation_mode="async", max_staleness=0,
                 pipeline_depth=1, **SETTINGS[setting]),
            device_sampler=_sampler(),
        )
        history = exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict(),
            label=f"{name} {setting}: ",
        )
        _histories_equal(ref_history, history)

    def test_prophet_zero_staleness_is_sync(self):
        sync = FedProphet(_task(), _builder, _cfg(FedProphetConfig, rounds=4),
                          device_sampler=_sampler())
        hs = sync.run()
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, rounds=4, aggregation_mode="async",
                 max_staleness=0),
            device_sampler=_sampler(),
        )
        ha = exp.run()
        _assert_states_equal(
            sync.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert [r.eval.as_dict() for r in hs] == [r.eval.as_dict() for r in ha]
        assert exp.async_log
        assert all(e.alpha == 1.0 and e.staleness == 0 for e in exp.async_log)


# ---------------------------------------------------------------------------
# Cross-round pipelining
# ---------------------------------------------------------------------------


def _jfat_async(**overrides):
    cfg = _cfg(aggregation_mode="async", max_staleness=2, rounds=5, **overrides)
    return JointFAT(_task(), _builder, cfg, device_sampler=_sampler())


class TestCrossRoundPipeline:
    def test_depth_two_actually_pipelines(self):
        exp = _jfat_async(pipeline_depth=2)
        exp.run()
        assert exp._last_pipeline_stats["peak_in_flight"] == 2
        # every sampled client of every round merged exactly once
        per_round = {}
        for e in exp.async_log:
            per_round.setdefault(e.round, []).extend(e.client_ids)
        assert len(per_round) == 5
        for cids in per_round.values():
            assert len(cids) == len(set(cids)) == exp.config.clients_per_round

    def test_base_versions_advance_with_depth(self):
        shallow = _jfat_async(pipeline_depth=1)
        shallow.run()
        # depth 1: every round's base version is the total merge count of
        # all earlier rounds (the pipeline fully drained before dispatch)
        events_per_round = {}
        for e in shallow.async_log:
            events_per_round[e.round] = max(events_per_round.get(e.round, 0), e.event + 1)
        for e in shallow.async_log:
            assert e.base_version == sum(
                n for r, n in events_per_round.items() if r < e.round
            )
        deep = _jfat_async(pipeline_depth=3)
        deep.run()
        # at depth 1 every round's base is the full merge count of the
        # previous rounds; at depth > 1 some round dispatches against a
        # smaller base (that is the cross-round overlap)
        firsts_shallow = {e.round: e.base_version for e in shallow.async_log if e.event == 0}
        firsts_deep = {e.round: e.base_version for e in deep.async_log if e.event == 0}
        assert any(firsts_deep[r] < firsts_shallow[r] for r in firsts_deep)
        # total staleness counts interleaved merges: it may exceed the
        # intra-round event index, never undershoot it
        assert all(e.staleness >= e.event for e in deep.async_log)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_rerun_is_bit_identical(self, depth):
        ref = _jfat_async(pipeline_depth=depth)
        ref.run()
        exp = _jfat_async(pipeline_depth=depth)
        exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert ref.async_log == exp.async_log
        _histories_equal(ref.history, exp.history)

    @pytest.mark.parametrize("setting", ["per_item", *sorted(SETTINGS)])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_engine_setting_cannot_change_the_pipeline(self, depth, setting):
        # Merge order, base versions and dispatch times derive from
        # simulated latency alone, never from how clients are run.
        ref = _jfat_async(pipeline_depth=depth)
        ref_widths = record_cohort_widths(ref)
        ref.run()
        kw = dict(fusion_width=1) if setting == "per_item" else SETTINGS[setting]
        exp = _jfat_async(pipeline_depth=depth, **kw)
        widths = record_cohort_widths(exp)
        exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict(),
            label=f"depth {depth} {setting}: ",
        )
        assert ref.async_log == exp.async_log
        _histories_equal(ref.history, exp.history)
        assert max(ref_widths) == 3  # the tiny CNN fuses a whole round
        assert max(widths) == kw.get("fusion_width", 3)

    def test_depth_changes_trajectory(self):
        a = _jfat_async(pipeline_depth=1)
        a.run()
        b = _jfat_async(pipeline_depth=2)
        b.run()
        diff = sum(
            float(np.abs(x - y).max())
            for x, y in zip(
                a.global_model.state_dict().values(),
                b.global_model.state_dict().values(),
            )
        )
        assert diff > 0  # stale cross-round bases actually change training

    def test_eval_during_pipelined_run_is_deterministic(self):
        a = _jfat_async(pipeline_depth=2, eval_every=2)
        b = _jfat_async(pipeline_depth=2, eval_every=2)
        ha, hb = a.run(), b.run()
        evals_a = [r.eval.as_dict() for r in ha if r.eval is not None]
        evals_b = [r.eval.as_dict() for r in hb if r.eval is not None]
        assert evals_a and evals_a == evals_b

    def test_cumulative_compute_accrues_in_round_order(self):
        exp = _jfat_async(pipeline_depth=3)
        history = exp.run()
        computes = [r.compute_s for r in history]
        accesses = [r.access_s for r in history]
        assert computes == sorted(computes)  # cumulative in round order
        assert accesses == sorted(accesses)
        assert exp.total_compute_s == computes[-1]
        assert exp.total_access_s == accesses[-1]
        # matches the sync accounting: per-round bottleneck compute sums
        sync = JointFAT(
            _task(), _builder, _cfg(rounds=5), device_sampler=_sampler()
        )
        sync_history = sync.run()
        # same sampled clients/devices -> same bottleneck costs per round
        assert [r.compute_s for r in sync_history] == computes

    def test_pipeline_rejects_bad_args(self):
        exp = _jfat_async()
        with pytest.raises(ValueError):
            CrossRoundPipeline(
                exp.scheduler, max_staleness=0, depth=0,
                merge_event=lambda *a: None, round_complete=lambda *a: None,
            )
        with pytest.raises(ValueError):
            CrossRoundPipeline(
                exp.scheduler, max_staleness=-1, depth=1,
                merge_event=lambda *a: None, round_complete=lambda *a: None,
            )


# ---------------------------------------------------------------------------
# FedRBN: staleness-aware dual-BN propagation
# ---------------------------------------------------------------------------


def _fedrbn_merge_fixture():
    """A FedRBN instance plus a handcrafted two-client merge context."""
    exp = FedRBN(_task(), _dual_builder, _cfg())
    server = exp.async_server_state()
    base = {k: v.copy() for k, v in server.items()}
    rng = np.random.default_rng(0)
    updates = []
    for _ in range(2):
        state = {k: v + rng.normal(size=v.shape).astype(v.dtype) for k, v in base.items()}
        updates.append(state)
    clients = [FLClient(cid=i, dataset=exp.clients[i].dataset) for i in range(2)]
    weights = [float(c.num_samples) for c in clients]
    ctx = AsyncRoundContext(
        round_idx=0, clients=clients, states=[None, None], costs=[],
        weights=weights, round_weight=float(sum(weights)),
        extra={"at": [True, False], "at_weight": weights[0]},
    )
    return exp, server, base, updates, ctx, weights


class TestFedRBNStalenessDualBN:
    def test_zero_staleness_collapses_to_sync_rule(self):
        exp, server, base, updates, ctx, weights = _fedrbn_merge_fixture()
        exp.async_merge_event(server, ctx, [0, 1], updates, staleness=0)
        adv_keys = set(exp._adv_stat_keys)
        from repro.flsim.aggregation import weighted_average_states

        full = weighted_average_states(updates, weights)
        for k in server:
            if k in adv_keys:
                # adversarial stats: AT client (index 0) only, rate 1
                np.testing.assert_array_equal(server[k], updates[0][k], err_msg=k)
            else:
                np.testing.assert_array_equal(server[k], full[k], err_msg=k)

    def test_stale_event_attenuates_clean_and_adv_separately(self):
        exp, server, base, updates, ctx, weights = _fedrbn_merge_fixture()
        s = 1
        exp.async_merge_event(server, ctx, [0, 1], updates, staleness=s)
        adv_keys = set(exp._adv_stat_keys)
        assert adv_keys, "dual-BN model must expose _adv running stats"
        from repro.flsim.aggregation import weighted_average_states

        full = weighted_average_states(updates, weights)
        alpha = 1.0 / (1.0 + s)          # whole round in one event
        alpha_adv = 1.0 / (1.0 + s)      # whole AT weight in one event
        for k in server:
            if k in adv_keys:
                expected = base[k] + alpha_adv * (updates[0][k] - base[k])
            else:
                expected = base[k] + alpha * (full[k] - base[k])
            np.testing.assert_allclose(server[k], expected, rtol=1e-6, err_msg=k)
            # attenuated: strictly between base and target when they differ
            moved = np.abs(server[k] - base[k])
            target = np.abs((updates[0][k] if k in adv_keys else full[k]) - base[k])
            assert np.all(moved <= target + 1e-12)

    def test_event_without_at_members_leaves_adv_stats(self):
        exp, server, base, updates, ctx, weights = _fedrbn_merge_fixture()
        # client 1 (no AT) merges alone at staleness 0
        exp.async_merge_event(server, ctx, [1], [updates[1]], staleness=0)
        for k in exp._adv_stat_keys:
            np.testing.assert_array_equal(server[k], base[k], err_msg=k)

    def test_end_to_end_stats_diverge_under_staleness(self):
        sync = FedRBN(_task(), _dual_builder, _cfg(), device_sampler=_sampler())
        sync.run()
        stale = FedRBN(
            _task(), _dual_builder,
            _cfg(aggregation_mode="async", max_staleness=2),
            device_sampler=_sampler(),
        )
        stale.run()
        assert max(e.staleness for e in stale.async_log) > 0
        sync_state = sync.global_model.state_dict()
        stale_state = stale.global_model.state_dict()
        adv = [k for k in stale._adv_stat_keys if k.endswith("running_mean_adv")]
        clean = [k.replace("_adv", "") for k in adv]
        assert any(float(np.abs(sync_state[k] - stale_state[k]).max()) > 0 for k in adv)
        assert any(float(np.abs(sync_state[k] - stale_state[k]).max()) > 0 for k in clean)

    def test_stale_run_deterministic(self):
        ref = FedRBN(
            _task(), _dual_builder,
            _cfg(aggregation_mode="async", max_staleness=2, pipeline_depth=2),
            device_sampler=_sampler(),
        )
        ref.run()
        exp = FedRBN(
            _task(), _dual_builder,
            _cfg(aggregation_mode="async", max_staleness=2, pipeline_depth=2),
            device_sampler=_sampler(),
        )
        exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert ref.async_log == exp.async_log


# ---------------------------------------------------------------------------
# FedProphet: per-module async merges
# ---------------------------------------------------------------------------


class TestProphetAsync:
    def test_stale_run_deterministic(self):
        ref = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, rounds=4, aggregation_mode="async",
                 max_staleness=2),
            device_sampler=_sampler(),
        )
        ref.run()
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, rounds=4, aggregation_mode="async",
                 max_staleness=2),
            device_sampler=_sampler(),
        )
        exp.run()
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        assert ref.async_log == exp.async_log
        assert max(e.staleness for e in ref.async_log) <= 2

    def test_merge_log_covers_every_round(self):
        exp = FedProphet(
            _task(), _builder,
            _cfg(FedProphetConfig, rounds=4, aggregation_mode="async",
                 max_staleness=1),
            device_sampler=_sampler(),
        )
        exp.run()
        rounds_seen = {e.round for e in exp.async_log}
        assert rounds_seen == {r.round for r in exp.history}
        per_round = {}
        for e in exp.async_log:
            per_round.setdefault(e.round, []).extend(e.client_ids)
        for cids in per_round.values():
            assert len(cids) == len(set(cids)) == exp.config.clients_per_round

    def test_merge_async_partial_validates(self):
        exp = FedProphet(_task(), _builder, _cfg(FedProphetConfig))
        idle = [0.0] * len(exp.partition)  # no span merges: only the counts matter
        for members, assignments, weights in (
            (1, [0, 1], [1.0]),  # assignments vs weights
            (2, [0], [1.0]),  # more updates than members ...
            (1, [0, 0], [1.0, 1.0]),  # ... and fewer
        ):
            with pytest.raises(ValueError, match="equal length"):
                merge_async_partial(
                    exp.global_model, exp.partition, 0, {}, [None],
                    iter([({}, None)] * members), assignments, weights, idle, [0.0],
                    staleness=0,
                )


class TestAsyncMergeEventLog:
    def test_log_entries_are_comparable_records(self):
        exp = _jfat_async(pipeline_depth=1)
        exp.run()
        assert all(isinstance(e, AsyncMergeEvent) for e in exp.async_log)
        # sim times are the simulated merge times: non-decreasing in log order
        times = [e.sim_time_s for e in exp.async_log]
        assert times == sorted(times)
