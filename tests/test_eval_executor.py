"""Sharded evaluation engine: plans, shard determinism, cache reuse.

The load-bearing property mirrors the round engine's: an
:class:`EvalPlan` produces **bit-identical** :class:`EvalResult`s on the
serial, thread, and process backends — with and without the prefix cache,
and through the ``max_samples`` subsample path — because shard RNGs are
derived from ``(plan seed, attack, shard)`` and never from scheduling.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import FedProphet, FedProphetConfig
from repro.data import ArrayDataset, make_cifar10_like
from repro.flsim import EvalExecutor, EvalTarget, FLConfig, RoundExecutor
from repro.attacks import ModelWithLoss, auto_attack_lite
from repro.metrics import AttackSpec, EvalPlan, evaluate_model, shard_rng
from repro.models import build_cnn, build_vgg
from repro.nn import no_param_grads

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
BACKENDS = ["serial", "thread"] + (["process"] if HAS_FORK else [])


def _model(seed=1):
    return build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(seed))


def _dataset(n=40):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=n)
    x = np.clip(0.5 + 0.2 * rng.normal(size=(n, 3, 8, 8)), 0, 1)
    return ArrayDataset(x, y)


def _replicated_targets():
    """A slot-aware target factory backed by per-slot model replicas."""
    state = _model().state_dict()
    replicas = {}

    def target_for_slot(slot):
        model = replicas.get(slot)
        if model is None:
            model = _model(seed=99)  # deliberately different init ...
            model.load_state_dict(state)  # ... erased by the sync
            replicas[slot] = model
        return EvalTarget(ModelWithLoss(model))

    return target_for_slot


def _results_equal(a, b):
    assert a.clean_acc == b.clean_acc
    assert a.pgd_acc == b.pgd_acc
    assert a.aa_acc == b.aa_acc
    assert a.attack_accs == b.attack_accs


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------


class TestEvalPlan:
    def test_standard_triple(self):
        plan = EvalPlan.standard(eps=0.03, pgd_steps=5, with_autoattack=True)
        assert [a.name for a in plan.attacks] == ["clean", "pgd", "aa"]
        assert [a.kind for a in plan.attacks] == ["clean", "pgd", "autoattack"]

    def test_zero_eps_is_clean_only(self):
        plan = EvalPlan.standard(eps=0.0, pgd_steps=5, with_autoattack=True)
        assert [a.name for a in plan.attacks] == ["clean"]

    def test_autoattack_requires_pgd(self):
        # AA rides on the PGD column: no steps, no adversarial columns at all
        plan = EvalPlan.standard(eps=0.1, pgd_steps=0, with_autoattack=True)
        assert [a.name for a in plan.attacks] == ["clean"]

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            EvalPlan(attacks=())
        with pytest.raises(ValueError):
            EvalPlan(attacks=(AttackSpec.clean(), AttackSpec.clean()))

    def test_rejects_bad_attacks(self):
        with pytest.raises(ValueError):
            AttackSpec(name="x", kind="quantum")
        with pytest.raises(ValueError):
            AttackSpec(name="pgd", kind="pgd", eps=0.0, steps=5)

    def test_unmeasured_columns_stay_none(self):
        # a clean-less plan must not report a measured 0% clean accuracy
        plan = EvalPlan(attacks=(AttackSpec.pgd(0.05, 2),), batch_size=8)
        result = EvalExecutor().run(plan, _dataset(16), _replicated_targets())
        assert result.clean_acc is None
        assert result.aa_acc is None
        assert result.pgd_acc is not None
        assert set(result.attack_accs) == {"pgd"}

    def test_empty_evaluation_measures_nothing(self):
        plan = EvalPlan.standard(eps=0.05, pgd_steps=2, max_samples=0)
        result = EvalExecutor().run(plan, _dataset(8), _replicated_targets())
        assert result.clean_acc is None
        assert result.pgd_acc is None
        assert result.attack_accs == {"clean": None, "pgd": None}

    def test_shard_decomposition_is_backend_independent(self):
        plan = EvalPlan.standard(eps=0.1, pgd_steps=2, batch_size=8)
        shards = {
            backend: EvalExecutor(RoundExecutor(backend, max_workers=2)).shards_for(
                plan, 20
            )
            for backend in BACKENDS
        }
        reference = shards["serial"]
        assert len(reference) == 2 * 3  # two attacks x ceil(20 / 8) batches
        for backend in BACKENDS:
            assert shards[backend] == reference

    def test_shard_rng_stable(self):
        a = shard_rng(5, 1, 2).integers(0, 1000, 4)
        b = shard_rng(5, 1, 2).integers(0, 1000, 4)
        c = shard_rng(5, 1, 3).integers(0, 1000, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        # tuple seeds (used by cascade_eval's per-call counter) work too
        d = shard_rng((5, 7), 0, 0).integers(0, 1000, 4)
        assert d.shape == (4,)


# ---------------------------------------------------------------------------
# Backend determinism: serial == thread == process, bit for bit
# ---------------------------------------------------------------------------


class TestBackendDeterminism:
    @pytest.fixture(scope="class")
    def serial_result(self):
        plan = EvalPlan.standard(
            eps=0.05, pgd_steps=3, with_autoattack=True, batch_size=8, seed=3
        )
        executor = EvalExecutor(RoundExecutor("serial"))
        return plan, executor.run(plan, _dataset(), _replicated_targets())

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
    def test_bit_identical_across_backends(self, backend, serial_result):
        plan, reference = serial_result
        executor = EvalExecutor(RoundExecutor(backend, max_workers=3))
        result = executor.run(plan, _dataset(), _replicated_targets())
        _results_equal(reference, result)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_max_samples_subsample_is_shard_stable(self, backend):
        plan = EvalPlan.standard(
            eps=0.05, pgd_steps=2, max_samples=16, batch_size=4, seed=11
        )
        reference = EvalExecutor(RoundExecutor("serial")).run(
            plan, _dataset(48), _replicated_targets()
        )
        result = EvalExecutor(RoundExecutor(backend, max_workers=2)).run(
            plan, _dataset(48), _replicated_targets()
        )
        _results_equal(reference, result)

    def test_worker_count_does_not_change_results(self):
        plan = EvalPlan.standard(eps=0.05, pgd_steps=2, batch_size=4, seed=7)
        results = [
            EvalExecutor(RoundExecutor("thread", max_workers=w)).run(
                plan, _dataset(), _replicated_targets()
            )
            for w in (1, 2, 5)
        ]
        for result in results[1:]:
            _results_equal(results[0], result)

    def test_evaluate_model_wrapper_matches_engine(self):
        model = _model()
        res = evaluate_model(
            model, _dataset(), eps=0.05, pgd_steps=2, batch_size=8, seed=13
        )
        plan = EvalPlan.standard(eps=0.05, pgd_steps=2, batch_size=8, seed=13)
        direct = EvalExecutor().run(
            plan, _dataset(), lambda slot: EvalTarget(ModelWithLoss(model))
        )
        _results_equal(res, direct)
        assert res.attack_accs == {"clean": res.clean_acc, "pgd": res.pgd_acc}


# ---------------------------------------------------------------------------
# Experiment-level evaluation: replicas, cascade_eval, cache reuse
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _prophet(eval_backend, use_cache=True, **overrides):
    defaults = dict(
        num_clients=3, clients_per_round=2, local_iters=2, batch_size=8,
        lr=0.02, rounds=4, train_pgd_steps=2, rounds_per_module=2,
        patience=5, val_samples=20, val_pgd_steps=2, eval_every=0,
        eval_pgd_steps=2, r_min_fraction=0.35, seed=0,
        use_prefix_cache=use_cache,
        eval_backend=eval_backend, eval_parallelism=2,
    )
    defaults.update(overrides)
    return FedProphet(
        _task(),
        lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng),
        FedProphetConfig(**defaults),
    )


class TestExperimentEvaluation:
    @pytest.fixture(scope="class")
    def serial_run(self):
        exp = _prophet("serial")
        history = exp.run()
        return exp, history

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
    def test_full_run_eval_matches_serial(self, backend, serial_run):
        """Training serial everywhere; only evaluation changes backend."""
        ref, ref_history = serial_run
        exp = _prophet(backend)
        history = exp.run()
        assert len(history) == len(ref_history)
        for a, b in zip(ref_history, history):
            assert a.eval.clean_acc == b.eval.clean_acc
            assert a.eval.pgd_acc == b.eval.pgd_acc
        _results_equal(ref.evaluate(max_samples=16), exp.evaluate(max_samples=16))
        _results_equal(ref.final_eval(max_samples=16), exp.final_eval(max_samples=16))

    @pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "serial"])
    def test_cascade_eval_cache_on_off_and_backends(self, backend, serial_run):
        """cascade_eval: cache off == cache on, serial == parallel."""
        ref, _ = serial_run
        exp_off = _prophet(backend, use_cache=False)
        exp_off.run()
        for h_ref, h in zip(ref.history, exp_off.history):
            assert h_ref.eval.clean_acc == h.eval.clean_acc
            assert h_ref.eval.pgd_acc == h.eval.pgd_acc

    def test_cascade_eval_fills_and_hits_prefix_cache(self):
        exp = _prophet("serial")
        exp.current_module = 1
        exp.eps_feature = 0.5
        exp._enter_stage(1)
        first = exp.cascade_eval(1)
        stats = exp.prefix_cache.stats()
        assert ("val", exp.partition[1][0]) in exp.prefix_cache._entries
        assert stats["misses"] == len(exp.val_set)
        second = exp.cascade_eval(1)
        stats = exp.prefix_cache.stats()
        # the second validation's clean pass is served entirely from cache
        assert stats["hits"] == len(exp.val_set)
        assert stats["misses"] == len(exp.val_set)
        assert first.clean_acc == second.clean_acc

    @pytest.mark.skipif(not HAS_FORK, reason="process backend requires fork()")
    def test_process_eval_merges_counters_and_entries(self):
        exp = _prophet("process")
        exp.current_module = 1
        exp.eps_feature = 0.5
        exp._enter_stage(1)
        exp.cascade_eval(1)
        stats = exp.prefix_cache.stats()
        # misses happened in forked children; the parent adopted both the
        # counter deltas and the filled entry
        assert stats["misses"] == len(exp.val_set)
        assert ("val", exp.partition[1][0]) in exp.prefix_cache._entries
        exp.cascade_eval(1)
        assert exp.prefix_cache.stats()["hits"] == len(exp.val_set)

    def test_module_zero_has_no_prefix_to_cache(self):
        exp = _prophet("serial")
        exp._enter_stage(0)
        exp.cascade_eval(0)
        assert len(exp.prefix_cache) == 0


class TestEvalConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FLConfig(eval_backend="gpu")
        with pytest.raises(ValueError):
            FLConfig(eval_parallelism=0)

    def test_eval_engine_follows_round_engine_by_default(self):
        from repro.baselines import JointFAT

        cfg = FLConfig(
            num_clients=2, clients_per_round=1, rounds=1,
            executor_backend="thread", round_parallelism=3,
        )
        exp = JointFAT(
            _task(), lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng), cfg
        )
        assert exp.eval_executor.backend == "thread"
        assert exp.eval_executor.executor.max_workers == 3

    def test_eval_overrides_decouple(self):
        from repro.baselines import JointFAT

        cfg = FLConfig(
            num_clients=2, clients_per_round=1, rounds=1,
            executor_backend="serial", eval_backend="thread", eval_parallelism=2,
        )
        exp = JointFAT(
            _task(), lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng), cfg
        )
        assert exp.executor.backend == "serial"
        assert exp.eval_executor.backend == "thread"
        assert exp.eval_executor.executor.max_workers == 2


# ---------------------------------------------------------------------------
# AutoAttack shards: one spec, its members run on survivors inside the shard
# ---------------------------------------------------------------------------


class TestAutoAttackShards:
    def _plan(self, **kw):
        defaults = dict(eps=0.01, pgd_steps=2, with_autoattack=True,
                        batch_size=8, seed=3)
        defaults.update(kw)
        return EvalPlan.standard(**defaults)

    def test_one_shard_per_batch(self):
        plan = self._plan()
        assert [a.name for a in plan.attacks] == ["clean", "pgd", "aa"]
        assert len(EvalExecutor().shards_for(plan, 16)) == 3 * 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bit_identical_across_backends(self, backend):
        plan = self._plan()  # batch_size 8 < n 40: five aa shards, last one short
        reference = EvalExecutor(RoundExecutor("serial")).run(
            plan, _dataset(), _replicated_targets()
        )
        result = EvalExecutor(RoundExecutor(backend, max_workers=2)).run(
            plan, _dataset(), _replicated_targets()
        )
        _results_equal(reference, result)
        assert set(result.attack_accs) == {"clean", "pgd", "aa"}
        assert 0.0 < result.aa_acc <= result.clean_acc

    def test_aa_matches_auto_attack_lite_per_shard(self):
        """The aa column is auto_attack_lite on each shard with the shard's RNG."""
        ds = _dataset(24)
        plan = self._plan()
        result = EvalExecutor().run(plan, ds, _replicated_targets())
        model = _model(seed=99)
        model.load_state_dict(_model().state_dict())
        mwl = ModelWithLoss(model.eval())
        y = np.asarray(ds.y)
        correct = 0
        for si, start in enumerate(range(0, 24, 8)):
            xb, yb = ds.x[start:start + 8], y[start:start + 8]
            with no_param_grads():
                adv = auto_attack_lite(mwl, xb, yb, eps=0.01, steps=2,
                                       rng=shard_rng(plan.seed, 2, si))
                correct += int((mwl.logits(adv).argmax(axis=1) == yb).sum())
        assert result.aa_acc == correct / 24

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_run_is_repeatable_on_one_engine(self, backend):
        """A second run on the same engine (its pool and replicas reused)
        reduces to the same EvalResult as a fresh serial engine."""
        plan = self._plan()
        reference = EvalExecutor(RoundExecutor("serial")).run(
            plan, _dataset(), _replicated_targets()
        )
        engine = EvalExecutor(RoundExecutor(backend, max_workers=2))
        targets = _replicated_targets()
        first = engine.run(plan, _dataset(), targets)
        second = engine.run(plan, _dataset(), targets)
        _results_equal(reference, first)
        _results_equal(reference, second)
        engine.executor.close()
