"""Sharded evaluation engine: plans, shard determinism, cache reuse.

The load-bearing property: an :class:`EvalPlan` produces
**bit-identical** :class:`EvalResult`s run after run — with and without
the prefix cache, and through the ``max_samples`` subsample path —
because shard RNGs are derived from ``(plan seed, attack, shard)`` only.
"""

import numpy as np
import pytest

from repro.core import FedProphet, FedProphetConfig
from repro.data import ArrayDataset, make_cifar10_like
from repro.flsim import EvalExecutor, EvalTarget, FLConfig
from repro.attacks import ModelWithLoss, auto_attack_lite
from repro.metrics import AttackSpec, EvalPlan, evaluate_model, shard_rng
from repro.models import build_cnn, build_vgg
from repro.nn import no_param_grads

pytestmark = pytest.mark.evaluation

def _model(seed=1):
    return build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(seed))


def _dataset(n=40):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=n)
    x = np.clip(0.5 + 0.2 * rng.normal(size=(n, 3, 8, 8)), 0, 1)
    return ArrayDataset(x, y)


def _target():
    """A target whose model is synced to ``_model()``'s weights."""
    model = _model(seed=99)  # deliberately different init ...
    model.load_state_dict(_model().state_dict())  # ... erased by the sync
    return EvalTarget(ModelWithLoss(model))


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
        with pytest.raises(ValueError, match="max_samples"):
            EvalPlan(attacks=(AttackSpec.clean(),), max_samples=-1)

    def test_rejects_bad_attacks(self):
        with pytest.raises(ValueError):
            AttackSpec(name="x", kind="quantum")
        with pytest.raises(ValueError):
            AttackSpec(name="pgd", kind="pgd", eps=0.0, steps=5)

    def test_unmeasured_columns_stay_none(self):
        # a clean-less plan must not report a measured 0% clean accuracy
        plan = EvalPlan(attacks=(AttackSpec.pgd(0.05, 2),), batch_size=8)
        result = EvalExecutor().run(plan, _dataset(16), _target())
        assert result.clean_acc is None
        assert result.aa_acc is None
        assert result.pgd_acc is not None
        assert set(result.attack_accs) == {"pgd"}

    def test_empty_evaluation_measures_nothing(self):
        plan = EvalPlan.standard(eps=0.05, pgd_steps=2, max_samples=0)
        result = EvalExecutor().run(plan, _dataset(8), _target())
        assert result.clean_acc is None
        assert result.pgd_acc is None
        assert result.attack_accs == {"clean": None, "pgd": None}

    def test_shard_decomposition_is_a_function_of_plan_and_count(self):
        plan = EvalPlan.standard(eps=0.1, pgd_steps=2, batch_size=8)
        reference = EvalExecutor().shards_for(plan, 20)
        assert len(reference) == 2 * 3  # two attacks x ceil(20 / 8) batches
        assert EvalExecutor().shards_for(plan, 20) == reference

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
# Determinism: run == rerun, bit for bit
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_max_samples_subsample_is_shard_stable(self):
        plan = EvalPlan.standard(
            eps=0.05, pgd_steps=2, max_samples=16, batch_size=4, seed=11
        )
        reference = EvalExecutor().run(plan, _dataset(48), _target())
        result = EvalExecutor().run(plan, _dataset(48), _target())
        _results_equal(reference, result)

    def test_evaluate_model_wrapper_matches_engine(self):
        model = _model()
        res = evaluate_model(
            model, _dataset(), eps=0.05, pgd_steps=2, batch_size=8, seed=13
        )
        plan = EvalPlan.standard(eps=0.05, pgd_steps=2, batch_size=8, seed=13)
        direct = EvalExecutor().run(plan, _dataset(), EvalTarget(ModelWithLoss(model)))
        _results_equal(res, direct)
        assert res.attack_accs == {"clean": res.clean_acc, "pgd": res.pgd_acc}


# ---------------------------------------------------------------------------
# Experiment-level evaluation: cascade_eval, cache reuse
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _prophet(use_cache=True, **overrides):
    defaults = dict(
        num_clients=3, clients_per_round=2, local_iters=2, batch_size=8,
        lr=0.02, rounds=4, train_pgd_steps=2, rounds_per_module=2,
        patience=5, val_samples=20, val_pgd_steps=2, eval_every=0,
        eval_pgd_steps=2, r_min_fraction=0.35, seed=0,
        use_prefix_cache=use_cache,
    )
    defaults.update(overrides)
    return FedProphet(
        _task(),
        lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng),
        FedProphetConfig(**defaults),
    )


class TestExperimentEvaluation:
    @pytest.fixture(scope="class")
    def cached_run(self):
        exp = _prophet()
        history = exp.run()
        return exp, history

    def test_cascade_eval_cache_on_equals_off(self, cached_run):
        """cascade_eval: cache off == cache on, round by round."""
        ref, _ = cached_run
        exp_off = _prophet(use_cache=False)
        exp_off.run()
        for h_ref, h in zip(ref.history, exp_off.history):
            assert h_ref.eval.clean_acc == h.eval.clean_acc
            assert h_ref.eval.pgd_acc == h.eval.pgd_acc

    def test_cascade_eval_fills_and_hits_prefix_cache(self):
        exp = _prophet()
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

    def test_module_zero_has_no_prefix_to_cache(self):
        exp = _prophet()
        exp._enter_stage(0)
        exp.cascade_eval(0)
        assert len(exp.prefix_cache) == 0


class TestEvalConfig:
    def test_eval_engine_shares_the_round_executor(self):
        from repro.baselines import JointFAT

        cfg = FLConfig(num_clients=2, clients_per_round=1, rounds=1)
        exp = JointFAT(
            _task(), lambda rng: build_cnn(2, 10, (3, 8, 8), base_channels=4, rng=rng), cfg
        )
        assert exp.eval_executor.executor is exp.executor


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

    def test_aa_column_bounded_by_clean(self):
        plan = self._plan()  # batch_size 8 < n 40: five aa shards, last one short
        result = EvalExecutor().run(plan, _dataset(), _target())
        assert set(result.attack_accs) == {"clean", "pgd", "aa"}
        assert 0.0 < result.aa_acc <= result.clean_acc

    def test_aa_matches_auto_attack_lite_per_shard(self):
        """The aa column is auto_attack_lite on each shard with the shard's RNG."""
        ds = _dataset(24)
        plan = self._plan()
        result = EvalExecutor().run(plan, ds, _target())
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

    def test_run_is_repeatable_on_one_engine(self):
        """A second run on the same engine and target reduces to the same
        EvalResult as a fresh engine."""
        plan = self._plan()
        reference = EvalExecutor().run(plan, _dataset(), _target())
        engine = EvalExecutor()
        target = _target()
        first = engine.run(plan, _dataset(), target)
        second = engine.run(plan, _dataset(), target)
        _results_equal(reference, first)
        _results_equal(reference, second)
