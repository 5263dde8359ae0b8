"""Round execution engine: the barrier group view and stage-scoped caching.

The load-bearing property: the version-keyed prefix cache is
bit-identical to running with the cache off while serving cross-round
hits.  Engine determinism against recorded runs lives in the digest
suites (``test_sync_round_digests.py``, ``test_prophet_engine_digests.py``).
"""

import numpy as np
import pytest

from repro.core import FedProphet, FedProphetConfig
from repro.data import make_cifar10_like
from repro.attacks import ModelWithLoss
from repro.flsim import EvalExecutor, EvalTarget, FLConfig, RoundExecutor
from repro.flsim import executor as executor_module
from repro.metrics.evaluation import EvalPlan
from repro.models import build_vgg

pytestmark = pytest.mark.round_engine


def _assert_states_equal(a, b, label=""):
    assert set(a) == set(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=f"{label}{k}")


# ---------------------------------------------------------------------------
# RoundExecutor unit behaviour
# ---------------------------------------------------------------------------


class TestRoundExecutor:
    def test_run_group_preserves_input_order(self):
        items = list(range(11))
        assert RoundExecutor().run_group(lambda i: i * i, items) == [i * i for i in items]

    def test_run_group_empty(self):
        assert RoundExecutor().run_group(lambda i: i, []) == []

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_eval_shards_run_one_per_cohort(self, width, monkeypatch):
        # An EvalPlan's shards are plain work units: never fused, at any width.
        widths = []
        run_cohort = executor_module._run_cohort

        def recording(work, items, idxs):
            widths.append(len(idxs))
            return run_cohort(work, items, idxs)

        monkeypatch.setattr(executor_module, "_run_cohort", recording)
        monkeypatch.setattr(executor_module, "spare_cores", lambda: 0)
        task = _task()
        model = build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=np.random.default_rng(0))
        target = EvalTarget(ModelWithLoss(model))
        plan = EvalPlan.standard(eps=0.03, pgd_steps=2, batch_size=8, max_samples=24)
        result = EvalExecutor(RoundExecutor(fusion_width=width)).run(plan, task.test, target)
        assert widths == [1] * 6  # (clean, pgd) x 3 batches
        assert result == EvalExecutor(RoundExecutor(fusion_width=1)).run(
            plan, task.test, target
        )

    def test_exceptions_propagate(self):
        def boom(i):
            if i == 3:
                raise RuntimeError("work unit failed")
            return i

        with pytest.raises(RuntimeError, match="work unit failed"):
            RoundExecutor().run_group(boom, range(5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RoundExecutor(fusion_width=0)
        with pytest.raises(ValueError):
            FLConfig(fusion_width=0)


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)


# ---------------------------------------------------------------------------
# Stage-scoped (version-keyed) prefix cache
# ---------------------------------------------------------------------------


def _stage_prophet(use_cache):
    """An experiment pinned at module 1 where every client is sampled every
    round and one batch covers a client's whole shard — so after round 0
    the cache must serve every prefix forward of rounds 1+."""
    cfg = FedProphetConfig(
        num_clients=2, clients_per_round=2, local_iters=3, batch_size=128,
        lr=0.05, rounds=4, train_pgd_steps=2, eval_pgd_steps=2, eval_every=0,
        seed=0, rounds_per_module=4, patience=4, r_min_fraction=0.35,
        val_samples=16, val_pgd_steps=2, use_prefix_cache=use_cache,
    )
    exp = FedProphet(
        _task(),
        lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng),
        cfg,
    )
    exp.current_module = 1
    exp.eps_feature = 0.5
    return exp


class TestStageScopedCache:
    def _run_rounds(self, exp, rounds=3):
        # Training only: the per-round cascade_eval would read the cache too
        # (its validation prefix), and without an eval the stage stays pinned.
        exp.round_eval = lambda record, server=None: {}
        exp.run(rounds=rounds)
        return exp

    def test_cross_round_hits_with_zero_recompute(self):
        exp = self._run_rounds(_stage_prophet(True))
        stats = exp.prefix_cache.stats()
        # one bump on stage entry, none across the stage's rounds
        assert stats["invalidations"] == 1
        assert stats["version"] == 1
        # round 0 fills each client's entry; rounds 1-2 are pure hits:
        # 2 clients x 3 iterations x 2 rounds of full-shard batches
        assert stats["hits"] > 0
        shard = sum(len(c.dataset) for c in exp.clients)
        assert stats["misses"] == shard  # every sample forwarded exactly once
        assert stats["hits"] >= stats["misses"]

    def test_version_keyed_cache_bit_identical_to_off(self):
        exp_on = self._run_rounds(_stage_prophet(True))
        exp_off = self._run_rounds(_stage_prophet(False))
        assert exp_off.prefix_cache is None
        _assert_states_equal(
            exp_on.global_model.state_dict(), exp_off.global_model.state_dict()
        )
        for h_on, h_off in zip(exp_on.heads, exp_off.heads):
            if h_on is not None:
                _assert_states_equal(h_on.state_dict(), h_off.state_dict(), "head ")

    def test_stage_advance_bumps_version(self):
        exp = _stage_prophet(True)
        self._run_rounds(exp, rounds=2)
        assert exp.prefix_cache.version == 1
        exp.current_module = 2  # stage advances: the prefix grew
        exp.run(rounds=1)
        assert exp.prefix_cache.version == 2


class TestPrefixCacheVersioning:
    def test_fetch_resets_entry_from_older_version(self):
        from repro.core.prefix_cache import PrefixCache

        cache = PrefixCache()
        x = np.ones((2, 2), dtype=np.float32)
        cache.fetch("k", np.array([0, 1]), x, lambda b: b * 2, 2)
        entry = cache._entries["k"]
        entry.version -= 1  # simulate a stale survivor
        calls = []

        def fwd(b):
            calls.append(len(b))
            return b * 3

        out = cache.fetch("k", np.array([0, 1]), x, fwd, 2)
        assert calls == [2]
        np.testing.assert_array_equal(out, x * 3)
