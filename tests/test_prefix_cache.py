"""Frozen-prefix activation cache: correctness and bookkeeping.

The load-bearing property: cascade training with the cache enabled is
*bit-identical* to training without it — the cache is a pure
execution-engine optimisation, never an approximation.
"""

import numpy as np
import pytest

from repro.core import FedProphet, FedProphetConfig, PrefixCache
from repro.core.cascade import CascadeBatchSpec, cascade_local_train
from repro.data import make_cifar10_like
from repro.data.dataset import ArrayDataset, DataLoader
from repro.models import build_cnn, build_vgg

pytestmark = pytest.mark.round_engine


class TestPrefixCacheUnit:
    def test_miss_then_hit(self):
        cache = PrefixCache()
        calls = []

        def fwd(xb):
            calls.append(len(xb))
            return xb * 2.0

        x = np.arange(12, dtype=np.float32).reshape(6, 2)
        out1 = cache.fetch("k", np.array([0, 2, 4]), x[[0, 2, 4]], fwd, 6)
        np.testing.assert_array_equal(out1, x[[0, 2, 4]] * 2.0)
        assert calls == [3]
        # same rows again: served from the store, no recompute
        out2 = cache.fetch("k", np.array([4, 0]), x[[4, 0]], fwd, 6)
        np.testing.assert_array_equal(out2, x[[4, 0]] * 2.0)
        assert calls == [3]
        assert cache.stats()["hits"] == 2

    def test_partial_miss_computes_only_missing(self):
        cache = PrefixCache()
        seen = []

        def fwd(xb):
            seen.append(xb.copy())
            return xb + 1.0

        x = np.arange(8, dtype=np.float32).reshape(4, 2)
        cache.fetch("k", np.array([0, 1]), x[[0, 1]], fwd, 4)
        cache.fetch("k", np.array([1, 2]), x[[1, 2]], fwd, 4)
        # second call recomputed only row 2
        np.testing.assert_array_equal(seen[1], x[[2]])

    def test_keys_are_isolated(self):
        cache = PrefixCache()
        x = np.ones((2, 2), dtype=np.float32)
        cache.fetch(("a", 1), np.array([0]), x[:1], lambda b: b * 2, 2)
        out = cache.fetch(("b", 1), np.array([0]), x[:1], lambda b: b * 3, 2)
        np.testing.assert_array_equal(out, x[:1] * 3)

    def test_invalidate_clears(self):
        cache = PrefixCache()
        calls = []

        def fwd(xb):
            calls.append(1)
            return xb

        x = np.ones((2, 2), dtype=np.float32)
        cache.fetch("k", np.array([0]), x[:1], fwd, 2)
        cache.invalidate()
        assert len(cache) == 0
        cache.fetch("k", np.array([0]), x[:1], fwd, 2)
        assert len(calls) == 2
        assert cache.stats()["invalidations"] == 1

    def test_eviction_respects_max_bytes(self):
        entry_bytes = 4 * 4 * 4  # 4 samples x 4 features x float32
        cache = PrefixCache(max_bytes=2 * entry_bytes)
        x = np.ones((4, 4), dtype=np.float32)
        idx = np.arange(4)
        for key in range(3):
            cache.fetch(key, idx, x, lambda b: b, 4)
        assert len(cache) == 2
        assert cache.nbytes() <= 2 * entry_bytes

    def test_oversized_entry_bypasses_cache_without_evicting_others(self):
        small_entry = 4 * 4 * 4  # 4 samples x 4 float32 features
        cache = PrefixCache(max_bytes=2 * small_entry)
        x_small = np.ones((4, 4), dtype=np.float32)
        cache.fetch("small", np.arange(4), x_small, lambda b: b, 4)
        # 100 samples x 4 features -> 1600 bytes > max_bytes: uncacheable
        x_big = np.full((5, 4), 3.0, dtype=np.float32)
        out = cache.fetch("big", np.arange(5), x_big, lambda b: b * 2, 100)
        np.testing.assert_array_equal(out, x_big * 2)
        assert "big" not in cache._entries
        # the small client's entry survived
        assert "small" in cache._entries
        again = cache.fetch("small", np.arange(4), x_small, lambda b: b, 4)
        np.testing.assert_array_equal(again, x_small)
        assert cache.stats()["hits"] == 4

    def test_returned_array_does_not_alias_store(self):
        cache = PrefixCache()
        x = np.ones((2, 2), dtype=np.float32)
        out = cache.fetch("k", np.array([0, 1]), x, lambda b: b * 2, 2)
        out[...] = -1.0
        again = cache.fetch("k", np.array([0, 1]), x, lambda b: b * 2, 2)
        np.testing.assert_array_equal(again, x * 2)


def _loader_rng():
    return np.random.default_rng(123)


class TestCascadeBitIdentity:
    def _train(self, cache):
        rng = np.random.default_rng(0)
        model = build_cnn(3, 4, (3, 8, 8), base_channels=4, rng=rng)
        data_rng = np.random.default_rng(1)
        x = data_rng.uniform(0, 1, size=(40, 3, 8, 8)).astype(np.float32)
        y = data_rng.integers(0, 4, size=40)
        spec = CascadeBatchSpec(start_atom=1, stop_atom=len(model.atoms), head=None)
        loss = cascade_local_train(
            model,
            spec,
            ArrayDataset(x, y),
            iterations=6,
            batch_size=16,
            lr=0.05,
            mu=1e-5,
            eps0=8 / 255,
            eps_feature=0.4,
            attack_steps=3,
            rng=_loader_rng(),
            prefix_cache=cache,
            cache_key=0,
        )
        return loss, model.state_dict()

    def test_local_training_bit_identical(self):
        cache = PrefixCache()
        loss_c, state_c = self._train(cache)
        loss_n, state_n = self._train(None)
        assert loss_c == loss_n
        for k in state_n:
            np.testing.assert_array_equal(state_c[k], state_n[k], err_msg=k)
        # multiple local epochs over 40 samples -> the cache must have hits
        assert cache.stats()["hits"] > 0


class TestFedProphetBitIdentity:
    def _run(self, use_cache):
        task = make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)
        cfg = FedProphetConfig(
            num_clients=4, clients_per_round=2, local_iters=6, batch_size=16,
            lr=0.05, rounds=3, train_pgd_steps=2, eval_pgd_steps=2, eval_every=0,
            seed=0, rounds_per_module=1, patience=1, r_min_fraction=0.35,
            val_samples=20, val_pgd_steps=2, use_prefix_cache=use_cache,
        )
        exp = FedProphet(
            task,
            lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng),
            cfg,
        )
        history = exp.run(rounds=3)
        return exp, history

    def test_three_rounds_bit_identical(self):
        """Cache on vs off: identical losses, metrics, and parameters."""
        exp_c, hist_c = self._run(True)
        exp_n, hist_n = self._run(False)
        assert len(hist_c) == len(hist_n) == 3
        for a, b in zip(hist_c, hist_n):
            assert a.eval.clean_acc == b.eval.clean_acc
            assert a.eval.pgd_acc == b.eval.pgd_acc
        state_c = exp_c.global_model.state_dict()
        state_n = exp_n.global_model.state_dict()
        for k in state_n:
            np.testing.assert_array_equal(state_c[k], state_n[k], err_msg=k)
        for hc, hn in zip(exp_c.heads, exp_n.heads):
            if hn is None:
                continue
            sc, sn = hc.state_dict(), hn.state_dict()
            for k in sn:
                np.testing.assert_array_equal(sc[k], sn[k], err_msg=k)
        # rounds 2 and 3 train module >= 1: the frozen prefix was cached
        assert exp_c.prefix_cache.stats()["hits"] > 0
        # version-keyed invalidation: one bump per module stage entered,
        # never per round (each of the 3 rounds opened a new stage here)
        assert exp_c.prefix_cache.stats()["invalidations"] == len(exp_c.stage_results)
        assert exp_n.prefix_cache is None
