"""Round execution engine: backend determinism and stage-scoped caching.

The load-bearing property: a round run with the ``serial`` and ``thread``
backends produces **bit-identical** global state and
history (aggregation order is fixed by the client list, per-client RNGs
are counter-derived), and the version-keyed prefix cache is bit-identical
to running with the cache off while serving cross-round hits.
"""

import numpy as np
import pytest

from repro.baselines import FedRBN, HeteroFLAT, JointFAT
from repro.core import FedProphet, FedProphetConfig
from repro.data import make_cifar10_like
from repro.flsim import FLConfig, RoundExecutor
from repro.hardware import DEVICE_POOL_CIFAR10, DeviceSampler
from repro.models import build_cnn, build_vgg
from repro.nn import DualBatchNorm2d

BACKENDS = ["serial", "thread"]
# The thread backend at one worker is not pooled: it maps inline.
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
# RoundExecutor unit behaviour
# ---------------------------------------------------------------------------


class TestRoundExecutor:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            RoundExecutor("gpu")

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            RoundExecutor("thread", max_workers=0)

    @pytest.mark.parametrize("backend", ENGINES)
    def test_map_preserves_input_order(self, backend):
        ex = _executor(backend, 3)
        items = list(range(11))
        assert ex.map(lambda i, slot: i * i, items) == [i * i for i in items]

    def test_map_empty(self):
        assert RoundExecutor("thread").map(lambda i, s: i, []) == []

    def test_serial_always_slot_zero(self):
        slots = RoundExecutor("serial").map(lambda i, slot: slot, range(5))
        assert slots == [0] * 5

    def test_thread_slots_stripe_deterministically(self):
        ex = RoundExecutor("thread", max_workers=2)
        slots = ex.map(lambda i, slot: slot, range(5))
        # item i runs on slot i % workers, regardless of scheduling
        assert slots == [0, 1, 0, 1, 0]
        assert ex.slots_for(5) == [0, 1]
        assert ex.slots_for(1) == [0]

    def test_workers_clamped_to_items(self):
        ex = RoundExecutor("thread", max_workers=8)
        assert ex.workers_for(3) == 3

    @pytest.mark.parametrize("backend", ENGINES)
    def test_exceptions_propagate(self, backend):
        ex = _executor(backend, 2)

        def boom(i, slot):
            if i == 3:
                raise RuntimeError("work unit failed")
            return i

        with pytest.raises(RuntimeError, match="work unit failed"):
            ex.map(boom, range(5))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FLConfig(executor_backend="cluster")
        with pytest.raises(ValueError):
            FLConfig(round_parallelism=0)


# ---------------------------------------------------------------------------
# Backend determinism: parallel == serial, bit for bit
# ---------------------------------------------------------------------------


def _task():
    return make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5, seed=0)


def _prophet(backend, **overrides):
    defaults = dict(
        num_clients=4, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=4, train_pgd_steps=2, rounds_per_module=2,
        patience=5, val_samples=16, val_pgd_steps=2, eval_every=0,
        eval_pgd_steps=2, r_min_fraction=0.4, seed=0,
        executor_backend=backend, round_parallelism=2,
    )
    defaults.update(overrides)
    cfg = FedProphetConfig(**defaults)
    return FedProphet(
        _task(),
        lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng),
        cfg,
    )


class TestFedProphetBackendDeterminism:
    @pytest.fixture(scope="class")
    def serial_run(self):
        exp = _prophet("serial")
        history = exp.run()
        return exp, history

    # "thread3": one slot per sampled client, each synced to the prefix
    @pytest.mark.parametrize("backend", ["thread", "thread3"])
    def test_bit_identical_to_serial(self, backend, serial_run):
        ref, ref_history = serial_run
        if backend == "thread3":
            exp = _prophet("thread", round_parallelism=3)
        else:
            exp = _prophet(backend)
        history = exp.run()
        # the 4-round run crosses a stage boundary (rounds_per_module=2),
        # so prefix syncing and cache versioning are both exercised
        assert len({e.module for e in exp.pert_log}) >= 2
        _assert_states_equal(
            ref.global_model.state_dict(), exp.global_model.state_dict()
        )
        for h_ref, h in zip(ref.heads, exp.heads):
            if h_ref is not None:
                _assert_states_equal(h_ref.state_dict(), h.state_dict(), "head ")
        assert len(history) == len(ref_history)
        for a, b in zip(ref_history, history):
            assert a.eval.clean_acc == b.eval.clean_acc
            assert a.eval.pgd_acc == b.eval.pgd_acc
            assert a.sim_time_s == b.sim_time_s


class TestBaselineBackendDeterminism:
    """jFAT / FedRBN / partial-training rounds are backend-invariant too."""

    def _cfg(self, backend, **overrides):
        defaults = dict(
            num_clients=4, clients_per_round=3, local_iters=2, batch_size=8,
            lr=0.02, rounds=2, train_pgd_steps=2, eval_every=0,
            eval_pgd_steps=2, seed=0,
            executor_backend=backend, round_parallelism=2,
        )
        defaults.update(overrides)
        return FLConfig(**defaults)

    def _run(self, cls, builder, backend):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10, "balanced")
        exp = cls(_task(), builder, self._cfg(backend), device_sampler=sampler)
        exp.run()
        return exp.global_model.state_dict()

    @pytest.mark.parametrize(
        "cls,builder",
        [
            (JointFAT, lambda rng: build_vgg("vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng)),
            (
                FedRBN,
                lambda rng: build_vgg(
                    "vgg11", 10, (3, 8, 8), width_mult=0.25, rng=rng,
                    bn_cls=DualBatchNorm2d,
                ),
            ),
            (HeteroFLAT, lambda rng: build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)),
        ],
        ids=["jfat", "fedrbn", "heterofl"],
    )
    def test_thread_matches_serial(self, cls, builder):
        _assert_states_equal(
            self._run(cls, builder, "serial"), self._run(cls, builder, "thread")
        )


# ---------------------------------------------------------------------------
# Stage-scoped (version-keyed) prefix cache
# ---------------------------------------------------------------------------


def _stage_prophet(use_cache, backend="serial"):
    """An experiment pinned at module 1 where every client is sampled every
    round and one batch covers a client's whole shard — so after round 0
    the cache must serve every prefix forward of rounds 1+."""
    cfg = FedProphetConfig(
        num_clients=2, clients_per_round=2, local_iters=3, batch_size=128,
        lr=0.05, rounds=4, train_pgd_steps=2, eval_pgd_steps=2, eval_every=0,
        seed=0, rounds_per_module=4, patience=4, r_min_fraction=0.35,
        val_samples=16, val_pgd_steps=2, use_prefix_cache=use_cache,
        executor_backend=backend, round_parallelism=2,
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
        for t in range(rounds):
            clients, states = exp.sample_round(t)
            exp.run_round(t, clients, states)
        return exp

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cross_round_hits_with_zero_recompute(self, backend):
        exp = self._run_rounds(_stage_prophet(True, backend))
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
        clients, states = exp.sample_round(2)
        exp.run_round(2, clients, states)
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
