"""Population engine: lazy O(cohort) client materialisation at any scale.

The load-bearing properties:

* **eager ≡ lazy** — same weights, history, and merge log, fused or
  per item, because every client is a pure function of
  ``(population seed, cid)``;
* **cache size cannot matter** — LRU eviction only drops cache entries,
  never state, so runs at cohort-sized, doubled, and unbounded caches are
  bit-identical, and an evicted-then-retouched client rematerialises
  exactly;
* **O(cohort) everywhere** — cohort sampling, materialised-client count,
  and ``total_samples`` are independent of the population size, so a
  million-client population costs what a hundred-client one does;
* **a cached client is its indices** — the shard is gathered on every
  ``.dataset`` read and held by the reader, never by the population;
* the legacy partition scheme reproduces the pre-engine eager shards and
  sampling stream **bit for bit**.
"""

import gc
import os
import types
import weakref

import numpy as np
import pytest

from repro.baselines import JointFAT
from repro.data import ArrayDataset, VirtualPartition, make_cifar10_like
from repro.data.partition import pathological_partition
from repro.flsim import (
    SMALL_POPULATION_COMPAT,
    ClientPopulation,
    FaultPlan,
    FLClient,
    FLConfig,
    RunJournal,
    ThreatPlan,
    sample_cohort_ids,
)
from repro.hardware import DEVICE_POOL_CIFAR10, DeviceSampler
from repro.models import build_cnn

pytestmark = pytest.mark.population


TASK = make_cifar10_like(image_size=8, train_per_class=20, test_per_class=10, seed=0)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


def _config(**kw):
    base = dict(
        num_clients=6, clients_per_round=4, local_iters=2, batch_size=8,
        lr=0.02, rounds=2, train_pgd_steps=2, eval_pgd_steps=2,
        eval_every=0, seed=0,
    )
    base.update(kw)
    return FLConfig(**base)


def _run(**kw):
    exp = JointFAT(TASK, _builder, _config(**kw))
    exp.run()
    return exp


def _assert_runs_equal(a, b, label=""):
    sa, sb = a.global_model.state_dict(), b.global_model.state_dict()
    assert set(sa) == set(sb)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=f"{label}{k}")
    assert [(r.round, r.sim_time_s) for r in a.history] == [
        (r.round, r.sim_time_s) for r in b.history
    ]
    assert a.async_log == b.async_log


# ---------------------------------------------------------------------------
# O(cohort) cohort sampling
# ---------------------------------------------------------------------------


class TestSampleCohortIds:
    def test_small_population_matches_legacy_choice(self):
        # The compat contract: at or below the threshold the draw is the
        # historical rng.choice call on the very same generator stream.
        for seed in range(5):
            r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_cohort_ids(r1, 100, 10)
            want = r2.choice(100, size=10, replace=False)
            np.testing.assert_array_equal(got, want)
            # and the generators are left in the same state
            assert r1.integers(1 << 30) == r2.integers(1 << 30)

    def test_large_population_draw_is_valid_and_deterministic(self):
        pop = SMALL_POPULATION_COMPAT * 100
        a = sample_cohort_ids(np.random.default_rng(3), pop, 64)
        b = sample_cohort_ids(np.random.default_rng(3), pop, 64)
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 64
        assert a.min() >= 0 and a.max() < pop

    def test_cohort_equals_population(self):
        got = sample_cohort_ids(np.random.default_rng(0), 5, 5)
        assert sorted(got.tolist()) == [0, 1, 2, 3, 4]

    def test_rejects_oversized_cohort(self):
        with pytest.raises(ValueError):
            sample_cohort_ids(np.random.default_rng(0), 4, 5)


# ---------------------------------------------------------------------------
# Virtual shard derivation
# ---------------------------------------------------------------------------


class TestVirtualPartition:
    def test_shards_are_pure_functions_of_the_rng_stream(self):
        part = VirtualPartition(TASK.train.y, samples_per_client=16)
        a = part.shard_for(np.random.default_rng([1, 2, 3]))
        b = part.shard_for(np.random.default_rng([1, 2, 3]))
        np.testing.assert_array_equal(a, b)

    def test_shard_shape_and_bounds(self):
        part = VirtualPartition(TASK.train.y, samples_per_client=16)
        shard = part.shard_for(np.random.default_rng(0))
        assert len(shard) == 16
        assert shard.min() >= 0 and shard.max() < len(TASK.train)
        np.testing.assert_array_equal(shard, np.sort(shard))

    def test_pathological_skew(self):
        # ~80% of samples from ~20% of classes, like the eager partition.
        part = VirtualPartition(TASK.train.y, samples_per_client=100)
        shard = part.shard_for(np.random.default_rng(7))
        counts = np.bincount(TASK.train.y[shard], minlength=10)
        top2 = np.sort(counts)[-2:].sum()
        assert top2 >= 60  # clearly skewed, not uniform (uniform: ~20)

    def test_single_class_dataset(self):
        labels = np.zeros(10, dtype=np.int64)
        part = VirtualPartition(labels, samples_per_client=4)
        shard = part.shard_for(np.random.default_rng(0))
        assert len(shard) == 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            VirtualPartition(TASK.train.y, samples_per_client=0)


# ---------------------------------------------------------------------------
# FLClient: a cached client is its indices, the shard is gathered per use
# ---------------------------------------------------------------------------


def _shards_held(pop):
    """Every ``ArrayDataset`` reachable from ``pop``'s cache but ``pop.train``.

    Walks object references from the LRU's entries; classes and modules
    are not followed (an instance refers to its class, and a class to the
    whole program).
    """
    held, seen, todo = [], set(), [pop._cache]
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if obj is pop.train:
            continue
        if isinstance(obj, ArrayDataset):
            held.append(obj)
        todo.extend(gc.get_referents(obj))
    return held


class TestLazyFLClient:
    def test_every_read_gathers_a_fresh_shard(self):
        c = FLClient(cid=0, indices=np.array([1, 3, 5]), source=TASK.train)
        assert c.num_samples == 3  # no gather needed
        a, b = c.dataset, c.dataset
        assert a is not b
        for ds in (a, b):
            np.testing.assert_array_equal(ds.x, TASK.train.x[[1, 3, 5]])
            np.testing.assert_array_equal(ds.y, TASK.train.y[[1, 3, 5]])

    def test_the_client_retains_nothing_it_gathered(self):
        c = FLClient(cid=0, indices=np.array([1, 3, 5]), source=TASK.train)
        gathered = weakref.ref(c.dataset)
        gc.collect()
        assert gathered() is None  # the reader held the only reference
        assert c._dataset is None

    def test_concrete_dataset_constructor_returns_that_object(self):
        ds = TASK.train.subset([0, 1])
        c = FLClient(cid=3, dataset=ds)
        assert c.dataset is c.dataset is ds and c.num_samples == 2

    def test_rejects_missing_shard_spec(self):
        with pytest.raises(ValueError):
            FLClient(cid=0)

    def test_eager_population_holds_no_shard(self):
        pop = ClientPopulation(TASK.train, num_clients=6, seed=13)
        for i in range(6):
            assert len(pop.client(i).dataset) == pop.client(i).num_samples
        assert _shards_held(pop) == []
        assert pop.total_samples == sum(pop.client(i).num_samples for i in range(6))

    def test_no_shard_is_reachable_from_the_cache_after_a_lazy_run(self):
        cfg = _config(
            num_clients=10_000, clients_per_round=16, rounds=12, local_iters=1,
            train_pgd_steps=1, population_scheme="virtual", samples_per_client=16,
            client_materialisation="lazy", aggregation_mode="async",
            max_staleness=2, pipeline_depth=2,
        )
        with JointFAT(TASK, _builder, cfg) as exp:
            exp.run()
            pop = exp.clients
            assert pop.stats()["live"] >= 64  # 12 rounds of 16 went through it
            assert _shards_held(pop) == []


# ---------------------------------------------------------------------------
# ClientPopulation: schemes, LRU, availability
# ---------------------------------------------------------------------------


class TestClientPopulation:
    def test_partition_scheme_reproduces_legacy_shards(self):
        pop = ClientPopulation(TASK.train, num_clients=6, seed=13)
        legacy = pathological_partition(
            TASK.train.y, 6, rng=np.random.default_rng(13)
        )
        for i, idx in enumerate(legacy):
            np.testing.assert_array_equal(pop.client(i).dataset.y, TASK.train.y[idx])

    def test_auto_scheme_resolution(self):
        small = ClientPopulation(TASK.train, num_clients=6, seed=13)
        big = ClientPopulation(TASK.train, num_clients=10 * len(TASK.train), seed=13)
        assert small.scheme == "partition" and big.scheme == "virtual"

    def test_partition_scheme_refuses_oversized_population(self):
        with pytest.raises(ValueError):
            ClientPopulation(
                TASK.train, num_clients=len(TASK.train) + 1, seed=13,
                scheme="partition",
            )

    def test_partition_scheme_refuses_samples_per_client(self):
        # 10 clients fit 200 samples: auto resolves to partition, whose
        # shards (20 each) the setting could never size.
        for scheme in ("auto", "partition"):
            with pytest.raises(
                ValueError, match="samples_per_client=4 .*'partition'.*population_scheme='virtual'"
            ):
                ClientPopulation(
                    TASK.train, num_clients=10, seed=0, scheme=scheme,
                    samples_per_client=4,
                )
        pop = ClientPopulation(
            TASK.train, num_clients=10, seed=0, scheme="virtual", samples_per_client=4,
        )
        assert pop.client(0).num_samples == 4

    def test_virtual_total_samples_is_analytic(self):
        pop = ClientPopulation(
            TASK.train, num_clients=1_000_000, seed=13, scheme="virtual",
            materialisation="lazy", samples_per_client=32,
        )
        assert pop.total_samples == 32_000_000
        assert pop.stats()["live"] == 0  # nothing materialised yet

    def test_million_client_touch_is_o_cohort(self):
        pop = ClientPopulation(
            TASK.train, num_clients=1_000_000, seed=13, scheme="virtual",
            materialisation="lazy", cohort_size=10,
        )
        ids = pop.sample_ids(np.random.default_rng(0), 10, round_idx=0)
        clients = [pop.client(int(i)) for i in ids]
        stats = pop.stats()
        assert stats["misses"] == 10 and stats["peak_live"] <= pop.cache_capacity
        assert all(c.num_samples == pop.samples_per_client for c in clients)

    def test_lru_eviction_then_retouch_rematerialises_identically(self):
        pop = ClientPopulation(
            TASK.train, num_clients=1000, seed=13, scheme="virtual",
            materialisation="lazy", cache_size=2, samples_per_client=8,
        )
        first = pop.client(7)
        shard = np.array(first.dataset.y, copy=True)
        pop.client(8), pop.client(9)  # capacity 2: evicts cid 7
        assert pop.stats()["evictions"] >= 1
        again = pop.client(7)
        assert again is not first  # a genuinely fresh object...
        np.testing.assert_array_equal(again.dataset.y, shard)  # ...same state

    def test_lru_moves_hits_to_back(self):
        pop = ClientPopulation(
            TASK.train, num_clients=100, seed=13, scheme="virtual",
            materialisation="lazy", cache_size=2, samples_per_client=4,
        )
        a = pop.client(0)
        pop.client(1)
        assert pop.client(0) is a  # hit
        pop.client(2)  # evicts 1, not 0
        assert pop.client(0) is a
        assert pop.stats()["hits"] == 2

    def test_availability_windows_deterministic_and_respected(self):
        pop = ClientPopulation(
            TASK.train, num_clients=64, seed=13,
            availability_fraction=0.5, availability_period=4,
        )
        grid = [[pop.available(r, c) for c in range(64)] for r in range(8)]
        grid2 = [[pop.available(r, c) for c in range(64)] for r in range(8)]
        assert grid == grid2
        # a 0.5 duty cycle over period 4: every client up exactly half the time
        for c in range(64):
            assert sum(grid[r][c] for r in range(4)) == 2
        # windows are phase-shifted, not global outages
        assert any(grid[0]) and not all(grid[0])
        ids = pop.sample_ids(np.random.default_rng(1), 8, round_idx=3)
        assert all(pop.available(3, int(i)) for i in ids)
        assert len(set(ids.tolist())) == 8

    def test_unfillable_cohort_raises(self):
        pop = ClientPopulation(
            TASK.train, num_clients=4, seed=13,
            availability_fraction=0.25, availability_period=4,
        )
        with pytest.raises(RuntimeError):
            # cohort of 4 but only ~1 of 4 clients up per round
            pop.sample_ids(np.random.default_rng(0), 4, round_idx=0)

    def test_sequence_surface(self):
        pop = ClientPopulation(TASK.train, num_clients=6, seed=13)
        assert len(pop) == 6
        assert [c.cid for c in pop] == list(range(6))
        assert pop[3].cid == 3
        with pytest.raises(IndexError):
            pop.client(6)

    @pytest.mark.parametrize("materialisation", ["eager", "lazy"])
    def test_a_numpy_cid_builds_an_int_client(self, materialisation):
        # FedProphet's perturbation probe indexes the population with the
        # np.int64 ids of rng.choice: a lazy miss must not carry that type
        # into the client, and from there into the merge log.
        pop = ClientPopulation(
            TASK.train, num_clients=6, seed=13, materialisation=materialisation
        )
        client = pop[np.int64(3)]
        assert type(client.cid) is int
        assert pop.client(3) is client
        with pytest.raises(TypeError):
            pop.client(3.0)


# ---------------------------------------------------------------------------
# Per-client device streams
# ---------------------------------------------------------------------------


class TestDeviceStreams:
    def test_profile_is_persistent_identity(self):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10, "unbalanced")
        a = [sampler.profile_for(13, cid) for cid in range(50)]
        b = [sampler.profile_for(13, cid) for cid in range(50)]
        assert a == b
        assert len({d.name for d in a}) > 1  # not everyone gets one device

    def test_state_varies_by_round_on_a_fixed_device(self):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10)
        s0 = sampler.state_for(13, 0, 42)
        s1 = sampler.state_for(13, 1, 42)
        assert s0.device == s1.device == sampler.profile_for(13, 42)
        assert s0.avail_perf_flops != s1.avail_perf_flops
        assert sampler.state_for(13, 0, 42) == s0


# ---------------------------------------------------------------------------
# End-to-end bit-identity: eager ≡ lazy across fusion widths, cache sizes
# ---------------------------------------------------------------------------


class TestEagerLazyBitIdentity:
    # A round's four clients: one cohort, four singletons, 2 + 2, 3 + 1.
    @pytest.mark.parametrize(
        "width", [None, 1, 2, 3], ids=["fused", "per_item", "w2", "w3"]
    )
    def test_across_fusion_widths(self, width):
        eager = _run(fusion_width=width)
        lazy = _run(fusion_width=width, client_materialisation="lazy")
        _assert_runs_equal(eager, lazy, label=f"width {width}: ")

    def test_cache_size_cannot_matter(self):
        runs = [
            _run(client_materialisation="lazy", client_cache_size=size)
            for size in (4, 8, None)  # cohort, 2x cohort, default cap
        ]
        _assert_runs_equal(runs[0], runs[1], label="cache 4 vs 8: ")
        _assert_runs_equal(runs[0], runs[2], label="cache 4 vs default: ")
        stats = runs[0].clients.stats()
        assert stats["peak_live"] <= 4

    def test_virtual_scheme_eager_equals_lazy(self):
        kw = dict(population_scheme="virtual", samples_per_client=16)
        _assert_runs_equal(
            _run(**kw), _run(client_materialisation="lazy", **kw),
            label="virtual: ",
        )

    def test_lazy_composes_with_fault_and_threat_plans(self):
        kw = dict(
            fault_plan=FaultPlan(seed=3, dropout_prob=0.3),
            threat_plan=ThreatPlan(seed=4, byzantine_prob=0.4, attack="label_flip"),
            aggregation_rule="median",
        )
        _assert_runs_equal(
            _run(**kw), _run(client_materialisation="lazy", **kw),
            label="faults+threats: ",
        )

    def test_lazy_composes_with_depth2_async_pipeline(self):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10)

        def run(**kw):
            cfg = _config(
                rounds=3, aggregation_mode="async", max_staleness=2,
                pipeline_depth=2, **kw,
            )
            exp = JointFAT(TASK, _builder, cfg, device_sampler=sampler)
            exp.run()
            return exp

        _assert_runs_equal(
            run(), run(client_materialisation="lazy", client_cache_size=4),
            label="depth-2 async: ",
        )

    def test_lazy_virtual_with_availability_is_deterministic(self):
        kw = dict(
            population_scheme="virtual", samples_per_client=16,
            client_materialisation="lazy", num_clients=500,
            availability_fraction=0.5, availability_period=4,
        )
        _assert_runs_equal(_run(**kw), _run(**kw), label="availability: ")

    def test_checkpoint_resume_lazy_bit_identical(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        kw = dict(
            client_materialisation="lazy", rounds=4,
            journal_path=journal, checkpoint_every=2,
        )
        full = _run(**{**kw, "journal_path": str(tmp_path / "full.jsonl")})
        # Simulate a crash after round 2: run 2 rounds, then resume to 4.
        part = JointFAT(TASK, _builder, _config(**kw))
        part.run(rounds=2)
        part.close()
        resumed = JointFAT(TASK, _builder, _config(**kw))
        resumed.resume(journal, rounds=4)
        _assert_runs_equal(full, resumed, label="resume: ")


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_describe_parallelism_reports_population(self):
        exp = JointFAT(TASK, _builder, _config(client_materialisation="lazy"))
        text = exp.describe_parallelism()
        assert "population: 6 clients" in text
        assert "lazy" in text and "cache cap" in text

    def test_journal_records_population_metadata(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        _run(journal_path=journal, client_materialisation="lazy")
        events = RunJournal.read(journal)
        start = events[0]
        assert start["kind"] == "run_start"
        assert start["population"] == 6 and start["cohort"] == 4
        assert start["scheme"] == "partition"
        assert start["materialisation"] == "lazy"
        assert start["cache_capacity"] >= 4
        samples = [e for e in events if e["kind"] == "sample"]
        assert samples and all(e["population"] == 6 for e in samples)
        assert all(
            set(e["cache"]) >= {"hits", "misses", "evictions", "live", "peak_live"}
            for e in samples
        )

    def test_materialisation_and_cache_are_nonsemantic_for_resume(self):
        from repro.flsim import config_fingerprint

        a = config_fingerprint(_config(), "jfat")
        b = config_fingerprint(
            _config(client_materialisation="lazy", client_cache_size=7), "jfat"
        )
        c = config_fingerprint(_config(population_scheme="virtual"), "jfat")
        assert a == b  # pure caching: resume may switch freely
        assert a != c  # shards differ: scheme is semantic


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_rejects_bad_population_fields(self):
        with pytest.raises(ValueError):
            _config(population_scheme="magic")
        with pytest.raises(ValueError):
            _config(client_materialisation="psychic")
        with pytest.raises(ValueError):
            _config(client_cache_size=0)
        with pytest.raises(ValueError):
            _config(samples_per_client=0)
        with pytest.raises(ValueError):
            _config(availability_fraction=0.0)
        with pytest.raises(ValueError):
            _config(availability_fraction=1.5)
        with pytest.raises(ValueError):
            _config(availability_period=0)
