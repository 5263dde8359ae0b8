"""Tests for the hardware substrate: profiler, memory, FLOPs, devices, latency."""

import numpy as np
import pytest

from repro.hardware import (
    DEVICE_POOL_CALTECH256,
    DEVICE_POOL_CIFAR10,
    Device,
    DeviceSampler,
    DeviceState,
    LatencyModel,
    MemoryModel,
    device_pool,
    forward_flops,
    mem_req_bytes,
    profile_module,
    training_flops_per_iteration,
)
from repro.hardware.latency import LocalTrainingCost
from repro.models import build_cnn, build_model, build_vgg
from repro.nn import BatchNorm2d, Conv2d, Linear, MaxPool2d, ReLU, Sequential

RNG = np.random.default_rng(0)


class TestProfiler:
    def test_conv_profile(self):
        prof = profile_module(Conv2d(3, 8, 3, padding=1), (3, 16, 16))
        assert prof.out_shape == (8, 16, 16)
        assert prof.params == 8 * 3 * 9 + 8
        assert prof.flops == 2 * 8 * 16 * 16 * 3 * 9 + 8 * 16 * 16

    def test_linear_profile(self):
        prof = profile_module(Linear(64, 10), (64,))
        assert prof.params == 650
        assert prof.flops == 2 * 640 + 10
        assert prof.out_shape == (10,)

    def test_out_shapes_match_actual_forward(self):
        """The symbolic shape walker must agree with real execution."""
        for name, shape, wm in [
            ("vgg11", (3, 32, 32), 0.25),
            ("resnet10", (3, 32, 32), 0.25),
            ("cnn3", (3, 16, 16), 1.0),
        ]:
            model = build_model(name, 10, shape, width_mult=wm, rng=RNG)
            prof = profile_module(model, shape)
            model.eval()
            out = model(np.zeros((1,) + shape))
            assert prof.out_shape == tuple(out.shape[1:])

    def test_param_count_matches_model(self):
        model = build_vgg("vgg11", 10, (3, 32, 32), width_mult=0.25, rng=RNG)
        prof = profile_module(model, (3, 32, 32))
        assert prof.params == model.num_parameters()

    def test_maxpool_shape(self):
        prof = profile_module(MaxPool2d(2), (4, 8, 8))
        assert prof.out_shape == (4, 4, 4)
        assert prof.params == 0

    def test_unsupported_module_raises(self):
        class Weird:
            pass

        with pytest.raises(TypeError):
            profile_module(Weird(), (3, 8, 8))

    def test_sequential_adds_up(self):
        a, b = Conv2d(3, 4, 3, padding=1), Conv2d(4, 5, 3, padding=1)
        seq = Sequential(a, b)
        pa = profile_module(a, (3, 8, 8))
        pb = profile_module(b, (4, 8, 8))
        ps = profile_module(seq, (3, 8, 8))
        assert ps.params == pa.params + pb.params
        assert ps.flops == pa.flops + pb.flops


class TestMemoryModel:
    def test_vgg16_matches_paper_within_10pct(self):
        """Paper: VGG16 on CIFAR-10 requires ~302 MB with B=64."""
        m = build_vgg("vgg16", 10, (3, 32, 32))  # profiled only: no generator, nothing drawn
        mb = mem_req_bytes(m, (3, 32, 32), batch_size=64) / 2**20
        assert abs(mb - 302) / 302 < 0.10

    def test_resnet34_matches_paper_within_10pct(self):
        """Paper: ResNet34 on Caltech-256 requires ~1130 MB with B=32."""
        m = build_model("resnet34", 256, (3, 224, 224))
        mb = mem_req_bytes(m, (3, 224, 224), batch_size=32) / 2**20
        assert abs(mb - 1130) / 1130 < 0.10

    def test_batch_size_scales_activations_only(self):
        m = build_cnn(2, 10, (3, 16, 16), rng=RNG)
        b1 = mem_req_bytes(m, (3, 16, 16), batch_size=1)
        b2 = mem_req_bytes(m, (3, 16, 16), batch_size=2)
        b3 = mem_req_bytes(m, (3, 16, 16), batch_size=3)
        assert b2 - b1 == b3 - b2  # linear in batch size
        assert b2 > b1

    def test_adversarial_double_batch_costs_more(self):
        m = build_cnn(2, 10, (3, 16, 16), rng=RNG)
        base = mem_req_bytes(m, (3, 16, 16), batch_size=8)
        double = mem_req_bytes(m, (3, 16, 16), batch_size=8, adversarial_double_batch=True)
        assert double > base

    def test_optimizer_state_factor(self):
        m = build_cnn(2, 10, (3, 16, 16), rng=RNG)
        sgd = mem_req_bytes(m, (3, 16, 16), batch_size=8, optimizer_state_factor=0)
        momentum = mem_req_bytes(m, (3, 16, 16), batch_size=8, optimizer_state_factor=1)
        assert momentum - sgd == 4 * m.num_parameters()


class TestFlops:
    def test_pgd_multiplies_propagations(self):
        m = build_cnn(2, 10, (3, 16, 16), rng=RNG)
        st = training_flops_per_iteration(m, (3, 16, 16), 8, pgd_steps=0)
        at = training_flops_per_iteration(m, (3, 16, 16), 8, pgd_steps=10)
        assert at == pytest.approx(11 * st)

    def test_negative_pgd_steps_rejected(self):
        m = build_cnn(2, 10, (3, 16, 16), rng=RNG)
        with pytest.raises(ValueError):
            training_flops_per_iteration(m, (3, 16, 16), 8, pgd_steps=-1)

    def test_forward_flops_positive(self):
        m = build_cnn(2, 10, (3, 16, 16), rng=RNG)
        assert forward_flops(m, (3, 16, 16)) > 0


class TestDevices:
    def test_pools_match_paper_tables(self):
        assert len(DEVICE_POOL_CIFAR10) == 10
        assert len(DEVICE_POOL_CALTECH256) == 10
        names = [d.name for d in DEVICE_POOL_CIFAR10]
        assert "TX2" in names and "GTX 1650m" in names

    def test_device_pool_lookup(self):
        assert device_pool("cifar10") == DEVICE_POOL_CIFAR10
        assert device_pool("caltech-256") == DEVICE_POOL_CALTECH256
        with pytest.raises(ValueError):
            device_pool("mnist")

    def test_unit_conversions(self):
        d = Device("x", 2.0, 4, 8)
        assert d.perf_flops == 2e12
        assert d.mem_bytes == 4 * 1024**3
        assert d.io_bytes_per_s == 8 * 1024**3

    def test_degrading_factors_within_range(self):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10, "balanced")
        rng = np.random.default_rng(0)
        for _ in range(100):
            s = sampler.sample(rng)
            assert s.avail_mem_bytes <= 0.2 * s.device.mem_bytes + 1
            assert s.avail_perf_flops <= s.device.perf_flops + 1

    def test_unbalanced_prefers_weak_devices(self):
        rng = np.random.default_rng(1)
        bal = DeviceSampler(DEVICE_POOL_CIFAR10, "balanced")
        unbal = DeviceSampler(DEVICE_POOL_CIFAR10, "unbalanced")
        bal_perf = np.mean([bal.sample(rng).device.perf_tflops for _ in range(300)])
        unbal_perf = np.mean([unbal.sample(rng).device.perf_tflops for _ in range(300)])
        assert unbal_perf < bal_perf

    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            DeviceSampler([], "balanced")
        with pytest.raises(ValueError):
            DeviceSampler(DEVICE_POOL_CIFAR10, "chaotic")


class TestLatency:
    def _state(self, mem_gb=1.0, perf_tflops=1.0, io_gbps=1.0):
        d = Device("t", perf_tflops, mem_gb * 5, io_gbps)
        return DeviceState(d, avail_mem_bytes=mem_gb * 1024**3, avail_perf_flops=perf_tflops * 1e12)

    def test_no_swap_when_memory_sufficient(self):
        lm = LatencyModel()
        cost = lm.local_training_cost(
            self._state(mem_gb=2.0), training_flops=1e12, mem_req_bytes=1024**3,
            iterations=10, pgd_steps=10,
        )
        assert cost.access_s == 0.0
        assert cost.compute_s == pytest.approx(10.0)

    def test_swap_traffic_scales_with_passes(self):
        lm = LatencyModel(swap_overhead=1.0)
        t1 = lm.swap_traffic_bytes(2e9, 1e9, passes=1)
        t4 = lm.swap_traffic_bytes(2e9, 1e9, passes=4)
        assert t4 == pytest.approx(4 * t1)
        assert t1 == pytest.approx(2 * 1e9)

    def test_pgd_steps_amplify_access_time(self):
        lm = LatencyModel()
        st = lm.local_training_cost(
            self._state(mem_gb=0.1), 1e12, 1024**3, iterations=5, pgd_steps=0
        )
        at = lm.local_training_cost(
            self._state(mem_gb=0.1), 1e12, 1024**3, iterations=5, pgd_steps=10
        )
        assert at.access_s == pytest.approx(11 * st.access_s)

    def test_cost_addition(self):
        c = LocalTrainingCost(1.0, 2.0) + LocalTrainingCost(0.5, 0.5)
        assert c.compute_s == 1.5 and c.access_s == 2.5 and c.total_s == 4.0

    def test_swap_overhead_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(swap_overhead=0.5)

    def test_negative_iterations_rejected(self):
        lm = LatencyModel()
        with pytest.raises(ValueError):
            lm.local_training_cost(self._state(), 1e9, 1e9, iterations=-1, pgd_steps=0)


class TestDeviceStreams:
    """Counter-derived per-client streams: pure, persistent, disjoint."""

    @staticmethod
    def _sampler():
        return DeviceSampler(DEVICE_POOL_CIFAR10, "unbalanced")

    def test_profile_for_is_pure(self):
        a, b = self._sampler(), self._sampler()
        for cid in range(8):
            assert a.profile_for(0, cid) == b.profile_for(0, cid)
            assert a.profile_for(0, cid) == a.profile_for(0, cid)

    def test_profile_persists_across_rounds(self):
        s = self._sampler()
        for cid in range(6):
            device = s.profile_for(3, cid)
            for round_idx in range(5):
                assert s.state_for(3, round_idx, cid).device == device

    def test_state_varies_by_round_but_not_identity(self):
        s = self._sampler()
        states = [s.state_for(0, r, 2) for r in range(6)]
        assert len({st.avail_perf_flops for st in states}) > 1
        assert len({st.device for st in states}) == 1

    def test_state_factors_respect_floors_and_ranges(self):
        s = self._sampler()
        for r in range(4):
            for cid in range(4):
                st = s.state_for(1, r, cid)
                assert 0 < st.avail_mem_bytes <= st.device.mem_bytes
                assert 0 < st.avail_perf_flops <= st.device.perf_flops

    def test_streams_disjoint_from_sequential_sampling(self):
        """Interleaved sequential sample() draws never perturb the
        counter-derived streams (they share no RNG state)."""
        s = self._sampler()
        before = [(s.profile_for(0, c), s.state_for(0, 1, c)) for c in range(5)]
        s.sample_many(10, np.random.default_rng(123))
        after = [(s.profile_for(0, c), s.state_for(0, 1, c)) for c in range(5)]
        assert before == after

    def test_profile_and_state_streams_disjoint(self):
        """The 3-element profile seed and 4-element state seed cannot
        collide: a client's persistent identity is independent of every
        per-round degradation draw that shares its (seed, cid) prefix."""
        s = self._sampler()
        for cid in range(6):
            device = s.profile_for(0, cid)
            # Feeding round indices that mimic another client's cid must
            # neither change the identity nor correlate the factors.
            states = [s.state_for(0, other, cid) for other in range(6)]
            assert all(st.device == device for st in states)
        seeds = {(s.profile_for(seed, 0).name, seed) for seed in range(4)}
        assert len(seeds) == 4  # distinct seeds resolve independently
