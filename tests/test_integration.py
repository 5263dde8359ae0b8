"""Cross-module integration tests: the pieces working together.

These exercise the same code paths as the benchmark harness, at an even
smaller scale, so CI catches wiring regressions without multi-minute runs.
"""

import numpy as np
import pytest

from repro.baselines import FedRolexAT, JointFAT
from repro.core import FedProphet, FedProphetConfig
from repro.core.heads import AuxHead
from repro.attacks import ModelWithLoss
from repro.core.cascade import CascadeBatchSpec, cascade_local_train
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.hardware import (
    DEVICE_POOL_CIFAR10,
    Device,
    DeviceSampler,
    mem_req_bytes,
)
from repro.models import build_vgg


SHAPE = (3, 8, 8)


def _task():
    return make_cifar10_like(image_size=8, train_per_class=60, test_per_class=20, seed=0)


def _builder(rng):
    return build_vgg("vgg11", 10, SHAPE, width_mult=0.25, rng=rng)


class TestCascadeLearnsCentrally:
    """Multi-atom cascade modules must be learnable via their aux heads —
    the property the whole FedProphet pipeline rests on."""

    def test_first_span_beats_chance(self):
        task = _task()
        model = _builder(np.random.default_rng(0))
        head = AuxHead(model.feature_shape(2), 10, rng=np.random.default_rng(1))
        spec = CascadeBatchSpec(0, 3, head)
        for ep in range(6):
            cascade_local_train(
                model, spec, task.train, iterations=30, batch_size=32,
                lr=0.08, mu=1e-5, eps0=8 / 255, eps_feature=0.0, attack_steps=2,
                rng=np.random.default_rng(ep),
            )
        model.eval()
        mwl = ModelWithLoss(model.segment(0, 3), head, mu=0.0)
        acc = float((mwl.logits(task.test.x).argmax(1) == task.test.y).mean())
        assert acc > 0.3, f"cascade module only reached {acc:.2f}"


class TestScaledDevicePressure:
    """jFAT must experience memory pressure (swap) on a pool whose memory
    is matched to the workload's footprint — the Fig. 2/7 regime."""

    def _scaled_pool(self):
        model = _builder(np.random.default_rng(0))
        r_max = mem_req_bytes(model, SHAPE, 32)
        # devices whose peak memory brackets the requirement
        return [
            Device("tiny", 1e-3, r_max / 1024**3 * 1.0, 0.01),
            Device("big", 1e-3, r_max / 1024**3 * 20.0, 0.01),
        ]

    def test_jfat_swaps_fedprophet_does_not(self):
        task = _task()
        sampler = DeviceSampler(self._scaled_pool(), "balanced")
        cfg = FLConfig(
            num_clients=6, clients_per_round=3, local_iters=1, batch_size=16,
            rounds=3, train_pgd_steps=1, eval_every=0, seed=0,
        )
        jfat = JointFAT(task, _builder, cfg, device_sampler=sampler)
        jfat.run()
        assert jfat.total_access_s > 0, "jFAT should swap on tiny devices"

        pcfg = FedProphetConfig(
            num_clients=6, clients_per_round=3, local_iters=1, batch_size=16,
            rounds=3, rounds_per_module=1, patience=2, train_pgd_steps=1,
            eval_every=0, r_min_fraction=0.1, val_samples=16, val_pgd_steps=1,
            seed=0,
        )
        fed = FedProphet(task, _builder, pcfg, device_sampler=sampler)
        fed.run()
        # FedProphet's modules fit within the same budget far more often.
        assert fed.total_access_s <= jfat.total_access_s


class TestEndToEndComparability:
    """All methods produce comparable state on the same workload."""

    def test_same_global_architecture(self):
        task = _task()
        cfg = FLConfig(
            num_clients=4, clients_per_round=2, local_iters=1, batch_size=8,
            rounds=1, train_pgd_steps=1, eval_every=0, seed=0,
        )
        jfat = JointFAT(task, _builder, cfg)
        rolex = FedRolexAT(task, _builder, cfg)
        assert jfat.global_model.state_dict().keys() == rolex.global_model.state_dict().keys()

    def test_rounds_produce_finite_weights(self):
        task = _task()
        cfg = FLConfig(
            num_clients=4, clients_per_round=2, local_iters=2, batch_size=8,
            rounds=2, train_pgd_steps=1, eval_every=0, seed=0,
        )
        exp = FedRolexAT(task, _builder, cfg,
                         device_sampler=DeviceSampler(DEVICE_POOL_CIFAR10, "unbalanced"))
        exp.run()
        for key, value in exp.global_model.state_dict().items():
            assert np.isfinite(value).all(), f"non-finite weights in {key}"


class TestProphetMemoryGuarantee:
    """Every multi-atom module of the partition fits in R_min — the memory
    guarantee the paper's Algorithm 1 provides."""

    def test_module_memreq_under_budget(self):
        from repro.core.partitioner import segment_mem_bytes
        from repro.hardware import MemoryModel

        task = _task()
        cfg = FedProphetConfig(
            num_clients=4, clients_per_round=2, local_iters=1, batch_size=16,
            rounds=1, rounds_per_module=1, patience=1, eval_every=0,
            r_min_fraction=0.35, val_samples=16, val_pgd_steps=1, seed=0,
        )
        fed = FedProphet(task, _builder, cfg)
        mem = MemoryModel(batch_size=cfg.batch_size)
        for a, b in fed.partition.ranges:
            if b - a > 1:
                assert segment_mem_bytes(fed.global_model, a, b, mem) < fed.r_min
