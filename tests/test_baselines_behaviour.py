"""Behavioural tests distinguishing the baselines' mechanisms."""

import numpy as np
import pytest

from repro.baselines import FedDFAT, FedRBN, JointFAT
from repro.baselines.distill import ensemble_soft_targets
from repro.data import make_cifar10_like
from repro.flsim import FLConfig
from repro.hardware import Device, DeviceState
from repro.models import build_cnn, build_vgg
from repro.nn import DualBatchNorm2d
from repro.nn.normalization import set_dual_bn_mode

SHAPE = (3, 8, 8)


def _task():
    return make_cifar10_like(image_size=8, train_per_class=15, test_per_class=5, seed=0)


def _cfg(**overrides):
    defaults = dict(
        num_clients=4, clients_per_round=2, local_iters=1, batch_size=8,
        rounds=1, train_pgd_steps=1, eval_every=0, seed=0,
    )
    defaults.update(overrides)
    return FLConfig(**defaults)


class TestConfidenceWeighting:
    def test_confident_teacher_dominates(self):
        """FedET's rule: a teacher with near-one-hot output pulls the
        ensemble target toward its prediction more than a uniform one."""

        class FixedTeacher:
            def __init__(self, logits):
                self._logits = np.asarray(logits, dtype=float)

            def eval(self):
                pass

            def __call__(self, x):
                return np.tile(self._logits, (len(x), 1))

        confident = FixedTeacher([10.0, 0.0, 0.0])
        uniform = FixedTeacher([0.0, 0.0, 0.0])
        x = np.zeros((2, 4))
        mean_t = ensemble_soft_targets([confident, uniform], x, confidence_weighted=False)
        conf_t = ensemble_soft_targets([confident, uniform], x, confidence_weighted=True)
        # confidence weighting pushes class-0 mass above the plain mean
        assert conf_t[0, 0] > mean_t[0, 0]

    def test_explicit_weights(self):
        class FixedTeacher:
            def __init__(self, logits):
                self._logits = np.asarray(logits, dtype=float)

            def eval(self):
                pass

            def __call__(self, x):
                return np.tile(self._logits, (len(x), 1))

        a = FixedTeacher([5.0, 0.0])
        b = FixedTeacher([0.0, 5.0])
        x = np.zeros((1, 3))
        t = ensemble_soft_targets([a, b], x, weights=[3.0, 1.0])
        assert t[0, 0] > t[0, 1]


class TestFedRBNMechanism:
    def _dual_builder(self, rng):
        return build_vgg("vgg11", 10, SHAPE, width_mult=0.125, rng=rng, bn_cls=DualBatchNorm2d)

    def test_poor_clients_do_standard_training(self):
        exp = FedRBN(_task(), self._dual_builder, _cfg())
        poor = DeviceState(Device("p", 1.0, 1, 1), avail_mem_bytes=1.0, avail_perf_flops=1e9)
        rich = DeviceState(
            Device("r", 1.0, 1, 1), avail_mem_bytes=1e12, avail_perf_flops=1e9
        )
        assert not exp.can_afford_at(poor)
        assert exp.can_afford_at(rich)

    def test_st_cost_cheaper_than_at(self):
        exp = FedRBN(_task(), self._dual_builder, _cfg(train_pgd_steps=5))
        state = DeviceState(
            Device("r", 1.0, 1, 1), avail_mem_bytes=1e12, avail_perf_flops=1e9
        )
        at = exp._cost(state, is_at=True)
        st = exp._cost(state, is_at=False)
        assert st.compute_s < at.compute_s

    def test_adv_stat_keys_discovered(self):
        exp = FedRBN(_task(), self._dual_builder, _cfg())
        assert exp._adv_stat_keys
        assert all(k.endswith("_adv") for k in exp._adv_stat_keys)

    def test_dual_bn_eval_uses_adversarial_statistics(self):
        """FedRBN evaluates with *adversarial* BN statistics.

        The dual-BN switch is a module attribute, invisible to the state
        dict — it travels through the ``_eval_setup`` hook.  Verifies (a)
        an evaluation flips a model left in clean mode to adversarial mode
        and (b) the switch is load-bearing: clean-statistics evaluation
        differs.
        """
        exp = FedRBN(
            _task(), self._dual_builder,
            _cfg(rounds=2, local_iters=2, train_pgd_steps=2),
        )
        exp.run()
        set_dual_bn_mode(exp.global_model, adversarial=False)
        exp.evaluate(max_samples=16)
        flags = [
            m.adversarial_mode
            for m in exp.global_model.modules()
            if isinstance(m, DualBatchNorm2d)
        ]
        assert flags and all(flags)

        # the switch is load-bearing: the two statistic banks diverged under
        # AT, so the evaluated function differs between modes
        x = exp.task.test.x[:8]
        set_dual_bn_mode(exp.global_model, adversarial=True)
        adv_logits = exp.global_model(x)
        set_dual_bn_mode(exp.global_model, adversarial=False)
        clean_logits = exp.global_model(x)
        set_dual_bn_mode(exp.global_model, adversarial=True)
        assert not np.allclose(adv_logits, clean_logits)


class TestKDArchitectureRouting:
    def test_each_client_trains_largest_affordable(self):
        families = {
            "cnn2": lambda rng: build_cnn(2, 10, SHAPE, base_channels=4, rng=rng),
            "vgg11": lambda rng: build_vgg("vgg11", 10, SHAPE, width_mult=0.25, rng=rng),
        }
        exp = FedDFAT(_task(), families, _cfg(), distill_iters=1)
        small_mem = exp.mem_req["cnn2"]
        between = DeviceState(
            Device("m", 1.0, 1, 1),
            avail_mem_bytes=(small_mem + exp.mem_req["vgg11"]) / 2,
            avail_perf_flops=1e9,
        )
        assert exp.pick_architecture(between) == "cnn2"

    def test_global_model_is_family_largest(self):
        families = {
            "cnn2": lambda rng: build_cnn(2, 10, SHAPE, base_channels=4, rng=rng),
            "vgg11": lambda rng: build_vgg("vgg11", 10, SHAPE, width_mult=0.25, rng=rng),
        }
        exp = FedDFAT(_task(), families, _cfg(), distill_iters=1)
        assert exp.global_model is exp.prototypes["vgg11"]


class TestJFATAggregation:
    def test_round_is_fedavg_of_locals(self):
        """With one client, the aggregated global equals that client's
        trained local model exactly."""
        task = _task()
        cfg = _cfg(num_clients=2, clients_per_round=1)
        builder = lambda rng: build_cnn(2, 10, SHAPE, base_channels=4, rng=rng)
        exp = JointFAT(task, builder, cfg)
        exp.run()
        # smoke property: FedAvg of a single state is that state (exercised
        # implicitly); weights must have moved from init
        init = builder(np.random.default_rng(cfg.seed + 7)).state_dict()
        moved = any(
            not np.allclose(init[k], v) for k, v in exp.global_model.state_dict().items()
        )
        assert moved
