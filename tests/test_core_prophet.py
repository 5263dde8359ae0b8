"""End-to-end tests for the FedProphet orchestrator (Algorithm 2)."""

import numpy as np
import pytest

from repro.core import FedProphet, FedProphetConfig
from repro.data import make_cifar10_like
from repro.flsim import FaultPlan
from repro.hardware import DEVICE_POOL_CIFAR10, DeviceSampler
from repro.models import build_cnn


def _task():
    return make_cifar10_like(image_size=8, train_per_class=30, test_per_class=10, seed=0)


def _config(**overrides):
    defaults = dict(
        num_clients=6, clients_per_round=3, local_iters=2, batch_size=8,
        lr=0.02, rounds=6, train_pgd_steps=2, rounds_per_module=2,
        patience=5, val_samples=32, val_pgd_steps=2, eval_every=0,
        eval_pgd_steps=2, r_min_fraction=0.4, seed=0,
    )
    defaults.update(overrides)
    return FedProphetConfig(**defaults)


def _builder(rng):
    return build_cnn(3, 10, (3, 8, 8), base_channels=4, rng=rng)


class TestFedProphetSetup:
    def test_partition_and_heads(self):
        fp = FedProphet(_task(), _builder, _config())
        assert fp.partition.num_modules >= 2
        assert len(fp.heads) == fp.partition.num_modules
        assert fp.heads[-1] is None  # last module uses the backbone output
        assert all(h is not None for h in fp.heads[:-1])

    def test_rmin_fraction_of_rmax(self):
        fp = FedProphet(_task(), _builder, _config(r_min_fraction=0.4))
        assert fp.r_min == pytest.approx(0.4 * fp.r_max)

    def test_head_dims_match_features(self):
        from repro.core.heads import head_input_dim

        fp = FedProphet(_task(), _builder, _config())
        for (start, stop), head in zip(fp.partition.ranges, fp.heads):
            if head is not None:
                shape = fp.global_model.feature_shape(stop - 1)
                assert head.in_features == head_input_dim(shape)
                assert head.out_features == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FedProphetConfig(mu=-1.0)
        with pytest.raises(ValueError):
            FedProphetConfig(r_min_fraction=0.0)
        with pytest.raises(ValueError):
            FedProphetConfig(patience=0)


class TestRoundPlan:
    @pytest.mark.round_engine
    @pytest.mark.fault_tolerance
    @pytest.mark.parametrize("faulty", [False, True])
    def test_dma_runs_once_per_planned_cohort(self, monkeypatch, faulty):
        import repro.core.prophet as prophet_module

        real, calls = prophet_module.assign_modules, []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(prophet_module, "assign_modules", counting)
        # A fault plan with a timeout also plans the sampled cohort, once,
        # for the timeout estimate; the survivors' plan is the round's.
        faults = dict(fault_plan=FaultPlan(seed=7, dropout_prob=0.3),
                      client_timeout=1e9) if faulty else {}
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10, "balanced")
        fp = FedProphet(_task(), _builder, _config(rounds=4, **faults), device_sampler=sampler)
        history = fp.run()
        assert len(history) == 4 and not any(r.aborted for r in history)
        assert len(calls) == (8 if faulty else 4)


class TestFedProphetRun:
    def test_progresses_through_modules(self):
        cfg = _config()
        fp = FedProphet(_task(), _builder, cfg)
        history = fp.run()
        assert len(history) == cfg.rounds
        modules_seen = {e.module for e in fp.pert_log}
        assert len(modules_seen) >= 2  # advanced past the first module

    def test_stage_results_recorded(self):
        fp = FedProphet(_task(), _builder, _config())
        fp.run()
        assert fp.stage_results
        for stage in fp.stage_results:
            assert stage.rounds >= 1
            assert stage.eps_star >= 0
            assert 0 <= stage.final_clean_acc <= 1

    def test_eps_star_positive_after_first_module(self):
        fp = FedProphet(_task(), _builder, _config())
        fp.run()
        assert fp.eps_star[0] > 0

    def test_history_contains_validation_accuracy(self):
        fp = FedProphet(_task(), _builder, _config())
        history = fp.run()
        assert all(r.eval is not None for r in history)
        assert all(0 <= r.eval.clean_acc <= 1 for r in history)

    def test_clock_advances_with_device_sampler(self):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10, "balanced")
        fp = FedProphet(_task(), _builder, _config(), device_sampler=sampler)
        fp.run()
        assert fp.clock_s > 0

    def test_dma_disabled_all_assignments_current(self):
        sampler = DeviceSampler(DEVICE_POOL_CIFAR10, "balanced")
        fp = FedProphet(
            _task(), _builder, _config(use_dma=False), device_sampler=sampler
        )
        _, states = fp.sample_round(0)
        from repro.core.dma import assign_modules

        out = assign_modules(fp.cost_table, 0, states, enabled=False)
        assert out == [0] * len(states)

    def test_final_model_evaluable(self):
        fp = FedProphet(_task(), _builder, _config())
        fp.run()
        res = fp.final_eval(max_samples=20)
        assert 0 <= res.clean_acc <= 1
        assert res.aa_acc is not None

    def test_apa_updates_epsilon_after_module_zero(self):
        cfg = _config(rounds=6, rounds_per_module=2, use_apa=True)
        fp = FedProphet(_task(), _builder, cfg)
        fp.run()
        later = [e for e in fp.pert_log if e.module > 0]
        assert later and all(np.isfinite(e.eps) for e in later)
        assert any(e.eps > 0 for e in later)

    def test_pert_log_round_monotone(self):
        fp = FedProphet(_task(), _builder, _config())
        fp.run()
        rounds = [e.round for e in fp.pert_log]
        assert rounds == sorted(rounds)

    def test_deterministic_given_seed(self):
        r1 = FedProphet(_task(), _builder, _config()).run()
        r2 = FedProphet(_task(), _builder, _config()).run()
        for a, b in zip(r1, r2):
            assert a.eval.clean_acc == pytest.approx(b.eval.clean_acc)
