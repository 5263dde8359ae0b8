"""Tests for the FL engine: aggregation, local training, the round loop."""

import numpy as np
import pytest

from repro.attacks import PGDConfig
from repro.data import ArrayDataset, make_cifar10_like
from repro.flsim import (
    FLConfig,
    fedavg,
    adversarial_local_train,
    masked_partial_average,
    standard_local_train,
    weighted_average_states,
)
from repro.flsim.base import AsyncRoundContext, FederatedExperiment, RoundRecord
from repro.hardware.latency import LocalTrainingCost
from repro.models import build_cnn
from repro.nn import Linear, ReLU, Sequential


class TestAggregation:
    def test_weighted_average_identity(self):
        s = {"w": np.array([1.0, 2.0])}
        out = weighted_average_states([s, s], [1.0, 3.0])
        np.testing.assert_allclose(out["w"], [1.0, 2.0])

    def test_weighted_average_weights(self):
        s1 = {"w": np.array([0.0])}
        s2 = {"w": np.array([4.0])}
        out = weighted_average_states([s1, s2], [3.0, 1.0])
        np.testing.assert_allclose(out["w"], [1.0])

    def test_fedavg_weighted_by_samples(self):
        s1 = {"w": np.array([0.0])}
        s2 = {"w": np.array([10.0])}
        out = fedavg([s1, s2], [90, 10])
        np.testing.assert_allclose(out["w"], [1.0])

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError):
            weighted_average_states([], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            weighted_average_states([{"w": np.zeros(1)}], [1.0, 2.0])

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            weighted_average_states([{"w": np.zeros(1)}], [0.0])

    def test_masked_partial_average_keeps_uncovered(self):
        g = {"w": np.array([1.0, 2.0, 3.0])}
        update = ({"w": np.array([10.0, 0.0, 0.0])}, {"w": np.array([1.0, 0.0, 0.0])}, 2.0)
        out = masked_partial_average(g, [update])
        np.testing.assert_allclose(out["w"], [10.0, 2.0, 3.0])

    def test_masked_partial_average_overlap(self):
        g = {"w": np.zeros(2)}
        u1 = ({"w": np.array([2.0, 0.0])}, {"w": np.array([1.0, 0.0])}, 1.0)
        u2 = ({"w": np.array([4.0, 6.0])}, {"w": np.array([1.0, 1.0])}, 1.0)
        out = masked_partial_average(g, [u1, u2])
        np.testing.assert_allclose(out["w"], [3.0, 6.0])


def _tiny_dataset(n=40, dim=6, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, size=n)
    x = np.clip(0.5 + 0.3 * rng.normal(size=(n, dim)) + 0.3 * (y[:, None] - 1), 0, 1)
    return ArrayDataset(x, y)


class TestLocalTraining:
    def _model(self):
        rng = np.random.default_rng(4)
        return Sequential(Linear(6, 16, rng=rng), ReLU(), Linear(16, 3, rng=rng))

    def test_standard_training_reduces_loss(self):
        model = self._model()
        ds = _tiny_dataset()
        first = standard_local_train(model, ds, 1, 20, lr=0.5, rng=np.random.default_rng(0))
        for _ in range(20):
            last = standard_local_train(model, ds, 5, 20, lr=0.5, rng=np.random.default_rng(0))
        assert last < first

    def test_adversarial_training_runs_and_learns(self):
        model = self._model()
        ds = _tiny_dataset()
        pgd = PGDConfig(eps=0.05, steps=2)
        first = adversarial_local_train(model, ds, 1, 20, lr=0.5, pgd=pgd, rng=np.random.default_rng(0))
        for _ in range(20):
            last = adversarial_local_train(model, ds, 5, 20, lr=0.5, pgd=pgd, rng=np.random.default_rng(0))
        assert last < first

    def test_batch_size_capped_at_dataset(self):
        model = self._model()
        ds = _tiny_dataset(n=5)
        loss = standard_local_train(model, ds, 2, 999, lr=0.1)
        assert np.isfinite(loss)


class _CountingExperiment(FederatedExperiment):
    """Minimal concrete experiment for exercising the base-class loop: every
    client reports the round-start weights back untrained."""

    name = "counting"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds_seen = []

    def async_client_fn(self, ctx, base_state):
        self.rounds_seen.append(ctx.round_idx)
        return lambda item: base_state

    def async_round_context(self, round_idx, clients, states):
        costs = [LocalTrainingCost(compute_s=1.0, access_s=0.5) for _ in clients]
        return AsyncRoundContext(round_idx, clients, states, costs)


class TestFederatedExperiment:
    def _experiment(self, **overrides):
        task = make_cifar10_like(image_size=8, train_per_class=20, test_per_class=5)
        defaults = dict(
            num_clients=5, clients_per_round=2, local_iters=1, batch_size=8,
            rounds=3, eval_every=0, eval_pgd_steps=2, seed=0,
        )
        defaults.update(overrides)
        cfg = FLConfig(**defaults)
        builder = lambda rng: build_cnn(1, 10, (3, 8, 8), base_channels=4, rng=rng)
        return _CountingExperiment(task, builder, cfg)

    def test_partitions_data_across_clients(self):
        exp = self._experiment()
        assert len(exp.clients) == 5
        assert exp.total_samples == sum(c.num_samples for c in exp.clients)

    def test_run_advances_clock_by_bottleneck(self):
        exp = self._experiment()
        history = exp.run()
        assert exp.rounds_seen == [0, 1, 2]
        assert exp.clock_s == pytest.approx(3 * 1.5)
        assert all(isinstance(r, RoundRecord) for r in history)

    def test_lr_decay(self):
        exp = self._experiment()
        assert exp.lr_at(0) == exp.config.lr
        assert exp.lr_at(10) == pytest.approx(exp.config.lr * exp.config.lr_decay**10)

    def test_sample_round_sizes(self):
        exp = self._experiment()
        clients, states = exp.sample_round(0)
        assert len(clients) == 2
        assert len(states) == 2
        assert all(s is None for s in states)  # no device sampler configured

    def test_eval_every_records_metrics(self):
        exp = self._experiment(eval_every=2, rounds=4, eval_max_samples=20)
        history = exp.run()
        evals = [r.eval for r in history if r.eval is not None]
        assert len(evals) == 2
        assert all(0.0 <= e.clean_acc <= 1.0 for e in evals)

    def test_config_validation(self):
        with pytest.warns(RuntimeWarning, match="clamping"):
            cfg = FLConfig(num_clients=2, clients_per_round=5)
        assert cfg.clients_per_round == 2
        with pytest.raises(ValueError):
            FLConfig(lr_decay=0.0)
        # (r + 1) % -k == 0 holds for every r: a negative period would
        # silently evaluate every round.
        with pytest.raises(ValueError, match="eval_every must be >= 0"):
            FLConfig(eval_every=-2)
        assert FLConfig(eval_every=0).eval_every == 0


def test_no_experiment_overrides_run():
    """One engine: every method runs on ``FederatedExperiment.run``.

    Every method states its round as the ``async_*`` hooks, FedDF-AT's
    distillation included, and the engine has one run loop: a barrier round
    is a drained pipeline round, not a ``run_round`` of its own.
    """
    import repro.baselines  # noqa: F401 - registers every experiment class
    import repro.core  # noqa: F401
    from repro.flsim.base import FederatedExperiment

    def walk(cls):
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("repro."):
                yield sub
                yield from walk(sub)

    classes = set(walk(FederatedExperiment))
    assert len(classes) >= 9
    assert [c.__name__ for c in classes if "run" in vars(c)] == []
    assert [c.__name__ for c in classes if "_run_rounds" in vars(c)] == []
    gone = ("run_round", "advance_clock", "_run_sync", "_run_async")
    assert [name for name in gone if hasattr(FederatedExperiment, name)] == []
    # One capability flag is left, and only FedDF-AT turns it off.
    flags = {name for name in dir(FederatedExperiment) if name.startswith("supports_")}
    assert flags == {"supports_async_aggregation"}
    assert {c.__name__ for c in classes if "supports_async_aggregation" in vars(c)} == {
        "FedDFAT"
    }
