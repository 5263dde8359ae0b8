"""Failure injection: wrong shapes, NaNs, and corrupted state must fail
loudly (or be handled) rather than silently corrupting training."""

import numpy as np
import pytest

from repro.attacks import ModelWithLoss, PGDConfig, pgd_attack
from repro.data import ArrayDataset
from repro.flsim.aggregation import weighted_average_states
from repro.models import build_cnn
from repro.nn import BatchNorm2d, CrossEntropyLoss, Linear, Sequential, ReLU

RNG = np.random.default_rng(0)


class TestShapeMismatches:
    def test_load_state_dict_shape_mismatch_raises(self):
        m = Sequential(Linear(4, 3))
        bad = {k: np.zeros((9, 9)) for k in m.state_dict()}
        with pytest.raises(ValueError):
            m.load_state_dict(bad)
        # Shapes that *would* broadcast into a (3, 4) weight are refused too,
        # naming the key and both shapes, and leave the weights untouched.
        good = m.state_dict()
        for wrong in (np.ones(4), np.float32(1.0)):
            with pytest.raises(ValueError, match=r"layer0\.weight.*\(3, 4\)"):
                m.load_state_dict({**good, "layer0.weight": wrong})
        np.testing.assert_array_equal(m.state_dict()["layer0.weight"], good["layer0.weight"])
        m.load_state_dict(good)
        # ... and a buffer is never silently resized, directly or through a load.
        bn = BatchNorm2d(4)
        with pytest.raises(ValueError, match=r"running_mean.*\(7,\).*\(4,\)"):
            bn.set_buffer("running_mean", np.zeros(7))
        state = bn.state_dict()
        with pytest.raises(ValueError, match="running_var"):
            bn.load_state_dict({**state, "running_var": np.ones(7)})
        assert bn.running_mean.shape == (4,)
        bn.set_buffer("running_mean", np.arange(4.0))

    def test_aggregating_mismatched_states_raises(self):
        s1 = {"w": np.zeros(3)}
        s2 = {"w": np.zeros(4)}
        with pytest.raises(ValueError):
            weighted_average_states([s1, s2], [1.0, 1.0])

    def test_model_rejects_wrong_input_channels(self):
        model = build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=RNG)
        with pytest.raises(ValueError):
            model(np.zeros((1, 5, 8, 8)))

    def test_dataset_subset_out_of_range(self):
        ds = ArrayDataset(np.zeros((3, 2)), np.zeros(3, dtype=int))
        with pytest.raises(IndexError):
            ds.subset([0, 7])


class TestNumericalRobustness:
    def test_cross_entropy_with_huge_logits(self):
        ce = CrossEntropyLoss()
        loss = ce(np.array([[1e308, -1e308, 0.0]]), np.array([0]))
        assert np.isfinite(loss)
        assert np.isfinite(ce.backward()).all()

    def test_pgd_on_constant_model_is_bounded(self):
        """A model with zero gradients must not produce NaN perturbations."""

        class Constant:
            def __call__(self, x):
                self._n = len(x)
                return np.zeros((len(x), 3))

            def forward(self, x):
                return self(x)

            def backward(self, g):
                return np.zeros((self._n, 4))

        mwl = ModelWithLoss(Constant())
        x = RNG.uniform(size=(2, 4))
        adv = pgd_attack(mwl, x, np.array([0, 1]), PGDConfig(eps=0.1, steps=3), rng=RNG)
        assert np.isfinite(adv).all()
        assert np.all(np.abs(adv - x) <= 0.1 + 1e-12)

    def test_zero_variance_batchnorm_stable(self):
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(2)
        bn.train()
        out = bn(np.ones((4, 2, 3, 3)))
        assert np.isfinite(out).all()
        g = bn.backward(np.ones_like(out))
        assert np.isfinite(g).all()

    def test_relu_dead_everywhere_backward_zero(self):
        relu = ReLU()
        out = relu(-np.ones((2, 3)))
        g = relu.backward(np.ones_like(out))
        np.testing.assert_array_equal(g, np.zeros_like(g))


class TestEmptyAndDegenerate:
    def test_single_sample_dataset_trains(self):
        from repro.flsim.local import standard_local_train

        model = Sequential(Linear(4, 2))
        ds = ArrayDataset(RNG.uniform(size=(1, 4)), np.array([1]))
        loss = standard_local_train(model, ds, iterations=3, batch_size=8, lr=0.1)
        assert np.isfinite(loss)

    def test_zero_iterations_is_noop(self):
        from repro.flsim.local import standard_local_train

        model = Sequential(Linear(4, 2))
        before = model.state_dict()
        ds = ArrayDataset(RNG.uniform(size=(4, 4)), np.array([0, 1, 0, 1]))
        loss = standard_local_train(model, ds, iterations=0, batch_size=2, lr=0.1)
        assert loss == 0.0
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(v, before[k])
