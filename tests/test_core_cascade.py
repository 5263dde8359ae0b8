"""Tests for adversarial cascade learning (client side, Eq. 9)."""

import numpy as np
import pytest

from repro.core.cascade import (
    CascadeBatchSpec,
    cascade_local_train,
    measure_output_perturbation,
)
from repro.attacks import ModelWithLoss
from repro.data import ArrayDataset
from repro.models import build_cnn
from repro.core.heads import AuxHead
from repro.nn import Linear
from tests.helpers import numerical_grad

pytestmark = pytest.mark.round_engine

RNG = np.random.default_rng(0)


def _model():
    return build_cnn(3, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))


def _dataset(n=32):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=n)
    x = np.clip(0.5 + 0.2 * rng.normal(size=(n, 3, 8, 8)) + 0.1 * y[:, None, None, None], 0, 1)
    return ArrayDataset(x, y)


class TestEarlyExitAdapter:
    """``ModelWithLoss(segment, head, mu=...)``: Eq. 9's loss and input gradient."""

    def test_with_head_matches_strong_convexity_loss(self):
        model = _model()
        model.eval()
        seg = model.segment(0, 1)
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        mwl = ModelWithLoss(seg, head, mu=0.01)
        x = RNG.uniform(0.2, 0.8, size=(4, 3, 8, 8))
        y = np.array([0, 1, 2, 3])
        loss, grad = mwl.loss_and_input_grad(x, y)
        assert np.isfinite(loss)
        assert grad.shape == x.shape

    def test_input_grad_matches_numeric(self):
        model = _model()
        model.eval()
        seg = model.segment(1, 2)  # intermediate module: conv on features
        in_shape = model.feature_shape(0)
        head = AuxHead(model.feature_shape(1), 4, rng=RNG)
        mwl = ModelWithLoss(seg, head, mu=0.05)
        z = RNG.normal(size=(2,) + in_shape) + 0.1
        y = np.array([1, 3])
        _, analytic = mwl.loss_and_input_grad(z, y)
        numeric = numerical_grad(lambda: mwl.loss_and_input_grad(z, y)[0], z)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-3, atol=1e-6)

    def test_without_head_is_plain_ce(self):
        model = _model()
        model.eval()
        seg = model.segment(0, len(model.atoms))  # whole model: last "module"
        mwl = ModelWithLoss(seg, head=None, mu=0.0)
        x = RNG.uniform(0.2, 0.8, size=(3, 3, 8, 8))
        y = np.array([0, 1, 2])
        logits = mwl.logits(x)
        assert logits.shape == (3, 4)
        loss, grad = mwl.loss_and_input_grad(x, y)
        assert np.isfinite(loss) and grad.shape == x.shape

    def test_per_sample_losses(self):
        model = _model()
        model.eval()
        seg = model.segment(0, 1)
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        mwl = ModelWithLoss(seg, head, mu=0.0)
        x = RNG.uniform(size=(5, 3, 8, 8))
        y = np.array([0, 1, 2, 3, 0])
        ps = mwl.per_sample_losses(x, y)
        assert ps.shape == (5,)
        assert np.all(ps > 0)


class TestCascadeLocalTrain:
    def test_first_module_trains_and_reduces_loss(self):
        model = _model()
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        spec = CascadeBatchSpec(start_atom=0, stop_atom=1, head=head)
        ds = _dataset()
        losses = [
            cascade_local_train(
                model, spec, ds, iterations=5, batch_size=16, lr=0.1,
                mu=1e-4, eps0=0.02, eps_feature=0.0, attack_steps=2,
                rng=np.random.default_rng(i),
            )
            for i in range(8)
        ]
        assert losses[-1] < losses[0]

    def test_only_assigned_params_change(self):
        model = _model()
        head = AuxHead(model.feature_shape(1), 4, rng=RNG)
        before = model.state_dict()
        spec = CascadeBatchSpec(start_atom=1, stop_atom=2, head=head)
        cascade_local_train(
            model, spec, _dataset(), iterations=2, batch_size=8, lr=0.1,
            mu=1e-4, eps0=0.02, eps_feature=0.5, attack_steps=2,
        )
        after = model.state_dict()
        changed = {k for k in before if not np.allclose(before[k], after[k])}
        assert changed, "assigned module must update"
        assert all(k.startswith("atom1.") for k in changed), changed

    def test_multi_module_span_updates_both(self):
        model = _model()
        head = AuxHead(model.feature_shape(2), 4, rng=RNG)
        before = model.state_dict()
        spec = CascadeBatchSpec(start_atom=1, stop_atom=3, head=head)
        cascade_local_train(
            model, spec, _dataset(), iterations=2, batch_size=8, lr=0.1,
            mu=1e-4, eps0=0.02, eps_feature=0.5, attack_steps=1,
        )
        after = model.state_dict()
        changed_atoms = {
            k.split(".")[0] for k in before if not np.allclose(before[k], after[k])
        }
        assert changed_atoms == {"atom1", "atom2"}

    def test_last_module_without_head(self):
        model = _model()
        n_atoms = len(model.atoms)
        spec = CascadeBatchSpec(start_atom=n_atoms - 1, stop_atom=n_atoms, head=None)
        loss = cascade_local_train(
            model, spec, _dataset(), iterations=2, batch_size=8, lr=0.05,
            mu=0.0, eps0=0.02, eps_feature=0.3, attack_steps=1,
        )
        assert np.isfinite(loss)


class TestMeasureOutputPerturbation:
    def test_positive_for_nonzero_eps(self):
        model = _model()
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        v = measure_output_perturbation(
            model, 0, 1, head, _dataset(), mu=0.0, eps0=0.05,
            eps_feature=0.0, attack_steps=2, batch_size=16,
        )
        assert v > 0

    def test_zero_for_zero_eps(self):
        model = _model()
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        v = measure_output_perturbation(
            model, 0, 1, head, _dataset(), mu=0.0, eps0=0.0,
            eps_feature=0.0, attack_steps=2, batch_size=16,
        )
        assert v == pytest.approx(0.0)

    def test_larger_eps_larger_displacement(self):
        model = _model()
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        small = measure_output_perturbation(
            model, 0, 1, head, _dataset(), mu=0.0, eps0=0.01,
            eps_feature=0.0, attack_steps=3, batch_size=16,
            rng=np.random.default_rng(0),
        )
        large = measure_output_perturbation(
            model, 0, 1, head, _dataset(), mu=0.0, eps0=0.1,
            eps_feature=0.0, attack_steps=3, batch_size=16,
            rng=np.random.default_rng(0),
        )
        assert large > small
