"""Additional cascade-learning behaviours: BN mode discipline, prefix
freezing, and strong-convexity regularizer effects on training."""

import numpy as np
import pytest

from repro.attacks import ModelWithLoss
from repro.core.cascade import CascadeBatchSpec, cascade_local_train
from repro.core.heads import AuxHead
from repro.data import ArrayDataset
from repro.models import build_cnn
from repro.nn import BatchNorm2d

pytestmark = pytest.mark.round_engine

RNG = np.random.default_rng(0)


def _model():
    return build_cnn(3, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))


def _dataset(n=24):
    rng = np.random.default_rng(2)
    y = rng.integers(0, 4, size=n)
    x = np.clip(0.5 + 0.2 * rng.normal(size=(n, 3, 8, 8)), 0, 1)
    return ArrayDataset(x, y)


class TestModeDiscipline:
    def test_prefix_bn_stats_frozen_during_module_training(self):
        """Training module 2 must not move module 1's BN running stats —
        the prefix is fixed (w*_1) during the stage."""
        model = _model()
        prefix_bns = [
            m for m in model.atoms[0].module.modules() if isinstance(m, BatchNorm2d)
        ]
        before = [bn.running_mean.copy() for bn in prefix_bns]
        head = AuxHead(model.feature_shape(1), 4, rng=RNG)
        spec = CascadeBatchSpec(start_atom=1, stop_atom=2, head=head)
        cascade_local_train(
            model, spec, _dataset(), iterations=3, batch_size=8, lr=0.05,
            mu=1e-5, eps0=0.02, eps_feature=0.3, attack_steps=1,
        )
        for bn, old in zip(prefix_bns, before):
            np.testing.assert_array_equal(bn.running_mean, old)

    def test_trained_segment_bn_stats_update(self):
        model = _model()
        seg_bns = [
            m for m in model.atoms[1].module.modules() if isinstance(m, BatchNorm2d)
        ]
        before = [bn.running_mean.copy() for bn in seg_bns]
        head = AuxHead(model.feature_shape(1), 4, rng=RNG)
        spec = CascadeBatchSpec(start_atom=1, stop_atom=2, head=head)
        cascade_local_train(
            model, spec, _dataset(), iterations=3, batch_size=8, lr=0.05,
            mu=1e-5, eps0=0.02, eps_feature=0.3, attack_steps=1,
        )
        moved = any(
            not np.allclose(bn.running_mean, old) for bn, old in zip(seg_bns, before)
        )
        assert moved

    def test_model_left_in_eval_after_training(self):
        model = _model()
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        spec = CascadeBatchSpec(start_atom=0, stop_atom=1, head=head)
        cascade_local_train(
            model, spec, _dataset(), iterations=1, batch_size=8, lr=0.05,
            mu=0.0, eps0=0.02, eps_feature=0.0, attack_steps=1,
        )
        assert all(not m.training for m in model.modules())


class TestRegularizerEffect:
    def test_mu_shrinks_feature_norms_over_training(self):
        """With a large μ the ℓ2 regularizer visibly shrinks the module's
        output features relative to μ=0 — Lemma 1's mechanism."""

        def train_and_norm(mu):
            model = _model()
            head = AuxHead(model.feature_shape(0), 4, rng=np.random.default_rng(5))
            spec = CascadeBatchSpec(start_atom=0, stop_atom=1, head=head)
            ds = _dataset()
            for i in range(6):
                cascade_local_train(
                    model, spec, ds, iterations=10, batch_size=16, lr=0.1,
                    mu=mu, eps0=0.02, eps_feature=0.0, attack_steps=1,
                    rng=np.random.default_rng(i),
                )
            model.eval()
            z = model.atoms[0].module(ds.x)
            return float(np.linalg.norm(z.reshape(len(ds.x), -1), axis=1).mean())

        assert train_and_norm(mu=1.0) < train_and_norm(mu=0.0)

    def test_loss_reports_include_regularizer(self):
        model = _model()
        model.eval()
        seg = model.segment(0, 1)
        head = AuxHead(model.feature_shape(0), 4, rng=RNG)
        x = RNG.uniform(size=(4, 3, 8, 8))
        y = np.array([0, 1, 2, 3])
        l0 = ModelWithLoss(seg, head, mu=0.0).loss_and_input_grad(x, y)[0]
        l1 = ModelWithLoss(seg, head, mu=1.0).loss_and_input_grad(x, y)[0]
        assert l1 > l0
