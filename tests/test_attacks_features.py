"""Attacks on intermediate features — the path FedProphet training uses."""

import numpy as np
import pytest

from repro.attacks import ModelWithLoss, PGDConfig, pgd_attack
from repro.attacks.autoattack import _checkpoints
from repro.core.heads import AuxHead
from repro.models import build_cnn

RNG = np.random.default_rng(0)


def _setup():
    model = build_cnn(3, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(1))
    model.eval()
    seg = model.segment(1, 2)
    head = AuxHead(model.feature_shape(1), 4, rng=np.random.default_rng(2))
    mwl = ModelWithLoss(seg, head, mu=1e-3)
    x = RNG.uniform(0.2, 0.8, size=(8, 3, 8, 8))
    y = RNG.integers(0, 4, size=8)
    z = model.forward_until(x, 1)
    return model, mwl, z, y


class TestFeatureSpacePGD:
    def test_l2_ball_respected_on_features(self):
        _, mwl, z, y = _setup()
        cfg = PGDConfig(eps=0.5, steps=4, norm="l2", clip=None)
        z_adv = pgd_attack(mwl, z, y, cfg, rng=RNG)
        norms = np.linalg.norm((z_adv - z).reshape(len(z), -1), axis=1)
        assert np.all(norms <= 0.5 + 1e-9)

    def test_attack_increases_regularized_loss(self):
        _, mwl, z, y = _setup()
        base = mwl.loss_and_input_grad(z, y)[0]
        cfg = PGDConfig(eps=1.0, steps=6, norm="l2", clip=None)
        z_adv = pgd_attack(mwl, z, y, cfg, rng=RNG)
        assert mwl.loss_and_input_grad(z_adv, y)[0] > base

    def test_no_clipping_applied_to_features(self):
        """Intermediate features are unbounded — clip must stay disabled."""
        _, mwl, z, y = _setup()
        cfg = PGDConfig(eps=5.0, steps=3, norm="l2", clip=None)
        z_adv = pgd_attack(mwl, z, y, cfg, rng=RNG)
        # with a large eps the attack may push features outside [0, 1]
        assert np.isfinite(z_adv).all()

    def test_mu_contributes_to_attack_gradient(self):
        model, _, z, y = _setup()
        seg = model.segment(1, 2)
        head = AuxHead(model.feature_shape(1), 4, rng=np.random.default_rng(2))
        no_reg = ModelWithLoss(seg, head, mu=0.0)
        with_reg = ModelWithLoss(seg, head, mu=10.0)
        _, g0 = no_reg.loss_and_input_grad(z, y)
        _, g1 = with_reg.loss_and_input_grad(z, y)
        assert not np.allclose(g0, g1)


class TestModelWithLossHeads:
    def test_aux_head_composition(self):
        model = build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(3))
        model.eval()
        chain = model.segment(0, 1)
        head = AuxHead(model.feature_shape(0), 4, rng=np.random.default_rng(4))
        mwl = ModelWithLoss(chain, head=head)
        x = RNG.uniform(size=(4, 3, 8, 8))
        y = np.array([0, 1, 2, 3])
        logits = mwl.logits(x)
        assert logits.shape == (4, 4)
        loss, grad = mwl.loss_and_input_grad(x, y)
        assert np.isfinite(loss)
        assert grad.shape == x.shape

    def test_pgd_through_aux_head(self):
        model = build_cnn(2, 4, (3, 8, 8), base_channels=4, rng=np.random.default_rng(3))
        model.eval()
        chain = model.segment(0, 2)
        head = AuxHead(model.feature_shape(1), 4, rng=np.random.default_rng(4))
        mwl = ModelWithLoss(chain, head=head)
        x = RNG.uniform(0.3, 0.7, size=(6, 3, 8, 8))
        y = RNG.integers(0, 4, size=6)
        adv = pgd_attack(mwl, x, y, PGDConfig(eps=0.05, steps=3), rng=RNG)
        assert np.all(np.abs(adv - x) <= 0.05 + 1e-12)


class TestAPGDCheckpoints:
    def test_schedule_monotone_and_bounded(self):
        for steps in (5, 20, 100):
            pts = _checkpoints(steps)
            assert pts == sorted(pts)
            assert all(0 <= p < steps for p in pts)

    def test_small_step_counts(self):
        assert _checkpoints(1) == [0]
