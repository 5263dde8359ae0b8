"""Tests for FGSM / PGD / APGD / the AutoAttack-lite ensemble."""

import numpy as np
import pytest

from repro.attacks import (
    ModelWithLoss,
    PGDConfig,
    apgd_attack,
    auto_attack_lite,
    fgsm_attack,
    pgd_attack,
)
from repro.attacks.pgd import gradient_step, project, random_init
from repro.nn import Linear, ReLU, Sequential

pytestmark = pytest.mark.evaluation

RNG = np.random.default_rng(3)


def _toy_model(in_dim=8, classes=3):
    rng = np.random.default_rng(11)
    return Sequential(Linear(in_dim, 16, rng=rng), ReLU(), Linear(16, classes, rng=rng))


def _data(n=6, in_dim=8, classes=3):
    x = np.clip(RNG.uniform(0.2, 0.8, size=(n, in_dim)), 0, 1)
    y = RNG.integers(0, classes, size=n)
    return x, y


class TestPGDPrimitives:
    def test_project_linf(self):
        d = np.array([[0.5, -0.5, 0.05]])
        np.testing.assert_allclose(project(d, 0.1, "linf"), [[0.1, -0.1, 0.05]])

    def test_project_l2_shrinks_to_ball(self):
        d = RNG.normal(size=(4, 10))
        p = project(d, 0.5, "l2")
        norms = np.linalg.norm(p.reshape(4, -1), axis=1)
        assert np.all(norms <= 0.5 + 1e-9)

    def test_project_l2_keeps_interior_points(self):
        d = np.full((1, 4), 0.01)
        np.testing.assert_allclose(project(d, 1.0, "l2"), d)

    def test_random_init_within_ball(self):
        for norm in ("linf", "l2"):
            d = random_init((16, 5), 0.3, norm, RNG)
            if norm == "linf":
                assert np.all(np.abs(d) <= 0.3 + 1e-12)
            else:
                assert np.all(np.linalg.norm(d, axis=1) <= 0.3 + 1e-9)

    def test_gradient_step_linf_is_sign(self):
        g = np.array([[2.0, -3.0, 0.0]])
        np.testing.assert_allclose(gradient_step(g, 0.1, "linf"), [[0.1, -0.1, 0.0]])

    def test_gradient_step_l2_is_normalised(self):
        g = RNG.normal(size=(2, 6))
        step = gradient_step(g, 0.5, "l2")
        np.testing.assert_allclose(np.linalg.norm(step, axis=1), [0.5, 0.5])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PGDConfig(eps=-1, steps=5)
        with pytest.raises(ValueError):
            PGDConfig(eps=0.1, steps=0)
        with pytest.raises(ValueError):
            PGDConfig(eps=0.1, steps=5, norm="l1")

    def test_default_step_size(self):
        cfg = PGDConfig(eps=0.1, steps=10)
        assert cfg.alpha == pytest.approx(2.5 * 0.1 / 10)


class TestPGDAttack:
    def test_linf_constraint_respected(self):
        model = _toy_model()
        x, y = _data()
        mwl = ModelWithLoss(model)
        adv = pgd_attack(mwl, x, y, PGDConfig(eps=0.05, steps=5, clip=(0, 1)), rng=RNG)
        assert np.all(np.abs(adv - x) <= 0.05 + 1e-12)
        assert np.all(adv >= 0) and np.all(adv <= 1)

    def test_l2_constraint_respected(self):
        model = _toy_model()
        x, y = _data()
        mwl = ModelWithLoss(model)
        adv = pgd_attack(
            mwl, x, y, PGDConfig(eps=0.3, steps=5, norm="l2", clip=None), rng=RNG
        )
        norms = np.linalg.norm((adv - x).reshape(len(x), -1), axis=1)
        assert np.all(norms <= 0.3 + 1e-9)

    def test_increases_loss(self):
        model = _toy_model()
        x, y = _data(n=32)
        mwl = ModelWithLoss(model)
        base, _ = mwl.loss_and_input_grad(x, y)
        adv = pgd_attack(mwl, x, y, PGDConfig(eps=0.2, steps=10), rng=RNG)
        attacked, _ = mwl.loss_and_input_grad(adv, y)
        assert attacked > base

    def test_zero_eps_returns_copy(self):
        model = _toy_model()
        x, y = _data()
        adv = pgd_attack(ModelWithLoss(model), x, y, PGDConfig(eps=0.0, steps=3))
        np.testing.assert_array_equal(adv, x)
        assert adv is not x

    def test_more_steps_not_weaker(self):
        model = _toy_model()
        x, y = _data(n=64)
        mwl = ModelWithLoss(model)
        rng1, rng2 = np.random.default_rng(0), np.random.default_rng(0)
        weak = pgd_attack(mwl, x, y, PGDConfig(eps=0.2, steps=1, rand_init=False), rng=rng1)
        strong = pgd_attack(mwl, x, y, PGDConfig(eps=0.2, steps=20, rand_init=False), rng=rng2)
        lw, _ = mwl.loss_and_input_grad(weak, y)
        ls, _ = mwl.loss_and_input_grad(strong, y)
        assert ls >= lw - 1e-6


class TestFGSM:
    def test_constraint(self):
        model = _toy_model()
        x, y = _data()
        adv = fgsm_attack(ModelWithLoss(model), x, y, eps=0.1)
        assert np.all(np.abs(adv - x) <= 0.1 + 1e-12)

    def test_negative_eps_rejected(self):
        model = _toy_model()
        x, y = _data()
        with pytest.raises(ValueError):
            fgsm_attack(ModelWithLoss(model), x, y, eps=-0.1)


class TestAPGD:
    def test_constraint_and_strength(self):
        model = _toy_model()
        x, y = _data(n=32)
        mwl = ModelWithLoss(model)
        adv = apgd_attack(mwl, x, y, eps=0.15, steps=15, rng=RNG)
        assert np.all(np.abs(adv - x) <= 0.15 + 1e-9)
        base = mwl.per_sample_losses(x, y)
        attacked = mwl.per_sample_losses(adv, y)
        # APGD keeps the per-sample best iterate: never worse than clean.
        assert np.all(attacked >= base - 1e-9)

    def test_zero_steps_noop(self):
        model = _toy_model()
        x, y = _data()
        adv = apgd_attack(ModelWithLoss(model), x, y, eps=0.1, steps=0)
        np.testing.assert_array_equal(adv, x)


class TestAutoAttackLite:
    def test_no_weaker_than_pgd(self):
        model = _toy_model()
        x, y = _data(n=48)
        mwl = ModelWithLoss(model)
        pgd_adv = pgd_attack(
            mwl, x, y, PGDConfig(eps=0.2, steps=10), rng=np.random.default_rng(0)
        )
        aa_adv = auto_attack_lite(
            mwl, x, y, eps=0.2, steps=10, rng=np.random.default_rng(0)
        )
        pgd_acc = float((mwl.logits(pgd_adv).argmax(1) == y).mean())
        aa_acc = float((mwl.logits(aa_adv).argmax(1) == y).mean())
        assert aa_acc <= pgd_acc + 1e-9

    def test_constraint(self):
        model = _toy_model()
        x, y = _data()
        adv = auto_attack_lite(ModelWithLoss(model), x, y, eps=0.1, steps=5, rng=RNG)
        assert np.all(np.abs(adv - x) <= 0.1 + 1e-9)
        assert np.all(adv >= 0) and np.all(adv <= 1)


class TestModelWithLoss:
    def test_head_composition(self):
        rng = np.random.default_rng(5)
        body = Sequential(Linear(6, 4, rng=rng), ReLU())
        head = Linear(4, 3, rng=rng)
        mwl = ModelWithLoss(body, head=head)
        x = RNG.normal(size=(2, 6))
        np.testing.assert_allclose(mwl.logits(x), head(body(x)))

    def test_per_sample_losses_match_mean_loss(self):
        model = _toy_model()
        x, y = _data(n=10)
        mwl = ModelWithLoss(model)
        mean_loss, _ = mwl.loss_and_input_grad(x, y)
        per_sample = mwl.per_sample_losses(x, y)
        assert mean_loss == pytest.approx(float(per_sample.mean()))
