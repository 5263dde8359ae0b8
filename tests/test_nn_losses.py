"""Tests for cross-entropy and the strong-convexity early-exit loss."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, Linear, StrongConvexityLoss, softmax, log_softmax
from repro.nn.losses import accuracy
from tests.helpers import numerical_grad

RNG = np.random.default_rng(7)


def test_softmax_rows_sum_to_one():
    p = softmax(RNG.normal(size=(5, 4)))
    np.testing.assert_allclose(p.sum(axis=1), np.ones(5))
    assert np.all(p >= 0)


def test_softmax_shift_invariance():
    logits = RNG.normal(size=(3, 4))
    np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))


def test_log_softmax_matches_log_of_softmax():
    logits = RNG.normal(size=(3, 4))
    np.testing.assert_allclose(log_softmax(logits), np.log(softmax(logits)), atol=1e-12)


def test_softmax_extreme_logits_stable():
    logits = np.array([[1e4, -1e4, 0.0]])
    p = softmax(logits)
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)


def test_cross_entropy_uniform_logits():
    ce = CrossEntropyLoss()
    loss = ce(np.zeros((4, 10)), np.array([0, 3, 5, 9]))
    assert loss == pytest.approx(np.log(10))


def test_cross_entropy_gradient_matches_numeric():
    ce = CrossEntropyLoss()
    logits = RNG.normal(size=(3, 5))
    y = np.array([1, 0, 4])
    ce(logits, y)
    analytic = ce.backward()
    numeric = numerical_grad(lambda: ce(logits, y), logits)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_cross_entropy_rejects_1d_logits():
    with pytest.raises(ValueError):
        CrossEntropyLoss()(np.zeros(4), np.array([0]))


def test_strong_convexity_loss_reduces_to_ce_when_mu_zero():
    head = Linear(6, 3, rng=RNG)
    feats = RNG.normal(size=(4, 6))
    y = np.array([0, 1, 2, 1])
    scl = StrongConvexityLoss(head, mu=0.0)
    ce = CrossEntropyLoss()
    assert scl(feats, y) == pytest.approx(ce(head(feats), y))


def test_strong_convexity_loss_adds_regularizer():
    head = Linear(6, 3, rng=RNG)
    feats = RNG.normal(size=(4, 6))
    y = np.array([0, 1, 2, 1])
    l0 = StrongConvexityLoss(head, mu=0.0)(feats, y)
    l1 = StrongConvexityLoss(head, mu=2.0)(feats, y)
    expected_reg = 0.5 * 2.0 * (feats**2).sum(axis=1).mean()
    assert l1 - l0 == pytest.approx(expected_reg)


@pytest.mark.parametrize("shape", [(2, 5), (2, 3, 2, 2)])
def test_strong_convexity_feature_gradient_matches_numeric(shape):
    # A conv feature gets its gradient back in its own shape.
    head = Linear(int(np.prod(shape[1:])), 3, rng=RNG)
    feats = RNG.normal(size=shape)
    y = np.array([2, 0])
    scl = StrongConvexityLoss(head, mu=0.1)
    scl(feats, y)
    analytic = scl.backward(accumulate_head_grads=False)
    assert analytic.shape == shape
    numeric = numerical_grad(lambda: scl(feats, y), feats)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)


def test_strong_convexity_head_grads_accumulate_only_when_asked():
    head = Linear(5, 3, rng=RNG)
    feats = RNG.normal(size=(2, 5))
    y = np.array([2, 0])
    scl = StrongConvexityLoss(head, mu=0.1)
    head.zero_grad()
    scl(feats, y)
    scl.backward(accumulate_head_grads=False)
    assert np.abs(head.weight.grad).sum() == 0
    scl(feats, y)
    scl.backward(accumulate_head_grads=True)
    assert np.abs(head.weight.grad).sum() > 0


def test_strong_convexity_flattens_conv_features():
    head = Linear(12, 3, rng=RNG)
    feats = RNG.normal(size=(2, 3, 2, 2))
    y = np.array([0, 1])
    loss = StrongConvexityLoss(head, mu=0.0)(feats, y)
    assert np.isfinite(loss)


def test_negative_mu_rejected():
    with pytest.raises(ValueError):
        StrongConvexityLoss(Linear(2, 2), mu=-1.0)


def test_accuracy():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)
