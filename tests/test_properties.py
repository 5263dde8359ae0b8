"""Hypothesis property-based tests on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.attacks.pgd import gradient_step, project, random_init
from repro.data.partition import pathological_partition
from repro.flsim.aggregation import (
    AggregationError,
    masked_partial_average,
    weighted_average_states,
)
from repro.nn.functional import col2im, im2col, one_hot
from repro.nn.losses import log_softmax, softmax

finite_floats = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


@st.composite
def logits_arrays(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(2, 8))
    return draw(arrays(np.float64, (n, k), elements=finite_floats))


@given(logits_arrays())
def test_softmax_is_distribution(logits):
    p = softmax(logits)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


@given(logits_arrays(), st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariant(logits, shift):
    np.testing.assert_allclose(softmax(logits), softmax(logits + shift), atol=1e-9)


@given(logits_arrays())
def test_log_softmax_never_positive(logits):
    assert np.all(log_softmax(logits) <= 1e-12)


@st.composite
def perturbations(draw):
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 12))
    delta = draw(arrays(np.float64, (n, d), elements=finite_floats))
    eps = draw(st.floats(min_value=1e-3, max_value=10.0))
    return delta, eps


@given(perturbations())
def test_linf_projection_idempotent_and_feasible(args):
    delta, eps = args
    p = project(delta, eps, "linf")
    assert np.all(np.abs(p) <= eps + 1e-12)
    np.testing.assert_allclose(project(p, eps, "linf"), p, atol=1e-12)


@given(perturbations())
def test_l2_projection_idempotent_and_feasible(args):
    delta, eps = args
    p = project(delta, eps, "l2")
    norms = np.linalg.norm(p, axis=1)
    assert np.all(norms <= eps * (1 + 1e-9))
    np.testing.assert_allclose(project(p, eps, "l2"), p, atol=1e-9)


@given(perturbations())
def test_projection_is_contraction(args):
    """Projection never increases the norm."""
    delta, eps = args
    p2 = project(delta, eps, "l2")
    assert np.all(
        np.linalg.norm(p2, axis=1) <= np.linalg.norm(delta, axis=1) + 1e-9
    )


@given(st.integers(1, 5), st.integers(1, 16), st.floats(1e-3, 5.0), st.integers(0, 2**31 - 1))
def test_random_init_feasible(n, d, eps, seed):
    rng = np.random.default_rng(seed)
    for norm in ("linf", "l2"):
        delta = random_init((n, d), eps, norm, rng)
        if norm == "linf":
            assert np.all(np.abs(delta) <= eps + 1e-12)
        else:
            assert np.all(np.linalg.norm(delta, axis=1) <= eps * (1 + 1e-9))


@given(perturbations(), st.floats(min_value=1e-3, max_value=2.0))
def test_gradient_step_magnitude(args, alpha):
    grad, _ = args
    step_linf = gradient_step(grad, alpha, "linf")
    assert np.all(np.abs(step_linf) <= alpha + 1e-12)
    step_l2 = gradient_step(grad, alpha, "l2")
    assert np.all(np.linalg.norm(step_l2, axis=1) <= alpha * (1 + 1e-9))


@st.composite
def im2col_cases(draw):
    n = draw(st.integers(1, 2))
    c = draw(st.integers(1, 3))
    h = draw(st.integers(3, 8))
    k = draw(st.integers(1, 3))
    s = draw(st.integers(1, 2))
    p = draw(st.integers(0, 1))
    if h + 2 * p < k:
        p = k  # ensure valid output
    x = draw(
        arrays(np.float64, (n, c, h, h), elements=st.floats(-10, 10, allow_nan=False))
    )
    return x, k, s, p


@given(im2col_cases())
@settings(max_examples=40)
def test_im2col_col2im_adjoint_property(case):
    """<im2col(x), y> == <x, col2im(y)> for random shapes/strides/pads."""
    x, k, s, p = case
    cols, _, _ = im2col(x, k, k, s, p)
    rng = np.random.default_rng(0)
    y = rng.normal(size=cols.shape)
    lhs = float((cols * y).sum())
    rhs = float((x * col2im(y, x.shape, k, k, s, p)).sum())
    assert abs(lhs - rhs) <= 1e-7 * max(1.0, abs(lhs))


@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_pathological_partition_no_duplicates(clients, seed):
    labels = np.arange(200) % 10
    shards = pathological_partition(labels, clients, rng=np.random.default_rng(seed))
    merged = np.concatenate(shards)
    assert len(np.unique(merged)) == len(merged)


@given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_pathological_partition_deals_equal_shards_of_real_rows(clients, per_class, seed):
    labels = np.arange(10 * per_class) % 10
    shards = pathological_partition(labels, clients, rng=np.random.default_rng(seed))
    assert len(shards) == clients
    assert all(len(s) == len(labels) // clients for s in shards)
    for shard in shards:
        assert np.all(np.diff(shard) > 0)  # sorted, no repeats
        assert shard.size == 0 or (shard[0] >= 0 and shard[-1] < len(labels))


@st.composite
def state_lists(draw):
    k = draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 4)),)
    states = [
        {"w": draw(arrays(np.float64, shape, elements=finite_floats))} for _ in range(k)
    ]
    weights = [draw(st.floats(0.1, 10.0)) for _ in range(k)]
    return states, weights


@given(state_lists())
def test_weighted_average_within_convex_hull(args):
    states, weights = args
    out = weighted_average_states(states, weights)["w"]
    stacked = np.stack([s["w"] for s in states])
    assert np.all(out >= stacked.min(axis=0) - 1e-9)
    assert np.all(out <= stacked.max(axis=0) + 1e-9)


@given(state_lists())
def test_weighted_average_scale_invariant_in_weights(args):
    states, weights = args
    a = weighted_average_states(states, weights)["w"]
    b = weighted_average_states(states, [10.0 * w for w in weights])["w"]
    np.testing.assert_allclose(a, b, atol=1e-9)


@given(arrays(np.float64, (4,), elements=finite_floats))
def test_masked_partial_average_no_updates_raises_typed_error(g):
    # An empty cohort is no longer a silent identity: it raises the typed
    # AggregationError so the engine's abort path can refuse the round
    # (which leaves the global model untouched — identity, but explicit).
    with pytest.raises(AggregationError):
        masked_partial_average({"w": g}, [])


@given(st.lists(st.integers(0, 9), min_size=1, max_size=32))
def test_one_hot_rows(labels):
    oh = one_hot(np.asarray(labels), 10)
    np.testing.assert_allclose(oh.sum(axis=1), 1.0)
    assert np.all((oh == 0) | (oh == 1))
    np.testing.assert_array_equal(oh.argmax(axis=1), labels)
