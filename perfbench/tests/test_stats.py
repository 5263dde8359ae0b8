"""Percentile, quartile and regression-bound arithmetic."""

import math
import statistics

import pytest

from perfbench import stats


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 90) == pytest.approx(3.7)
    assert stats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_quartiles_match_the_drivers_estimator():
    values = [10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 14.0, 10.5, 11.5, 12.5]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.summarise(values) == {"median": q2, "q1": q1, "q3": q3, "n": 10}


def test_one_sample_has_no_spread():
    assert stats.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert stats.spread([3.0]) == 0.0


def test_bound_is_three_spreads_floored_and_capped():
    assert stats.bound_from_spread(0.0) == 0.05
    assert stats.bound_from_spread(0.01) == 0.05
    assert stats.bound_from_spread(0.03) == pytest.approx(0.09)
    assert stats.bound_from_spread(0.2) == 0.25
    assert stats.bound_from_spread(0.03, cap=0.08) == 0.08


def test_worse_by_follows_the_metrics_direction():
    assert stats.worse_by(10.0, 11.0, "lower") == pytest.approx(0.10)
    assert stats.worse_by(10.0, 9.0, "lower") == pytest.approx(-0.10)
    assert stats.worse_by(100.0, 90.0, "higher") == pytest.approx(0.10)
    assert stats.worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert stats.worse_by(0.0, 0.0, "lower") == 0.0
    assert stats.worse_by(0.0, 1.0, "lower") == math.inf
    with pytest.raises(ValueError):
        stats.worse_by(1.0, 1.0, "sideways")
