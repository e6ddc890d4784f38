"""Tests for the compensation formulas (paper Section 3.2)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.compensation import compensate, product_interval
from repro.joins.arrays import AggKind

nonneg = st.floats(min_value=0, max_value=1e5)


class TestCompensate:
    def test_count_formula(self):
        """O = sigma * n_S * n_R (paper Section 3.2)."""
        est = compensate(AggKind.COUNT, n_r=6.0, n_s=6.0, sigma=4.0 / 25.0)
        assert est.value == pytest.approx(4.0 / 25.0 * 36.0)

    def test_sum_formula(self):
        """O = sigma * n_S * n_R * alpha_R."""
        est = compensate(AggKind.SUM, 6.0, 6.0, 4.0 / 25.0, alpha_r=5.0)
        assert est.value == pytest.approx(4.0 / 25.0 * 36.0 * 5.0)

    def test_avg_is_alpha(self):
        est = compensate(AggKind.AVG, 6.0, 6.0, 0.2, alpha_r=5.0)
        assert est.value == 5.0

    def test_negative_estimates_clamped(self):
        est = compensate(AggKind.COUNT, -3.0, 5.0, 0.1)
        assert est.value == 0.0
        assert est.n_r == 0.0

    @given(n_r=nonneg, n_s=nonneg, sigma=st.floats(min_value=0, max_value=1))
    def test_count_value_nonnegative_property(self, n_r, n_s, sigma):
        assert compensate(AggKind.COUNT, n_r, n_s, sigma).value >= 0.0

    @given(n_r=nonneg, n_s=nonneg, sigma=st.floats(min_value=0, max_value=1))
    def test_count_bounded_by_cross_product(self, n_r, n_s, sigma):
        """sigma <= 1 implies O <= n_r * n_s."""
        assert compensate(AggKind.COUNT, n_r, n_s, sigma).value <= n_r * n_s + 1e-6


class TestProductInterval:
    def test_zero_variance_collapses(self):
        lo, hi = product_interval([2.0, 3.0], [0.0, 0.0])
        assert lo == hi == pytest.approx(6.0)

    def test_interval_widens_with_uncertainty(self):
        lo1, hi1 = product_interval([2.0, 3.0], [0.1, 0.1])
        lo2, hi2 = product_interval([2.0, 3.0], [0.5, 0.5])
        assert hi2 - lo2 > hi1 - lo1

    def test_relative_variances_add(self):
        lo, hi = product_interval([10.0], [1.0], quantile_z=1.0)
        assert (hi - lo) / 2 == pytest.approx(1.0)
        lo, hi = product_interval([10.0, 10.0], [1.0, 1.0], quantile_z=1.0)
        assert (hi - lo) / 2 == pytest.approx(100.0 * math.sqrt(0.02), rel=1e-9)

    def test_zero_mean_factor_collapses_product(self):
        assert product_interval([0.0, 5.0], [1.0, 1.0]) == (0.0, 0.0)

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            product_interval([1.0], [1.0, 2.0])

    @given(
        means=st.lists(st.floats(min_value=0.1, max_value=100), min_size=1, max_size=4),
        rel=st.floats(min_value=0, max_value=0.5),
    )
    def test_interval_contains_product(self, means, rel):
        stds = [m * rel for m in means]
        lo, hi = product_interval(means, stds)
        product = math.prod(means)
        assert lo <= product <= hi


class TestProductIntervalOverflow:
    def test_extreme_relative_spread_saturates_instead_of_raising(self):
        # Regression: a tiny mean with a huge std used to raise
        # OverflowError from ``(s / m) ** 2`` (caught by the doc-examples
        # gate running examples/multicore_scaling.py).  The honest answer
        # is an unbounded interval, not a crash.
        lo, hi = product_interval([1e-200, 2.0], [1.0, 0.1])
        assert lo == -math.inf and hi == math.inf
