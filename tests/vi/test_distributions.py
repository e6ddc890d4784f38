"""Tests for the conjugate distribution classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vi.distributions import Gamma, Gaussian

positive = st.floats(min_value=1e-3, max_value=1e3)
finite = st.floats(min_value=-1e3, max_value=1e3)


class TestGaussian:
    def test_moments(self):
        g = Gaussian(mean=2.0, precision=4.0)
        assert g.variance == 0.25
        assert g.std == 0.5
        assert g.second_moment() == pytest.approx(4.25)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            Gaussian(0.0, -1.0)
        with pytest.raises(ValueError):
            Gaussian(math.nan, 1.0)

    def test_logpdf_peak_at_mean(self):
        g = Gaussian(1.0, 2.0)
        assert g.logpdf(1.0) > g.logpdf(1.5)
        assert g.logpdf(1.0) == pytest.approx(0.5 * (math.log(2.0) - math.log(2 * math.pi)))

    def test_logpdf_integrates_to_one(self):
        g = Gaussian(0.5, 3.0)
        xs = np.linspace(-10, 10, 20001)
        total = np.trapezoid(np.exp([g.logpdf(x) for x in xs]), xs)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_entropy_formula(self):
        g = Gaussian(0.0, 1.0)
        assert g.entropy() == pytest.approx(0.5 * math.log(2 * math.pi * math.e))

    @given(m1=finite, p1=positive, m2=finite, p2=positive)
    def test_kl_nonnegative_and_zero_iff_equal(self, m1, p1, m2, p2):
        a, b = Gaussian(m1, p1), Gaussian(m2, p2)
        assert a.kl_to(b) >= -1e-9
        assert a.kl_to(a) == pytest.approx(0.0, abs=1e-12)

    def test_interval_symmetric(self):
        g = Gaussian(10.0, 4.0)
        lo, hi = g.interval(1.96)
        assert (lo + hi) / 2 == pytest.approx(10.0)
        assert hi - lo == pytest.approx(2 * 1.96 * 0.5)

    def test_conjugate_update_pulls_toward_data(self):
        prior = Gaussian(0.0, 1.0)
        post = prior.posterior_with_known_precision([10.0] * 100, obs_precision=1.0)
        assert post.mean == pytest.approx(10.0 * 100 / 101)
        assert post.precision == pytest.approx(101.0)

    def test_conjugate_update_empty_is_identity(self):
        prior = Gaussian(3.0, 2.0)
        assert prior.posterior_with_known_precision([], 1.0) == prior


class TestGamma:
    def test_moments(self):
        g = Gamma(shape=4.0, rate=2.0)
        assert g.mean == 2.0
        assert g.variance == 1.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            Gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            Gamma(1.0, -1.0)

    def test_mean_log_less_than_log_mean(self):
        """Jensen: E[log x] < log E[x]."""
        g = Gamma(3.0, 1.5)
        assert g.mean_log() < math.log(g.mean)

    def test_logpdf_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        g = Gamma(2.5, 1.7)
        for x in (0.1, 1.0, 3.3):
            expected = scipy_stats.gamma.logpdf(x, a=2.5, scale=1 / 1.7)
            assert g.logpdf(x) == pytest.approx(float(expected), rel=1e-9)

    def test_logpdf_zero_outside_support(self):
        assert Gamma(2.0, 1.0).logpdf(-1.0) == -math.inf

    @settings(max_examples=50)
    @given(a1=positive, b1=positive, a2=positive, b2=positive)
    def test_kl_nonnegative(self, a1, b1, a2, b2):
        g1, g2 = Gamma(a1, b1), Gamma(a2, b2)
        assert g1.kl_to(g2) >= -1e-7
        assert g1.kl_to(g1) == pytest.approx(0.0, abs=1e-9)

    def test_entropy_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        g = Gamma(3.0, 0.5)
        expected = scipy_stats.gamma.entropy(a=3.0, scale=2.0)
        assert g.entropy() == pytest.approx(float(expected), rel=1e-9)
