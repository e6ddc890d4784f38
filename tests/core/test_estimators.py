"""Tests for the AEMA and SVI estimator backends."""

import numpy as np
import pytest

from repro.core.estimators.aema import AEMAEstimator
from repro.core.estimators.svi_backend import SVIEstimator


def feed(est, rng, mean, n=200, sd=None):
    sd = sd if sd is not None else 0.05 * abs(mean) + 1e-3
    for x in rng.normal(mean, sd, n):
        est.observe(float(x))


@pytest.mark.parametrize("factory", [AEMAEstimator, SVIEstimator], ids=["aema", "svi"])
class TestCommonBehaviour:
    def test_converges_to_stationary_level(self, factory):
        est = factory()
        feed(est, np.random.default_rng(0), 50.0)
        assert est.estimate() == pytest.approx(50.0, rel=0.05)

    def test_tracks_level_shift(self, factory):
        est = factory()
        rng = np.random.default_rng(1)
        feed(est, rng, 10.0)
        feed(est, rng, 30.0, n=400)
        assert est.estimate() == pytest.approx(30.0, rel=0.1)

    def test_distortion_correction_in_observe(self, factory):
        """Observations at half the level with E[z]=2 recover the level."""
        est = factory()
        rng = np.random.default_rng(2)
        for x in rng.normal(5.0, 0.1, 300):
            est.observe(float(x), z_mean=2.0)
        assert est.estimate() == pytest.approx(10.0, rel=0.1)

    def test_blend_corrects_current_observations(self, factory):
        est = factory()
        feed(est, np.random.default_rng(3), 10.0)
        # Current window observed at ~30% completeness.
        blended = est.blend([3.0] * 10, [1.0 / 0.3] * 10)
        assert blended == pytest.approx(10.0, rel=0.15)

    def test_blend_empty_returns_estimate(self, factory):
        est = factory()
        feed(est, np.random.default_rng(4), 7.0)
        assert est.blend([], []) == pytest.approx(est.estimate())

    def test_credible_interval_brackets_estimate(self, factory):
        est = factory()
        feed(est, np.random.default_rng(5), 20.0)
        lo, hi = est.credible_interval()
        assert lo < est.estimate() < hi

    def test_cold_estimator_not_warm(self, factory):
        est = factory()
        assert not est.is_warm
        est.observe(1.0)
        est.observe(1.0)
        est.observe(1.0)
        assert est.is_warm

    def test_completeness_factor_is_none_for_analytical(self, factory):
        assert factory().completeness_factor() is None

    def test_weighted_blend_trusts_heavy_observation(self, factory):
        est = factory()
        feed(est, np.random.default_rng(6), 10.0)
        light = est.blend([14.0], [1.0], weights=[1.0])
        heavy = est.blend([14.0], [1.0], weights=[60.0])
        assert abs(heavy - 14.0) < abs(light - 14.0)

    def test_blend_rejects_mismatched_z_means(self, factory):
        """A short z_means must raise, not silently drop observations."""
        est = factory()
        feed(est, np.random.default_rng(8), 10.0)
        with pytest.raises(ValueError, match="z_means"):
            est.blend([1.0, 2.0, 3.0], [1.0, 1.0])

    def test_blend_rejects_mismatched_weights(self, factory):
        est = factory()
        feed(est, np.random.default_rng(9), 10.0)
        with pytest.raises(ValueError, match="weights"):
            est.blend([1.0, 2.0], [1.0, 1.0], weights=[1.0])


class TestAEMASpecifics:
    def test_adaptive_rate_rises_on_level_shift(self):
        est = AEMAEstimator()
        rng = np.random.default_rng(7)
        feed(est, rng, 10.0, n=300)
        calm_alpha = est._alpha
        for _ in range(10):
            est.observe(25.0)
        assert est._alpha > calm_alpha

    def test_adaptive_rate_falls_when_stable(self):
        est = AEMAEstimator()
        rng = np.random.default_rng(8)
        feed(est, rng, 10.0, n=500)
        assert est._alpha < 0.2

    def test_confidence_weight_inverse_of_alpha(self):
        est = AEMAEstimator(max_prior_weight=100.0)
        feed(est, np.random.default_rng(9), 10.0, n=300)
        assert est.confidence_weight == pytest.approx(
            min(1.0 / est._alpha, 100.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            AEMAEstimator(signal_decay=1.0)
        with pytest.raises(ValueError):
            AEMAEstimator(alpha_min=0.5, alpha_max=0.1)

    def test_reset_clears_state(self):
        est = AEMAEstimator()
        feed(est, np.random.default_rng(10), 5.0)
        est.reset()
        assert est.estimate() == 0.0
        assert not est.is_warm


class TestSVISpecifics:
    def test_scale_normalisation_keeps_blend_unbiased_at_any_magnitude(self):
        """The z-collapse pathology: without normalisation, large raw
        values make the blend ignore its observations."""
        for magnitude in (0.01, 1.0, 1000.0):
            est = SVIEstimator()
            rng = np.random.default_rng(11)
            feed(est, rng, magnitude, sd=magnitude * 0.05)
            blended = est.blend([magnitude * 1.5] * 8, [1.0] * 8)
            # The blend must move meaningfully toward the new evidence.
            assert blended > magnitude * 1.02

    def test_estimate_in_original_units(self):
        est = SVIEstimator()
        feed(est, np.random.default_rng(12), 500.0, sd=10.0)
        assert est.estimate() == pytest.approx(500.0, rel=0.05)
