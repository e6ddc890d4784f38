"""Tests for the learning-based (MLP) estimator backend."""

import numpy as np
import pytest

from repro.core.estimators.mlp_backend import (
    CUR_SLOTS,
    HIST_SLOTS,
    N_FEATURES,
    N_OUTPUTS,
    MLPEstimator,
    _pretrained_weights,
    build_features,
)


@pytest.fixture(scope="module")
def estimator() -> MLPEstimator:
    """One pre-trained estimator shared by read-only tests."""
    return MLPEstimator(seed=0)


class TestFeatureBuilder:
    def test_shape(self):
        f = build_features([1.0] * 5, [0.5, 0.6], [2.0, 2.0], 1.0)
        assert f.shape == (N_FEATURES,)

    def test_history_padding_left(self):
        f = build_features([2.0], [], [], 1.0)
        assert f[HIST_SLOTS - 1] == 2.0
        assert f[0] == 1.0  # padding value

    def test_scale_normalisation(self):
        f1 = build_features([10.0] * 8, [5.0], [1.0], 10.0)
        f2 = build_features([1.0] * 8, [0.5], [1.0], 1.0)
        assert np.allclose(f1, f2)

    def test_empty_observations_have_zero_mask(self):
        f = build_features([1.0] * 8, [], [], 1.0)
        mask = f[HIST_SLOTS + 2 * CUR_SLOTS : HIST_SLOTS + 3 * CUR_SLOTS]
        assert np.all(mask == 0.0)

    def test_context_validated(self):
        with pytest.raises(ValueError):
            build_features([1.0], [], [], 1.0, context=(1.0, 1.0))

    def test_weights_shift_slot_averages(self):
        # More observations than slots, so each slot averages two values
        # and the weighting matters.
        xs = [2.0, 0.0] * 8
        zs = [1.0] * 16
        heavy_first = build_features(
            [1.0] * 8, xs, zs, 1.0, weights=[100.0, 1.0] * 8
        )
        heavy_last = build_features(
            [1.0] * 8, xs, zs, 1.0, weights=[1.0, 100.0] * 8
        )
        assert not np.allclose(heavy_first, heavy_last)


class TestPretraining:
    def test_weights_cached_per_seed(self):
        a = _pretrained_weights(0)
        b = _pretrained_weights(0)
        assert all(x is y for x, y in zip(a, b))

    def test_output_head_has_at_least_seven_dims(self):
        """Paper Section 5.2 step (1)."""
        assert N_OUTPUTS >= 7

    def test_pretrained_net_beats_trust_history_with_good_observations(self, estimator):
        """With a reliable high-weight observation, the estimate must move
        well beyond the history anchor toward the observation."""
        rng = np.random.default_rng(0)
        hist = list(1.0 + rng.normal(0, 0.08, 16))
        f = build_features(hist, [1.3], [1.0], 1.0, weights=[60.0])
        est = estimator._forward_estimate(f, 1.0)
        anchor = float(np.mean(hist[-8:]))
        assert est > anchor + 0.1


class TestContinualLearning:
    def test_observe_builds_history_and_scale(self):
        est = MLPEstimator(seed=0)
        for _ in range(10):
            est.observe(5.0)
        assert est.is_warm
        assert est.estimate() == pytest.approx(5.0, rel=0.2)

    def test_cold_fallback_blend(self):
        est = MLPEstimator(seed=0)
        est.observe(10.0)
        assert est.blend([12.0], [1.0]) == pytest.approx(11.0, rel=0.2)

    def test_blend_rejects_mismatched_lengths(self, estimator):
        with pytest.raises(ValueError, match="z_means"):
            estimator.blend([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="weights"):
            estimator.blend([1.0, 2.0], [1.0, 1.0], weights=[1.0, 1.0, 1.0])

    def test_feedback_reduces_residual_on_biased_stream(self):
        """Delayed ground truth at 1.3x the network's belief must pull the
        estimate upward over repeated deliveries."""
        est = MLPEstimator(seed=0)
        rng = np.random.default_rng(1)
        for x in rng.normal(10.0, 0.5, 60):
            est.observe(float(x))
        before = est.blend([10.0], [1.0], tag=0)
        for tag in range(1, 120):
            est.blend([10.0], [1.0], tag=tag)
            est.feedback(tag, 13.0)
        after = est.blend([10.0], [1.0], tag=999)
        assert abs(after - 13.0) < abs(before - 13.0)

    def test_feedback_for_unknown_tag_is_ignored(self):
        est = MLPEstimator(seed=0)
        est.feedback("never-seen", 5.0)  # must not raise

    def test_completeness_factor_cold_is_one(self):
        est = MLPEstimator(seed=0)
        assert est.completeness_factor() == 1.0

    def test_completeness_factor_learns_regime_mapping(self):
        """Kernel memory: feed (context, m_true) pairs for two regimes and
        expect context-conditional answers."""
        est = MLPEstimator(seed=0)
        for _ in range(10):
            est.observe(1.0)
        calm_ctx = (0.8, 1.2, 1.15, 1.1)
        congested_ctx = (0.8, 0.5, 0.6, 0.7)
        for tag in range(60):
            ctx = calm_ctx if tag % 2 == 0 else congested_ctx
            est.set_context(ctx)
            est.blend([1.0], [1.0], tag=tag)
            est.feedback_completeness(tag, 1.3 if tag % 2 == 0 else 0.6)
        est.set_context(calm_ctx)
        assert est.completeness_factor() == pytest.approx(1.3, abs=0.1)
        est.set_context(congested_ctx)
        assert est.completeness_factor() == pytest.approx(0.6, abs=0.1)

    def test_residual_std_tracks_errors(self):
        est = MLPEstimator(seed=0)
        for _ in range(20):
            est.observe(10.0)
        for tag in range(30):
            est.blend([], [], tag=tag)
            est.feedback(tag, 20.0)  # persistently surprising truth
        assert est.residual_std() > 1.0

    def test_reset_state_keeps_weights(self):
        est = MLPEstimator(seed=0)
        w_before = [p.copy() for p in est.net.params()]
        for _ in range(10):
            est.observe(3.0)
        est.reset_state()
        assert not est.is_warm
        for p, w in zip(est.net.params(), w_before):
            assert np.array_equal(p, w)
