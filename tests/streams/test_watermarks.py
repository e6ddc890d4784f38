"""Tests for the watermark generators."""

import numpy as np
import pytest

from repro.streams.tuples import Side, StreamTuple
from repro.streams.watermarks import (
    AdaptiveWatermark,
    HeuristicWatermark,
    PeriodicWatermark,
    suggest_omega,
)


def tup(event, delay=0.0):
    return StreamTuple(0, 1.0, event, event + delay, Side.R)


class TestPeriodic:
    def test_watermark_trails_max_event(self):
        wm = PeriodicWatermark(lag_ms=5.0)
        wm.observe(tup(10.0))
        wm.observe(tup(7.0))  # older event does not regress the watermark
        assert wm.watermark == 5.0

    def test_late_detection(self):
        wm = PeriodicWatermark(lag_ms=5.0)
        wm.observe(tup(20.0))
        # An event at 14 is behind the watermark, one at 16 is not.
        assert 14.0 < wm.watermark <= 16.0

    def test_empty_is_minus_inf(self):
        assert PeriodicWatermark(5.0).watermark == -float("inf")

    def test_rejects_negative_lag(self):
        with pytest.raises(ValueError):
            PeriodicWatermark(-1.0)


class TestHeuristic:
    def test_lag_tracks_max_delay(self):
        wm = HeuristicWatermark(margin=1.0)
        wm.observe(tup(10.0, delay=2.0))
        wm.observe(tup(11.0, delay=7.0))
        wm.observe(tup(12.0, delay=1.0))
        assert wm.lag == pytest.approx(7.0)

    def test_margin_scales(self):
        wm = HeuristicWatermark(margin=1.5)
        wm.observe(tup(10.0, delay=4.0))
        assert wm.lag == pytest.approx(6.0)

    def test_never_tightens(self):
        wm = HeuristicWatermark(margin=1.0)
        wm.observe(tup(10.0, delay=9.0))
        for e in range(11, 200):
            wm.observe(tup(float(e), delay=0.1))
        assert wm.lag == pytest.approx(9.0)


class TestAdaptive:
    def _feed(self, wm, rng, mean, n=500, t0=0.0):
        for i in range(n):
            wm.observe(tup(t0 + i, delay=float(rng.exponential(mean))))

    def test_lag_near_quantile(self):
        wm = AdaptiveWatermark(quantile=0.99, safety=1.0)
        self._feed(wm, np.random.default_rng(0), mean=2.0, n=2000)
        # 99th percentile of Exp(2) is ~9.2.
        assert wm.lag == pytest.approx(9.2, rel=0.2)

    def test_relaxes_after_congestion_clears(self):
        """Unlike the heuristic generator, the adaptive lag comes back
        down once recent delays shrink."""
        wm = AdaptiveWatermark(quantile=0.99, sample_size=512, safety=1.0)
        rng = np.random.default_rng(1)
        self._feed(wm, rng, mean=50.0, n=600)
        congested = wm.lag
        self._feed(wm, rng, mean=2.0, n=600, t0=1000.0)
        assert wm.lag < 0.3 * congested

    def test_cold_start_warms_on_max_delay(self):
        """Regression: before the quantile sample is usable (8 delays)
        the lag must fall back to the max delay seen, not 0 — a zero lag
        parks the watermark at ``max_event_seen`` and flags every
        ordinarily disordered tuple as late during cold start."""
        wm = AdaptiveWatermark(safety=1.1)
        wm.observe(tup(1.0, 5.0))
        assert wm.lag == pytest.approx(5.0 * 1.1)
        # An ordinary disordered tuple (delay within what has been seen)
        # must not be flagged late while warming up.
        wm.observe(tup(10.0, 0.0))
        assert wm.watermark <= 6.0

    def test_cold_start_heuristic_hands_over_to_quantile(self):
        wm = AdaptiveWatermark(quantile=0.5, safety=1.0)
        for i in range(7):
            wm.observe(tup(float(i), 10.0))
        assert wm.lag == pytest.approx(10.0)  # heuristic fallback
        for i in range(20):
            wm.observe(tup(10.0 + i, 2.0))
        # Quantile path active: median of recent delays, not the max.
        assert wm.lag < 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveWatermark(quantile=0.0)
        with pytest.raises(ValueError):
            AdaptiveWatermark(sample_size=2)


class TestSuggestOmega:
    def test_omega_is_window_plus_lag(self):
        wm = PeriodicWatermark(lag_ms=5.0)
        assert suggest_omega(wm, 10.0) == 15.0

    def test_auto_omega_recovers_full_accuracy(self):
        """Using the heuristic watermark's suggestion, the baseline join
        sees (nearly) every tuple — the 'wait for Delta' operating point."""
        from repro.joins.arrays import AggKind
        from repro.joins.baselines import WatermarkJoin
        from repro.joins.runner import run_operator
        from tests.conftest import fresh_micro_arrays

        arrays = fresh_micro_arrays()
        wm = HeuristicWatermark()
        order = np.argsort(arrays.arrival)
        for i in order[:20000]:
            wm.observe(
                StreamTuple(0, 1.0, float(arrays.event[i]), float(arrays.arrival[i]), Side.R)
            )
        omega = suggest_omega(wm, 10.0)
        res = run_operator(
            WatermarkJoin(AggKind.COUNT), arrays, 10.0, omega,
            t_start=50.0, t_end=1100.0,
        )
        assert res.mean_error < 0.01

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            suggest_omega(PeriodicWatermark(1.0), 0.0)


class TestAdaptiveShiftDetection:
    """Regression: lag tracking across a delay-regime (burst) boundary.

    A sliding delay sample alone keeps the quantile pinned to the stale
    regime until the deque turns over; these tests seed-fail without the
    recent-window shift detector.
    """

    def test_burst_front_raises_lag_before_deque_turnover(self):
        # Moderate quantile: 20 burst tuples are invisible to q90 over a
        # 256-sample deque (they sit above the 90th percentile), but the
        # recent-window median flips as soon as the burst dominates it.
        wm = AdaptiveWatermark(quantile=0.9, sample_size=256, safety=1.0)
        for e in range(256):
            wm.observe(tup(float(e), delay=1.0))
        for e in range(256, 276):
            wm.observe(tup(float(e), delay=40.0))
        assert wm.lag > 20.0

    def test_relaxes_quickly_after_burst_clears(self):
        # After the burst ends, the deque stays burst-dominated for up to
        # sample_size tuples; the shift detector must hand the quantile
        # to the calm recent window long before that.
        wm = AdaptiveWatermark(quantile=0.99, sample_size=256, safety=1.0)
        for e in range(64):
            wm.observe(tup(float(e), delay=1.0))
        for e in range(64, 256):
            wm.observe(tup(float(e), delay=40.0))
        assert wm.lag > 30.0  # burst regime fully reflected
        for e in range(256, 304):  # 48 calm tuples << sample_size
            wm.observe(tup(float(e), delay=1.0))
        assert wm.lag < 5.0

    def test_stable_regime_matches_plain_quantile(self):
        wm = AdaptiveWatermark(quantile=0.95, sample_size=128, safety=1.0)
        rng = np.random.default_rng(7)
        delays = rng.exponential(3.0, 400)
        for e, d in enumerate(delays):
            wm.observe(tup(float(e), delay=float(d)))
        expected = float(np.quantile(delays[-128:], 0.95))
        assert wm.lag == pytest.approx(expected)

    def test_rejects_bad_shift_ratio(self):
        with pytest.raises(ValueError):
            AdaptiveWatermark(shift_ratio=1.0)
