"""Tests for latency percentiles and the tracker."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics.latency import LatencyTracker, p95, percentile


class TestPercentile:
    def test_nearest_rank_convention(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 95.0) == 95
        assert percentile(samples, 50.0) == 50
        assert percentile(samples, 100.0) == 100

    def test_p0_is_min(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0

    def test_empty(self):
        assert percentile([], 95.0) == 0.0

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_single_sample(self):
        assert p95([7.0]) == 7.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_within_sample_range(self, samples):
        v = percentile(samples, 95.0)
        assert min(samples) <= v <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
    def test_percentile_monotone_in_q(self, samples):
        assert percentile(samples, 50.0) <= percentile(samples, 95.0)


class TestLatencyTracker:
    def test_record_clamps_negative(self):
        t = LatencyTracker()
        t.record(emit_time=5.0, arrival_time=10.0)
        assert t.samples[0] == 0.0

    def test_extend_accepts_iterables(self):
        import numpy as np

        t = LatencyTracker()
        t.extend(np.array([1.0, -2.0, 3.0]))
        assert t.count == 3
        assert t.mean() == pytest.approx(4.0 / 3)

    def test_statistics(self):
        t = LatencyTracker()
        t.extend(float(i) for i in range(1, 101))
        assert t.p95() == 95.0
        assert t.max() == 100.0
        assert t.mean() == pytest.approx(50.5)

    def test_empty_statistics(self):
        t = LatencyTracker()
        assert t.p95() == 0.0
        assert t.mean() == 0.0
        assert t.max() == 0.0

    def test_negative_samples_are_counted_not_hidden(self):
        """Regression: an emit-before-arrival sample means a clock-skew
        or scheduling bug upstream.  The clamp keeps percentiles sane,
        but the occurrence must be observable."""
        from repro import obs

        t = LatencyTracker()
        with obs.scoped() as reg:
            t.record(emit_time=5.0, arrival_time=10.0)
            t.extend([1.0, -2.0, -3.0])
            t.record(emit_time=10.0, arrival_time=5.0)  # fine
        assert t.negative_samples == 3
        assert reg.counter("latency.negative_samples").value == 3
        assert min(t.samples) == 0.0  # percentile data still clamped


def loop_extend(tracker, samples):
    """The per-sample loop ``LatencyTracker.extend`` replaced."""
    for s in samples:
        tracker._samples.append(tracker._clamp(float(s)))


@given(
    samples=st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, -1e-300, float("nan")]),
        ),
        max_size=60,
    ),
    as_array=st.booleans(),
)
def test_vectorised_extend_equals_loop(samples, as_array):
    """Same samples bit for bit (NaN and ``-0.0`` kept, negatives to
    ``+0.0``) and the same negative counts as the old per-sample loop."""
    import numpy as np

    from repro import obs

    fast, slow = LatencyTracker(), LatencyTracker()
    with obs.scoped() as fast_reg:
        fast.extend(np.array(samples, dtype=float) if as_array else samples)
    with obs.scoped() as slow_reg:
        loop_extend(slow, samples)
    assert np.array(fast.samples).tobytes() == np.array(slow.samples).tobytes()
    assert all(type(s) is float for s in fast.samples)
    assert fast.negative_samples == slow.negative_samples
    assert (
        fast_reg.snapshot()["counters"] == slow_reg.snapshot()["counters"]
    )
