"""Tests for window definitions and assigners."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams.tuples import Side, StreamTuple
from repro.streams.windows import (
    IntervalWindows,
    SlidingWindows,
    TumblingWindows,
    Window,
)


def tup(event: float) -> StreamTuple:
    return StreamTuple(0, 1.0, event, event, Side.R)


class TestWindow:
    def test_length(self):
        assert Window(5.0, 15.0).length == 10.0

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Window(5.0, 5.0)
        with pytest.raises(ValueError):
            Window(5.0, 3.0)

    def test_contains_is_half_open(self):
        w = Window(0.0, 10.0)
        assert w.contains(tup(0.0))
        assert w.contains(tup(9.999))
        assert not w.contains(tup(10.0))
        assert not w.contains(tup(-0.001))

    def test_select_filters_by_event_time(self):
        w = Window(0.0, 10.0)
        inside = tup(5.0)
        outside = tup(11.0)
        assert w.select([inside, outside]) == [inside]


class TestTumblingWindows:
    def test_assign_single_window(self):
        tw = TumblingWindows(10.0)
        (w,) = tw.assign(25.0)
        assert (w.start, w.end) == (20.0, 30.0)

    def test_negative_times_floor_correctly(self):
        tw = TumblingWindows(10.0)
        (w,) = tw.assign(-0.5)
        assert (w.start, w.end) == (-10.0, 0.0)

    def test_origin_shift(self):
        tw = TumblingWindows(10.0, origin=3.0)
        (w,) = tw.assign(3.0)
        assert w.start == 3.0

    def test_windows_covering_counts(self):
        tw = TumblingWindows(10.0)
        ws = tw.windows_covering(0.0, 30.0)
        assert [w.start for w in ws] == [0.0, 10.0, 20.0]
        # exactly-at-boundary end excludes the next window
        assert len(tw.windows_covering(0.0, 30.0001)) == 4

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            TumblingWindows(0.0)

    @given(
        st.floats(min_value=-1e5, max_value=1e5, allow_nan=False).filter(
            lambda t: t == 0.0 or abs(t) > 1e-9
        )
    )
    def test_assigned_window_contains_event(self, t):
        # Subnormal magnitudes are excluded: (denormal / length) underflows
        # to -0.0 and floors to the wrong window — irrelevant for ms-scale
        # timestamps.
        tw = TumblingWindows(7.5)
        (w,) = tw.assign(t)
        assert w.start <= t < w.end
        assert w.length == pytest.approx(7.5)


class TestSlidingWindows:
    def test_assign_overlapping(self):
        sw = SlidingWindows(length=10.0, slide=5.0)
        ws = sw.assign(12.0)
        assert {w.start for w in ws} == {5.0, 10.0}

    def test_rejects_slide_larger_than_length(self):
        with pytest.raises(ValueError):
            SlidingWindows(5.0, 10.0)

    @given(st.floats(min_value=0, max_value=1e4, allow_nan=False))
    def test_every_assigned_window_contains_event(self, t):
        sw = SlidingWindows(length=9.0, slide=3.0)
        ws = sw.assign(t)
        assert len(ws) == 3  # length/slide overlapping windows
        for w in ws:
            assert w.start <= t < w.end

    def test_windows_covering_overlap_range(self):
        sw = SlidingWindows(length=10.0, slide=5.0)
        ws = sw.windows_covering(10.0, 20.0)
        for w in ws:
            assert w.end > 10.0 and w.start < 20.0


class TestIntervalWindows:
    def test_assign_anchored_on_event(self):
        iw = IntervalWindows(before=5.0, after=2.0)
        (w,) = iw.assign(10.0)
        assert (w.start, w.end) == (5.0, 12.0)

    def test_rejects_degenerate_interval(self):
        with pytest.raises(ValueError):
            IntervalWindows(0.0, 0.0)
        with pytest.raises(ValueError):
            IntervalWindows(-1.0, 2.0)
