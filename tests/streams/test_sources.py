"""Tests for stream merging and replay."""

import numpy as np
import pytest

from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import (
    ReplaySource,
    make_disordered_arrays,
    make_disordered_pair,
    merge_arrival,
)
from repro.streams.tuples import Side, StreamBatch, StreamTuple


def tup(arrival, side=Side.R, seq=0):
    return StreamTuple(0, 1.0, arrival, arrival, side, seq)


class TestMergeArrival:
    def test_interleaves_by_arrival(self):
        r = StreamBatch([tup(1.0, Side.R), tup(5.0, Side.R)])
        s = StreamBatch([tup(3.0, Side.S)])
        merged = merge_arrival(r, s)
        assert [t.arrival_time for t in merged] == [1.0, 3.0, 5.0]

    def test_preserves_all_tuples(self):
        r = StreamBatch([tup(i, Side.R, i) for i in range(10)])
        s = StreamBatch([tup(i + 0.5, Side.S, i) for i in range(7)])
        assert len(merge_arrival(r, s)) == 17


class TestReplaySource:
    def _source(self):
        return ReplaySource(StreamBatch([tup(float(i)) for i in range(10)]))

    def test_poll_returns_due_tuples_once(self):
        src = self._source()
        first = src.poll(3.0)
        assert [t.arrival_time for t in first] == [0.0, 1.0, 2.0, 3.0]
        assert src.poll(3.0) == []

    def test_poll_monotone_progress(self):
        src = self._source()
        src.poll(4.0)
        later = src.poll(6.0)
        assert [t.arrival_time for t in later] == [5.0, 6.0]
        assert src.remaining == 3

    def test_peek_and_exhaustion(self):
        src = self._source()
        assert [t.arrival_time for t in src.poll(0.0)] == [0.0]
        src.drain()
        assert src.exhausted
        assert src.poll(float("inf")) == []

    def test_iteration_covers_everything(self):
        src = self._source()
        assert len(list(src)) == 10
        assert src.exhausted


class TestFactories:
    def test_pair_and_arrays_agree_on_magnitude(self):
        ds = make_dataset("micro", num_keys=5)
        merged, r, s = make_disordered_pair(ds, UniformDelay(5.0), 500.0, 4.0, 4.0, seed=3)
        arrays = make_disordered_arrays(ds, UniformDelay(5.0), 500.0, 4.0, 4.0, seed=3)
        assert len(merged) == len(r) + len(s)
        assert len(arrays) == pytest.approx(len(merged), rel=0.1)

    def test_arrays_arrivals_bounded_by_delta(self):
        ds = make_dataset("micro", num_keys=5)
        arrays = make_disordered_arrays(ds, UniformDelay(5.0), 500.0, 4.0, 4.0, seed=3)
        delays = arrays.arrival - arrays.event
        assert np.all(delays >= 0)
        assert np.all(delays <= 5.0)

    def test_arrays_event_sorted(self):
        ds = make_dataset("micro", num_keys=5)
        arrays = make_disordered_arrays(ds, UniformDelay(5.0), 500.0, 4.0, 4.0, seed=3)
        assert np.all(np.diff(arrays.event) >= 0)
