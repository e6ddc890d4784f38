"""Tests for columnar batches and windowed join aggregation.

The aggregates are verified against a brute-force nested-loop join —
the ground-truth definition of ``R join_W S`` from the paper.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.arrays import _DENSE_KEY_LIMIT, AggKind, BatchArrays, WindowAggregate, aggregate_of
from repro.streams.tuples import Side, StreamBatch, StreamTuple


def brute_force(keys_r, pay_r, keys_s):
    """Nested-loop reference: (match count, sum of joined R payloads)."""
    matches = 0
    sum_r = 0.0
    for kr, vr in zip(keys_r, pay_r):
        for ks in keys_s:
            if kr == ks:
                matches += 1
                sum_r += vr
    return matches, sum_r


def make_arrays(rows):
    """rows: list of (event, arrival, key, payload, is_r)."""
    event, arrival, key, payload, is_r = (np.array(c) for c in zip(*rows))
    return BatchArrays(event, arrival, key.astype(np.int64), payload, is_r.astype(bool))


class TestDrainFunction:
    def _arrays(self):
        return make_arrays(
            [
                (0.0, 1.0, 0, 1.0, True),
                (2.0, 2.5, 0, 1.0, False),
                (4.0, 6.0, 1, 1.0, True),
            ]
        )

    def test_drain_before_any_arrival_is_identity(self):
        assert self._arrays().drain_function()(0.5) == 0.5

    def test_drain_tracks_last_completion(self):
        arrays = self._arrays()
        # Default completion == arrival: everything arrived by T is done
        # by the latest arrival <= T.
        drain = arrays.drain_function()
        assert drain(3.0) == 2.5
        assert drain(10.0) == 6.0

    def test_cached_per_completion_version(self):
        arrays = self._arrays()
        drain = arrays.drain_function()
        assert arrays.drain_function() is drain
        arrays.completion[...] = arrays.arrival + 1.0
        arrays.mark_completion_dirty()
        drain2 = arrays.drain_function()
        assert drain2 is not drain
        assert drain2(10.0) == 7.0

    def test_monotonises_unordered_completions(self):
        arrays = self._arrays()
        arrays.completion[...] = np.array([9.0, 3.0, 4.0])
        arrays.mark_completion_dirty()
        # Arrival order is (1.0, 2.5, 6.0); the 9.0 completion of the
        # first arrival dominates later drains.
        assert arrays.drain_function()(10.0) == 9.0


class TestAggregatorCacheBound:
    def test_lru_eviction_beyond_cap(self):
        from repro import obs

        arrays = make_arrays([(float(i), float(i), 0, 1.0, i % 2 == 0) for i in range(8)])
        cap = BatchArrays.AGGREGATOR_CACHE_CAP
        with obs.scoped() as reg:
            aggs = [arrays.aggregator(1.0, origin=float(p)) for p in range(cap + 3)]
            assert len(arrays._aggregators) == cap
            assert reg.counter("arrays.aggregator_evictions").value == 3
        # The oldest grids were evicted; a re-request builds a new engine.
        assert arrays.aggregator(1.0, origin=0.0) is not aggs[0]
        assert len(arrays._aggregators) == cap

    def test_recent_use_protects_from_eviction(self):
        arrays = make_arrays([(float(i), float(i), 0, 1.0, True) for i in range(4)])
        cap = BatchArrays.AGGREGATOR_CACHE_CAP
        first = arrays.aggregator(1.0, origin=0.0)
        for p in range(1, cap):
            arrays.aggregator(1.0, origin=float(p))
        first_again = arrays.aggregator(1.0, origin=0.0)  # refresh LRU position
        arrays.aggregator(1.0, origin=float(cap))  # evicts origin=1.0, not 0.0
        assert first_again is first
        assert arrays.aggregator(1.0, origin=0.0) is first


class TestWindowAggregate:
    def test_selectivity_definition(self):
        agg = WindowAggregate(n_r=10, n_s=5, matches=2.0, sum_r=6.0)
        assert agg.selectivity == pytest.approx(2 / 50)

    def test_alpha_r_is_mean_joined_payload(self):
        agg = WindowAggregate(n_r=10, n_s=5, matches=4.0, sum_r=20.0)
        assert agg.alpha_r == 5.0

    def test_degenerate_cases(self):
        empty = WindowAggregate(0, 0, 0.0, 0.0)
        assert empty.selectivity == 0.0
        assert empty.alpha_r == 0.0
        assert empty.value(AggKind.AVG) == 0.0

    def test_value_dispatch(self):
        agg = WindowAggregate(2, 2, 3.0, 12.0)
        assert agg.value(AggKind.COUNT) == 3.0
        assert agg.value(AggKind.SUM) == 12.0
        assert agg.value(AggKind.AVG) == 4.0


class TestSparseFold:
    """Past the dense limit, ``aggregate_of`` indexes its tables by rank
    among the keys present instead of allocating one slot per key."""

    @pytest.mark.parametrize("offset", [_DENSE_KEY_LIMIT, 10**9, 2**63 - 64])
    def test_shifted_keys_fold_like_small_ones(self, offset):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 40, size=500)
        is_r = rng.random(500) < 0.5
        payload = rng.integers(0, 100, size=500).astype(float)
        dense = aggregate_of(keys, is_r, payload, 40)
        sparse = aggregate_of(keys + offset, is_r, payload, int(keys.max()) + offset + 1)
        # Integer payloads: the sums are exact in either table order.
        assert sparse == dense
        assert brute_force(keys[is_r], payload[is_r], keys[~is_r]) == (
            dense.matches, dense.sum_r,
        )

    def test_largest_key(self):
        top = 2**63 - 1
        keys = np.array([top, top, 5, top])
        is_r = np.array([True, False, True, False])
        agg = aggregate_of(keys, is_r, np.array([2.0, 0.0, 7.0, 0.0]), 2**63)
        assert agg == WindowAggregate(2, 2, 2.0, 4.0)


class TestBatchArrays:
    def test_from_batch_roundtrip(self):
        batch = StreamBatch(
            [
                StreamTuple(1, 2.0, 5.0, 6.0, Side.R, 0),
                StreamTuple(1, 3.0, 1.0, 4.0, Side.S, 0),
            ]
        )
        arrays = BatchArrays.from_batch(batch)
        assert len(arrays) == 2
        # Event-sorted: the S tuple (event 1.0) comes first.
        assert not arrays.is_r[0]
        assert arrays.event[0] == 1.0

    def test_window_slice_half_open(self):
        arrays = make_arrays(
            [(0.0, 0, 1, 1.0, True), (9.99, 9.99, 1, 1.0, True), (10.0, 10, 1, 1.0, True)]
        )
        sl = arrays.window_slice(0.0, 10.0)
        assert sl.stop - sl.start == 2

    def test_oracle_aggregate_matches_brute_force(self):
        arrays = make_arrays(
            [
                (1.0, 1.0, 7, 2.0, True),
                (2.0, 2.0, 7, 3.0, True),
                (3.0, 3.0, 7, 0.0, False),
                (4.0, 4.0, 8, 1.0, False),
                (5.0, 5.0, 8, 4.0, True),
            ]
        )
        agg = arrays.aggregate(0.0, 10.0, None)
        # key 7: 2 R x 1 S -> 2 matches, payload 2+3; key 8: 1 R x 1 S.
        assert agg.matches == 3
        assert agg.sum_r == pytest.approx(2 + 3 + 4)

    def test_availability_filters_by_completion(self):
        arrays = make_arrays(
            [(1.0, 1.0, 7, 2.0, True), (2.0, 9.0, 7, 1.0, False)]
        )
        # Late S tuple not yet completed -> no matches observable.
        assert arrays.aggregate(0.0, 10.0, 5.0).matches == 0
        assert arrays.aggregate(0.0, 10.0, 9.5).matches == 1

    def test_arrival_clock(self):
        arrays = make_arrays([(1.0, 3.0, 7, 2.0, True), (2.0, 2.0, 7, 1.0, False)])
        arrays.completion[...] = 100.0  # processed much later
        agg = arrays.aggregate(0.0, 10.0, 5.0, clock="arrival")
        assert agg.matches == 1
        with pytest.raises(ValueError):
            arrays.aggregate(0.0, 10.0, 5.0, clock="bogus")

    def test_arrivals_in_window(self):
        arrays = make_arrays([(1.0, 2.0, 0, 1.0, True), (3.0, 8.0, 0, 1.0, False)])
        got = arrays.arrivals_in_window(0.0, 10.0, 5.0)
        assert list(got) == [2.0]

    def test_rejects_negative_keys(self):
        """Negative keys would silently corrupt the bincount tables."""
        with pytest.raises(ValueError, match="non-negative"):
            make_arrays([(1.0, 1.0, -3, 1.0, True), (2.0, 2.0, 0, 1.0, False)])

    @pytest.mark.parametrize("column", range(5))
    def test_rejects_misaligned_columns(self, column):
        """A column longer than the events used to lose its surplus rows
        to the event sort silently; a shorter one failed with IndexError."""
        cols = [np.array([2.0, 1.0, 3.0]), np.array([2.0, 1.5, 3.0]),
                np.array([0, 1, 0]), np.ones(3), np.array([True, False, True])]
        for bad in (cols[column][:2], np.concatenate([cols[column], cols[column][:1]])):
            with pytest.raises(ValueError, match="equally long"):
                BatchArrays(*cols[:column], bad, *cols[column + 1:])

    def test_accepts_empty_key_column(self):
        empty = np.array([])
        BatchArrays(empty, empty, empty.astype(np.int64), empty, empty.astype(bool))


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=99.99),  # event
            st.floats(min_value=0, max_value=20),  # extra delay
            st.integers(min_value=0, max_value=4),  # key
            st.floats(min_value=-10, max_value=10),  # payload
            st.booleans(),  # is_r
        ),
        min_size=0,
        max_size=60,
    ),
    cutoff=st.floats(min_value=0, max_value=130),
)
def test_aggregate_matches_brute_force_property(data, cutoff):
    """Vectorised windowed join == nested-loop join on the same subset."""
    rows = [(e, e + d, k, p, r) for (e, d, k, p, r) in data]
    arrays = make_arrays(rows) if rows else BatchArrays(
        np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=bool)
    )
    agg = arrays.aggregate(0.0, 100.0, cutoff)
    visible = [(e, a, k, p, r) for (e, a, k, p, r) in rows if 0 <= e < 100 and a <= cutoff]
    keys_r = [k for (_, _, k, _, r) in visible if r]
    pay_r = [p for (_, _, _, p, r) in visible if r]
    keys_s = [k for (_, _, k, _, r) in visible if not r]
    matches, sum_r = brute_force(keys_r, pay_r, keys_s)
    assert agg.n_r == len(keys_r)
    assert agg.n_s == len(keys_s)
    assert agg.matches == matches
    assert agg.sum_r == pytest.approx(sum_r, abs=1e-9)
