"""Cross-checks of the incremental aggregator against the reference rescan.

``WindowAggregator`` must agree with ``BatchArrays.aggregate`` — the
reference implementation verified against a brute-force nested-loop join
in ``test_arrays.py`` — on every (window, availability, clock) query.
Integer columns (counts, matches) must agree exactly; the payload sum is
accumulated in a different order, so it is compared to tight relative
tolerance (and exactly when payloads are integer-valued, where float
summation is associative).
"""

import numpy as np
import pytest

from repro.joins.aggregator import WindowAggregator
from repro.joins.arrays import BatchArrays
from repro.joins.pipeline import CostModel, apply_pipeline_costs


def random_batch(seed, n=3000, num_keys=7, horizon=300.0, integer_payloads=True):
    """A randomized disordered batch (heavy-tailed delays, hot keys)."""
    rng = np.random.default_rng(seed)
    event = rng.uniform(0.0, horizon, n)
    arrival = event + rng.exponential(5.0, n)
    key = rng.integers(0, num_keys, n)
    if integer_payloads:
        payload = rng.integers(0, 100, n).astype(float)
    else:
        payload = rng.uniform(-10.0, 10.0, n)
    is_r = rng.random(n) < 0.5
    return BatchArrays(event, arrival, key, payload, is_r)


def assert_agg_equal(got, want, exact_sum):
    assert got.n_r == want.n_r
    assert got.n_s == want.n_s
    assert got.matches == want.matches
    if exact_sum:
        assert got.sum_r == want.sum_r
    else:
        assert got.sum_r == pytest.approx(want.sum_r, rel=1e-12, abs=1e-9)


def sweep(arrays, length, origin=0.0, exact_sum=True, clocks=("completion", "arrival")):
    """Compare every grid window at several availability cutoffs."""
    agg = WindowAggregator(arrays, length, origin)
    lo = float(arrays.event.min()) if len(arrays.event) else 0.0
    hi = float(arrays.event.max()) if len(arrays.event) else 0.0
    start = origin + np.floor((lo - origin) / length) * length
    checked = 0
    while start < hi:
        end = start + length
        assert_agg_equal(
            agg.at(start, end, None),
            arrays.aggregate(start, end, None),
            exact_sum,
        )
        for clock in clocks:
            for avail in (start, start + 0.5 * length, end, end + 7.0, hi + 100.0):
                assert_agg_equal(
                    agg.at(start, end, avail, clock),
                    arrays.aggregate(start, end, avail, clock),
                    exact_sum,
                )
        checked += 1
        start = end
    assert checked > 0


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_random_batches(self, seed):
        sweep(random_batch(seed), length=10.0)

    def test_matches_reference_with_float_payloads(self):
        sweep(random_batch(11, integer_payloads=False), length=10.0, exact_sum=False)

    def test_matches_reference_after_pipeline_costs(self):
        """Realistic completion times (queueing) instead of arrival=done."""
        arrays = random_batch(3)
        apply_pipeline_costs(arrays, "ksj", CostModel(), slack=10.0)
        sweep(arrays, length=10.0)

    def test_matches_reference_on_shifted_origin(self):
        sweep(random_batch(4), length=10.0, origin=3.5)

    def test_matches_reference_on_hot_single_key(self):
        sweep(random_batch(5, num_keys=1), length=20.0)

    def test_matches_reference_on_sparse_windows(self):
        """Many empty windows between occupied ones."""
        arrays = random_batch(6, n=60, horizon=2000.0)
        sweep(arrays, length=10.0)


class TestStaleness:
    def test_completion_index_rebuilds_after_cost_application(self):
        """A new cost profile must invalidate the completion-clock index."""
        arrays = random_batch(7)
        agg = WindowAggregator(arrays, 10.0)
        before = agg.at(50.0, 60.0, 58.0)
        apply_pipeline_costs(arrays, "pecj", CostModel(base_cost=0.5), slack=10.0)
        after = agg.at(50.0, 60.0, 58.0)
        assert after == arrays.aggregate(50.0, 60.0, 58.0)
        # Heavy per-tuple costs push completions later: fewer available.
        assert after.n_r + after.n_s < before.n_r + before.n_s

    def test_arrival_index_unaffected_by_costs(self):
        arrays = random_batch(8)
        agg = WindowAggregator(arrays, 10.0)
        before = agg.at(50.0, 60.0, 58.0, clock="arrival")
        apply_pipeline_costs(arrays, "pecj", CostModel(base_cost=0.5), slack=10.0)
        assert agg.at(50.0, 60.0, 58.0, clock="arrival") == before


class TestGridGeometry:
    def test_try_at_returns_none_off_grid(self):
        agg = WindowAggregator(random_batch(9), 10.0)
        assert agg.try_at(5.0, 15.0) is None  # misaligned start
        assert agg.try_at(10.0, 25.0) is None  # wrong length

    def test_at_raises_off_grid(self):
        agg = WindowAggregator(random_batch(9), 10.0)
        with pytest.raises(ValueError, match="not a window"):
            agg.at(5.0, 15.0)

    def test_out_of_range_windows_are_empty(self):
        arrays = random_batch(10)
        agg = WindowAggregator(arrays, 10.0)
        for start in (-500.0, 10_000.0):
            got = agg.at(start, start + 10.0)
            assert (got.n_r, got.n_s, got.matches, got.sum_r) == (0, 0, 0.0, 0.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            WindowAggregator(random_batch(9), 0.0)

    def test_unknown_clock_rejected(self):
        agg = WindowAggregator(random_batch(9), 10.0)
        with pytest.raises(ValueError, match="clock"):
            agg.at(0.0, 10.0, 5.0, clock="wall")

    def test_empty_batch(self):
        empty = np.array([])
        arrays = BatchArrays(
            empty, empty, empty.astype(np.int64), empty, empty.astype(bool)
        )
        agg = WindowAggregator(arrays, 10.0)
        got = agg.at(0.0, 10.0, 5.0)
        assert (got.n_r, got.n_s, got.matches, got.sum_r) == (0, 0, 0.0, 0.0)


class TestBatchCache:
    def test_aggregators_cached_per_grid(self):
        arrays = random_batch(12)
        assert arrays.aggregator(10.0) is arrays.aggregator(10.0)
        assert arrays.aggregator(10.0) is not arrays.aggregator(10.0, origin=5.0)

    def test_window_slice_equivalence_at_float_edges(self):
        """Grid membership agrees with window_slice even at awkward edges."""
        arrays = random_batch(13, horizon=100.0)
        length = 0.1  # 0.1 is not exactly representable in binary
        agg = WindowAggregator(arrays, length)
        for idx in range(0, 1000, 37):
            start = idx * length
            sl = arrays.window_slice(start, start + length)
            got = agg.at(start, start + length, None)
            assert got.n_r + got.n_s == sl.stop - sl.start


class TestGridSortPaths:
    """Grids below 2**15 windows sort int16 window ids, larger ones int64
    ids.  At 2**15 + 3 windows the occupied ids reach 2**15, which int16
    cannot hold."""

    @pytest.mark.parametrize("num_windows", [2**15 - 1, 2**15 + 1, 2**15 + 3])
    def test_matches_reference_on_either_side_of_the_limit(self, num_windows):
        rng = np.random.default_rng(num_windows)
        n = 3000
        # The grid pads one window on each side of the occupied span.
        span = num_windows - 3
        event = np.concatenate([[0.5, span + 0.5], rng.uniform(0.0, span + 1.0, n - 2)])
        arrival = event + rng.exponential(3.0, n)
        arrays = BatchArrays(
            event,
            arrival,
            rng.integers(0, 5, n),
            rng.integers(0, 100, n).astype(float),
            rng.random(n) < 0.5,
        )
        apply_pipeline_costs(arrays, "pecj", CostModel(), slack=10.0)
        agg = WindowAggregator(arrays, 1.0)
        for clock in ("completion", "arrival"):
            assert len(agg._index_for(clock).bounds) - 1 == num_windows
        starts = np.unique(np.floor(arrays.event))
        for start in np.concatenate([starts[::3], [-1.0, span + 1.0]]):
            end = start + 1.0
            assert_agg_equal(agg.at(start, end), arrays.aggregate(start, end), True)
            for clock in ("completion", "arrival"):
                for avail in (start + 0.5, end + 1.0, end + 4.0):
                    assert_agg_equal(
                        agg.at(start, end, avail, clock),
                        arrays.aggregate(start, end, avail, clock),
                        True,
                    )
