"""Tests for the processing-cost pipeline (queueing + completion times)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.arrays import _CHECK_BLOCK, BatchArrays, strictly_increasing
from repro.joins.pipeline import (
    CostModel,
    apply_pipeline_costs,
    completion_times,
    ksj_buffer_occupancy,
)


def naive_completions(arrivals, costs):
    done = []
    prev = -np.inf
    for a, c in zip(arrivals, costs):
        prev = max(a, prev) + c
        done.append(prev)
    return np.array(done)


class TestCompletionTimes:
    def test_matches_naive_recurrence(self):
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0, 100, 500))
        costs = rng.uniform(0.01, 0.5, 500)
        fast = completion_times(arrivals, costs)
        assert np.allclose(fast, naive_completions(arrivals, costs))

    def test_idle_server_completes_at_arrival_plus_cost(self):
        arrivals = np.array([0.0, 100.0])
        costs = np.array([1.0, 1.0])
        assert list(completion_times(arrivals, costs)) == [1.0, 101.0]

    def test_busy_server_queues(self):
        arrivals = np.array([0.0, 0.0, 0.0])
        costs = np.array([1.0, 1.0, 1.0])
        assert list(completion_times(arrivals, costs)) == [1.0, 2.0, 3.0]

    def test_empty(self):
        assert completion_times(np.empty(0), np.empty(0)).shape == (0,)

    def test_integer_costs_give_float_completions(self):
        arrivals = np.array([0.5, 0.5, 10.25])
        out = completion_times(arrivals, np.array([1, 2, 3]))
        assert out.dtype == np.float64
        assert list(out) == [1.5, 3.5, 13.25]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            completion_times(np.zeros(2), np.zeros(3))

    @settings(max_examples=40, deadline=None)
    @given(
        arrivals=st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=200),
        seed=st.integers(min_value=0, max_value=99),
    )
    def test_property_matches_naive(self, arrivals, seed):
        arrivals = np.sort(np.array(arrivals))
        costs = np.random.default_rng(seed).uniform(0.001, 2.0, len(arrivals))
        assert np.allclose(
            completion_times(arrivals, costs), naive_completions(arrivals, costs)
        )

    def test_completions_never_precede_arrivals(self):
        rng = np.random.default_rng(1)
        arrivals = np.sort(rng.uniform(0, 50, 100))
        costs = rng.uniform(0.01, 1.0, 100)
        assert np.all(completion_times(arrivals, costs) >= arrivals + costs - 1e-12)


class TestKsjOccupancy:
    def test_counts_recent_arrivals(self):
        arrivals = np.array([0.0, 1.0, 2.0, 10.0])
        occ = ksj_buffer_occupancy(arrivals, slack=5.0)
        assert list(occ) == [1, 2, 3, 1]

    def test_zero_slack(self):
        occ = ksj_buffer_occupancy(np.array([0.0, 1.0]), slack=0.0)
        assert np.all(occ == 0)


def make_arrays(n=2000, rate=100.0, seed=0):
    rng = np.random.default_rng(seed)
    event = np.sort(rng.uniform(0, n / rate, n))
    arrival = event + rng.uniform(0, 5.0, n)
    return BatchArrays(
        event, arrival, rng.integers(0, 10, n), np.ones(n), rng.random(n) < 0.5
    )


class TestApplyPipelineCosts:
    def test_zero_method_is_instant(self):
        arrays = make_arrays()
        apply_pipeline_costs(arrays, "zero", CostModel())
        assert np.array_equal(arrays.completion, arrays.arrival)

    def test_wmj_adds_small_latency(self):
        arrays = make_arrays()
        apply_pipeline_costs(arrays, "wmj", CostModel())
        lag = arrays.completion - arrays.arrival
        assert np.all(lag > 0)
        assert lag.max() < 1.0  # well under capacity at this rate

    def test_ksj_costs_exceed_wmj(self):
        a1, a2 = make_arrays(), make_arrays()
        apply_pipeline_costs(a1, "wmj", CostModel())
        apply_pipeline_costs(a2, "ksj", CostModel(), slack=10.0)
        finite = np.isfinite(a2.completion)
        assert (a2.completion[finite] - a2.arrival[finite]).mean() > (
            a1.completion - a1.arrival
        ).mean()

    def test_ksj_sheds_under_overload(self):
        """At rates far beyond capacity the buffer drops tuples (inf)."""
        arrays = make_arrays(n=40000, rate=800.0)
        apply_pipeline_costs(arrays, "ksj", CostModel(), slack=10.0)
        dropped = np.isinf(arrays.completion).mean()
        assert dropped > 0.2

    def test_ksj_no_shedding_under_light_load(self):
        arrays = make_arrays(n=2000, rate=50.0)
        apply_pipeline_costs(arrays, "ksj", CostModel(), slack=10.0)
        assert np.isfinite(arrays.completion).all()

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            apply_pipeline_costs(make_arrays(), "bogus", CostModel())

    def test_reapplying_same_signature_is_memoized(self):
        arrays = make_arrays()
        model = CostModel()
        apply_pipeline_costs(arrays, "wmj", model, slack=10.0)
        version = arrays.completion_version
        done = arrays.completion.copy()
        apply_pipeline_costs(arrays, "wmj", model, slack=10.0)
        assert arrays.completion_version == version  # no-op, caches kept
        assert np.array_equal(arrays.completion, done)

    def test_different_signature_recomputes(self):
        arrays = make_arrays()
        model = CostModel()
        apply_pipeline_costs(arrays, "wmj", model, slack=10.0)
        version = arrays.completion_version
        done = arrays.completion.copy()
        apply_pipeline_costs(arrays, "pecj", model, slack=10.0)
        assert arrays.completion_version > version
        assert not np.array_equal(arrays.completion, done)

    def test_mark_completion_dirty_defeats_memo(self):
        """A direct completion write + dirty-mark must force a recompute."""
        arrays = make_arrays()
        model = CostModel()
        apply_pipeline_costs(arrays, "wmj", model, slack=10.0)
        done = arrays.completion.copy()
        arrays.completion[...] = 0.0
        arrays.mark_completion_dirty()
        apply_pipeline_costs(arrays, "wmj", model, slack=10.0)
        assert np.array_equal(arrays.completion, done)

    def test_empty_batch_noop(self):
        arrays = BatchArrays(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=bool)
        )
        apply_pipeline_costs(arrays, "wmj", CostModel())  # must not raise


def tied_arrays(n=6000, rate=800.0, seed=4):
    """An overloaded batch whose arrival times repeat (a 0.1 ms grid)."""
    rng = np.random.default_rng(seed)
    event = np.sort(rng.uniform(0, n / rate, n))
    arrival = np.round(event + rng.uniform(0, 5.0, n), 1)
    return BatchArrays(
        event, arrival, rng.integers(0, 10, n), np.ones(n), rng.random(n) < 0.5
    )


class TestOrders:
    """The cost pipeline may hand the arrival order on as the completion
    order; both orders must still be the stable argsorts."""

    def test_arrival_order_is_the_stable_argsort(self):
        for arrays in (tied_arrays(), make_arrays()):
            assert np.array_equal(
                arrays.arrival_order(), np.argsort(arrays.arrival, kind="stable")
            )
        assert (np.diff(np.sort(tied_arrays().arrival)) == 0).sum() > 1000

    @pytest.mark.parametrize("method", ["wmj", "ksj", "pecj", "zero"])
    @pytest.mark.parametrize("make", [tied_arrays, make_arrays])
    def test_completion_order_is_the_stable_argsort(self, method, make):
        arrays = make()
        apply_pipeline_costs(arrays, method, CostModel(), slack=10.0)
        if method == "ksj" and make is tied_arrays:
            assert np.isinf(arrays.completion).sum() > 100  # drops tie at inf
        assert np.array_equal(
            arrays.completion_order(), np.argsort(arrays.completion, kind="stable")
        )

    @pytest.mark.parametrize("method", ["wmj", "pecj", "zero"])
    def test_distinct_completions_reuse_the_arrival_order(self, method):
        arrays = make_arrays()
        apply_pipeline_costs(arrays, method, CostModel(), slack=10.0)
        assert arrays.completion_order() is arrays.arrival_order()

    def test_direct_write_drops_the_reused_order(self):
        arrays = make_arrays()
        apply_pipeline_costs(arrays, "pecj", CostModel())
        arrays.completion[...] = -arrays.arrival
        arrays.mark_completion_dirty()
        assert np.array_equal(
            arrays.completion_order(), np.argsort(-arrays.arrival, kind="stable")
        )


class TestStrictlyIncreasing:
    def test_a_tie_anywhere_fails_including_at_block_edges(self):
        n = 2 * _CHECK_BLOCK + 5
        values = np.arange(n, dtype=float)
        assert strictly_increasing(values)
        assert strictly_increasing(values[::-1], np.arange(n)[::-1])
        for at in (1, _CHECK_BLOCK - 1, _CHECK_BLOCK, _CHECK_BLOCK + 1, n - 1):
            tied = values.copy()
            tied[at] = tied[at - 1]
            assert not strictly_increasing(tied)
            assert not strictly_increasing(tied[::-1], np.arange(n)[::-1])

    def test_nan_and_short_inputs(self):
        assert not strictly_increasing(np.array([0.0, np.nan, 2.0]))
        assert strictly_increasing(np.array([1.0]))
        assert strictly_increasing(np.empty(0))
