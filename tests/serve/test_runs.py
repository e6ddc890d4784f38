"""Sorted-run storage: merges, size-tiered compaction, frontier eviction."""

import numpy as np
import pytest

from repro.serve.runs import RunStack, SortedRun, merge_runs, merge_sorted_runs


def random_run(rng, n, lo=0.0, hi=1000.0):
    event = rng.uniform(lo, hi, n)
    return SortedRun.from_chunk(
        event,
        event + rng.exponential(5.0, n),
        rng.integers(0, 8, n).astype(np.int64),
        rng.uniform(size=n),
        rng.random(n) < 0.5,
    )


class TestSortedRun:
    def test_from_chunk_sorts_all_columns_together(self):
        event = np.array([30.0, 10.0, 20.0])
        run = SortedRun.from_chunk(
            event,
            np.array([31.0, 11.0, 21.0]),
            np.array([3, 1, 2], dtype=np.int64),
            np.array([0.3, 0.1, 0.2]),
            np.array([True, False, True]),
        )
        assert run.event.tolist() == [10.0, 20.0, 30.0]
        assert run.arrival.tolist() == [11.0, 21.0, 31.0]
        assert run.key.tolist() == [1, 2, 3]
        assert run.payload.tolist() == [0.1, 0.2, 0.3]
        assert run.is_r.tolist() == [False, True, True]

    def test_from_chunk_is_stable_on_ties(self):
        run = SortedRun.from_chunk(
            np.array([5.0, 5.0, 5.0]),
            np.array([1.0, 2.0, 3.0]),
            np.zeros(3, dtype=np.int64),
            np.zeros(3),
            np.zeros(3, dtype=bool),
        )
        assert run.arrival.tolist() == [1.0, 2.0, 3.0]

    def test_frontier_expires_prefix_only_once(self):
        run = SortedRun.from_chunk(
            np.array([10.0, 20.0, 30.0, 40.0]),
            np.arange(4.0),
            np.zeros(4, dtype=np.int64),
            np.zeros(4),
            np.zeros(4, dtype=bool),
        )
        assert run.advance_frontier(25.0) == 2
        assert run.live == 2
        # Re-advancing to the same horizon reports nothing new.
        assert run.advance_frontier(25.0) == 0
        # A horizon exactly on an event keeps that event (event >= horizon).
        assert run.advance_frontier(30.0) == 0
        assert run.advance_frontier(30.1) == 1
        assert run.live_columns()[0].tolist() == [40.0]

    def test_frontier_never_retreats(self):
        run = SortedRun.from_chunk(
            np.array([10.0, 20.0]), np.zeros(2), np.zeros(2, dtype=np.int64),
            np.zeros(2), np.zeros(2, dtype=bool),
        )
        run.advance_frontier(15.0)
        assert run.advance_frontier(5.0) == 0
        assert run.live == 1

    def test_live_slice_clamps_to_frontier(self):
        run = SortedRun.from_chunk(
            np.array([10.0, 20.0, 30.0, 40.0]),
            np.arange(4.0),
            np.zeros(4, dtype=np.int64),
            np.zeros(4),
            np.zeros(4, dtype=bool),
        )
        run.advance_frontier(25.0)
        sl = run.live_slice(0.0, 100.0)
        assert run.event[sl].tolist() == [30.0, 40.0]


class TestMerge:
    def test_merge_equals_stable_sort_of_concatenation(self):
        rng = np.random.default_rng(0)
        a = random_run(rng, 500)
        b = random_run(rng, 300)
        merged = merge_sorted_runs(a, b)
        ref = np.sort(np.concatenate([a.event, b.event]), kind="stable")
        assert np.array_equal(merged.event, ref)
        # Columns stay aligned: re-derive arrival from the merge order.
        order = np.argsort(np.concatenate([a.event, b.event]), kind="stable")
        assert np.array_equal(
            merged.arrival, np.concatenate([a.arrival, b.arrival])[order]
        )

    def test_merge_prefers_older_run_on_ties(self):
        a = SortedRun.from_chunk(
            np.array([5.0]), np.array([1.0]), np.array([0], dtype=np.int64),
            np.array([0.0]), np.array([False]),
        )
        b = SortedRun.from_chunk(
            np.array([5.0]), np.array([2.0]), np.array([0], dtype=np.int64),
            np.array([0.0]), np.array([False]),
        )
        merged = merge_sorted_runs(a, b)
        assert merged.arrival.tolist() == [1.0, 2.0]

    def test_merge_drops_expired_prefixes(self):
        rng = np.random.default_rng(1)
        a = random_run(rng, 200)
        b = random_run(rng, 200)
        a.advance_frontier(500.0)
        b.advance_frontier(250.0)
        merged = merge_sorted_runs(a, b)
        assert len(merged) == a.live + b.live
        assert merged.evict_ptr == 0

    def test_merge_with_empty_side(self):
        rng = np.random.default_rng(2)
        a = random_run(rng, 100)
        b = random_run(rng, 50)
        b.advance_frontier(np.inf)
        merged = merge_sorted_runs(a, b)
        assert np.array_equal(merged.event, a.event)


class TestRunStack:
    def test_compaction_keeps_runs_strictly_decreasing(self):
        """The tiering invariant: live run sizes strictly decrease
        oldest-to-newest, so k runs need at least k(k+1)/2 tuples."""
        rng = np.random.default_rng(3)
        stack = RunStack()
        total = 0
        for _ in range(200):
            n = int(rng.integers(1, 50))
            total += n
            stack.append(random_run(rng, n))
            sizes = [r.live for r in stack.runs]
            assert sizes == sorted(sizes, reverse=True)
            assert len(set(sizes)) == len(sizes)
            assert len(stack) * (len(stack) + 1) // 2 <= total
        assert stack.total_live == total
        assert stack.compactions > 0

    def test_uniform_chunks_compact_like_a_binary_counter(self):
        """Equal-size chunks — the service's steady state — keep the
        stack logarithmic."""
        rng = np.random.default_rng(6)
        stack = RunStack()
        for i in range(1, 129):
            stack.append(random_run(rng, 32))
            assert len(stack) <= int(np.log2(i)) + 1

    def test_merged_columns_match_global_sort(self):
        rng = np.random.default_rng(4)
        stack = RunStack()
        events = []
        for _ in range(30):
            run = random_run(rng, int(rng.integers(1, 80)))
            events.append(run.event.copy())
            stack.append(run)
        cols = merge_runs(stack.runs)
        assert np.array_equal(
            cols[0], np.sort(np.concatenate(events), kind="stable")
        )

    def test_empty_stack_yields_typed_columns(self):
        cols = merge_runs(RunStack().runs)
        assert [c.dtype.kind for c in cols] == ["f", "f", "i", "f", "b"]
        assert all(len(c) == 0 for c in cols)

    def test_advance_horizon_counts_and_drops(self):
        stack = RunStack()
        stack.append(
            SortedRun.from_chunk(
                np.array([10.0, 20.0]), np.zeros(2), np.zeros(2, dtype=np.int64),
                np.zeros(2), np.zeros(2, dtype=bool),
            )
        )
        stack.append(
            SortedRun.from_chunk(
                np.array([100.0]), np.zeros(1), np.zeros(1, dtype=np.int64),
                np.zeros(1), np.zeros(1, dtype=bool),
            )
        )
        assert stack.advance_horizon(15.0) == 1
        assert stack.advance_horizon(15.0) == 0  # idempotent
        assert stack.advance_horizon(50.0) == 1  # drops the first run whole
        assert len(stack) == 1
        assert stack.total_live == 1

    def test_ordered_appends_never_interleave(self):
        """Chunks with disjoint ascending event ranges merge by plain
        concatenation — searchsorted places every b after a."""
        stack = RunStack()
        for lo in range(0, 500, 100):
            e = np.arange(float(lo), float(lo + 100), 1.0)
            stack.append(
                SortedRun.from_chunk(
                    e, e + 1.0, np.zeros(len(e), dtype=np.int64),
                    np.zeros(len(e)), np.zeros(len(e), dtype=bool),
                )
            )
        cols = merge_runs(stack.runs)
        assert np.array_equal(cols[0], np.arange(0.0, 500.0, 1.0))
