"""DeltaGrid: chunked appends must equal the from-scratch aggregation."""

import numpy as np
import pytest

from repro.joins.aggregator import DeltaAppendError, DeltaGrid
from repro.joins.arrays import BatchArrays

NUM_KEYS = 6
LENGTH = 100.0


def random_chunks(rng, n_chunks, keys=NUM_KEYS, tick=40.0, spread=150.0):
    """Arrival-monotone chunks (each tick's arrivals after the last's)."""
    chunks = []
    for c in range(n_chunks):
        n = int(rng.integers(1, 120))
        base = c * tick
        event = rng.uniform(max(0.0, base - spread), base + spread, n)
        arrival = np.sort(base + rng.uniform(0.0, tick, n))
        chunks.append(
            (
                event,
                arrival,
                rng.integers(0, keys, n).astype(np.int64),
                rng.uniform(size=n),
                rng.random(n) < 0.5,
            )
        )
    return chunks


def append_chunk(grid, chunk):
    event, arrival, key, payload, is_r = chunk
    order = np.argsort(event, kind="stable")
    grid.delta_append(
        event[order], arrival[order], key[order], payload[order], is_r[order]
    )


def reference_of(chunks):
    cols = [np.concatenate(c) for c in zip(*chunks)]
    return BatchArrays(*cols)


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_batch_aggregate_at_every_cut(self, seed):
        rng = np.random.default_rng(seed)
        chunks = random_chunks(rng, 12)
        grid = DeltaGrid(NUM_KEYS, LENGTH)
        for chunk in chunks:
            append_chunk(grid, chunk)
        ref = reference_of(chunks)
        for widx in range(-1, 8):
            start = widx * LENGTH
            for avail in (None, 97.0, 237.5, 420.0, 1e9):
                want = ref.aggregate(
                    start, start + LENGTH, available_by=avail, clock="arrival"
                )
                got = grid.query(widx, available_by=avail)
                # Integer columns bit for bit; the float payload sum to
                # summation-order rounding.
                assert (got.n_r, got.n_s, got.matches) == (
                    want.n_r,
                    want.n_s,
                    want.matches,
                ), (widx, avail)
                assert got.sum_r == pytest.approx(want.sum_r, rel=1e-9, abs=1e-9)

    def test_chunking_is_invisible(self):
        """One big append and many small ones agree exactly (the
        cross-chunk pairs are charged once, in the later chunk)."""
        rng = np.random.default_rng(17)
        chunks = random_chunks(rng, 10)
        fine = DeltaGrid(NUM_KEYS, LENGTH)
        for chunk in chunks:
            append_chunk(fine, chunk)
        cols = [np.concatenate(c) for c in zip(*chunks)]
        coarse = DeltaGrid(NUM_KEYS, LENGTH)
        append_chunk(coarse, tuple(cols))
        for widx in range(0, 6):
            for avail in (None, 150.0, 333.0):
                a = fine.query(widx, avail)
                b = coarse.query(widx, avail)
                assert (a.n_r, a.n_s, a.matches) == (b.n_r, b.n_s, b.matches)
                assert a.sum_r == pytest.approx(b.sum_r, rel=1e-9, abs=1e-9)

    def test_boundary_events_land_like_the_reference(self):
        """Events exactly on window edges follow searchsorted-left
        semantics: the edge belongs to the window it starts."""
        event = np.array([0.0, 100.0, 200.0])
        arrival = np.array([1.0, 2.0, 3.0])
        key = np.zeros(3, dtype=np.int64)
        payload = np.ones(3)
        is_r = np.array([True, False, True])
        grid = DeltaGrid(1, LENGTH)
        grid.delta_append(event, arrival, key, payload, is_r)
        ref = BatchArrays(event, arrival, key, payload, is_r)
        for widx in (0, 1, 2):
            want = ref.aggregate(
                widx * LENGTH, (widx + 1) * LENGTH, None, clock="arrival"
            )
            got = grid.query(widx, None)
            assert (got.n_r, got.n_s) == (want.n_r, want.n_s)

    def test_negative_window_indices_work(self):
        grid = DeltaGrid(2, LENGTH)
        grid.delta_append(
            np.array([-150.0, -50.0]),
            np.array([1.0, 2.0]),
            np.array([0, 0], dtype=np.int64),
            np.array([1.0, 1.0]),
            np.array([True, False]),
        )
        assert grid.query(-2, None).n_r == 1
        assert grid.query(-1, None).n_s == 1
        assert grid.query(0, None).n_r == 0


class TestGeometry:
    def test_covers_is_exact_one_window(self):
        grid = DeltaGrid(2, LENGTH, origin=10.0)
        assert grid.covers(110.0, 210.0)
        assert not grid.covers(110.0, 215.0)  # wrong length
        assert not grid.covers(115.0, 215.0)  # off grid
        assert grid.window_index(110.0) == 1

    def test_empty_and_unknown_windows_answer_empty(self):
        grid = DeltaGrid(2, LENGTH)
        agg = grid.query(7, None)
        assert (agg.n_r, agg.n_s, agg.matches, agg.sum_r) == (0, 0, 0.0, 0.0)

    def test_availability_before_first_arrival_is_empty(self):
        grid = DeltaGrid(2, LENGTH)
        grid.delta_append(
            np.array([10.0]), np.array([20.0]), np.array([0], dtype=np.int64),
            np.array([1.0]), np.array([True]),
        )
        assert grid.query(0, 5.0).n_r == 0
        assert grid.query(0, 20.0).n_r == 1


class TestAppendContract:
    def test_clock_regression_raises_and_leaves_grid_untouched(self):
        grid = DeltaGrid(4, 50.0)
        grid.delta_append(
            np.array([10.0, 20.0]), np.array([5.0, 6.0]),
            np.array([0, 1], dtype=np.int64), np.array([1.0, 2.0]),
            np.array([True, False]),
        )
        before = grid.query(0, None)
        with pytest.raises(DeltaAppendError):
            # First tuple regresses window 0's clock; second opens a new
            # window — neither must be applied.
            grid.delta_append(
                np.array([15.0, 60.0]), np.array([1.0, 9.0]),
                np.array([2, 3], dtype=np.int64), np.array([3.0, 4.0]),
                np.array([True, True]),
            )
        assert grid.query(0, None) == before
        assert grid.query(1, None).n_r == 0
        assert len(grid) == 1

    def test_equal_clock_appends_are_fine(self):
        grid = DeltaGrid(2, 50.0)
        for _ in range(2):
            grid.delta_append(
                np.array([10.0]), np.array([5.0]), np.array([0], dtype=np.int64),
                np.array([1.0]), np.array([True]),
            )
        assert grid.query(0, None).n_r == 2

    def test_out_of_range_key_rejected(self):
        grid = DeltaGrid(2, 50.0)
        with pytest.raises(ValueError):
            grid.delta_append(
                np.array([10.0]), np.array([5.0]), np.array([2], dtype=np.int64),
                np.array([1.0]), np.array([True]),
            )

    def test_negative_key_rejected_before_any_window_changes(self):
        """A chunk whose later window holds a negative key used to
        bump that window's counts before bincount refused the key,
        leaving a window with ``n == 0`` but a nonzero ``c_r``."""
        grid = DeltaGrid(4, 10.0)
        grid.delta_append(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]),
            np.array([1, 1], dtype=np.int64), np.ones(2), np.array([True, False]),
        )

        def state():
            windows = {
                idx: (w.n, w.c_r.tolist(), w.c_s.tolist(), w.sum_rv.tolist())
                for idx, w in grid._windows.items()
            }
            answers = [grid.query(i, by) for i in (0, 1) for by in (None, 1.5, 20.0)]
            return windows, grid.appends, answers

        before = state()
        with pytest.raises(ValueError, match="non-negative"):
            grid.delta_append(
                np.array([11.0, 12.0]), np.array([11.0, 12.0]),
                np.array([2, -1], dtype=np.int64), np.ones(2), np.array([True, False]),
            )
        assert state() == before
        assert len(grid) == 1 and grid.appends == 1

    def test_drop_below_releases_only_stale_windows(self):
        rng = np.random.default_rng(23)
        chunks = random_chunks(rng, 8)
        grid = DeltaGrid(NUM_KEYS, LENGTH)
        for chunk in chunks:
            append_chunk(grid, chunk)
        kept = {idx for idx in grid._windows if idx >= 2}
        dropped = grid.drop_below(2)
        assert dropped >= 1
        assert set(grid._windows) == kept
        ref = reference_of(chunks)
        want = ref.aggregate(200.0, 300.0, None, clock="arrival")
        got = grid.query(2, None)
        assert (got.n_r, got.n_s) == (want.n_r, want.n_s)

    def test_empty_append_is_a_noop(self):
        grid = DeltaGrid(2, 50.0)
        grid.delta_append(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64),
            np.empty(0), np.empty(0, dtype=bool),
        )
        assert grid.appends == 0
        assert len(grid) == 0
