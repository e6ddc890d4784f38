"""DeltaGrid: chunked appends must equal the from-scratch aggregation."""

import numpy as np
import pytest

from repro.joins.aggregator import DeltaGrid, grid_slot
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
    def test_grid_slot_is_exact_one_window(self):
        assert grid_slot(10.0, LENGTH, 110.0, 210.0) == 1
        assert grid_slot(10.0, LENGTH, 110.0, 215.0) is None  # wrong length
        assert grid_slot(10.0, LENGTH, 115.0, 215.0) is None  # off grid

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
    def test_clock_regression_refolds_only_its_window(self):
        """A chunk whose clocks start before a window's last appended
        clock clears that window's prefix state; its next read refolds
        it from the window's segments, and windows the chunk does not
        regress keep their folded state."""
        grid = DeltaGrid(4, 50.0)
        first = (
            np.array([10.0, 20.0, 60.0]), np.array([5.0, 6.0, 7.0]),
            np.array([0, 1, 0], dtype=np.int64), np.array([1.0, 2.0, 3.0]),
            np.array([True, False, False]),
        )
        # First tuple regresses window 0's clock; second lands in window 1
        # at a later clock; third opens window 2.
        second = (
            np.array([15.0, 70.0, 120.0]), np.array([1.0, 9.0, 2.0]),
            np.array([1, 0, 3], dtype=np.int64), np.array([3.0, 4.0, 5.0]),
            np.array([True, True, True]),
        )
        grid.delta_append(*first)
        grid.query(0, None)
        grid.query(1, None)
        grid.delta_append(*second)
        assert grid._windows[0].n == 0 and grid._windows[0].pending == 2
        assert grid._windows[1].n == 1 and grid._windows[1].pending == 1
        ref = reference_of([first, second])
        for widx in range(3):
            for avail in (None, 1.5, 5.0, 6.5, 8.0):
                want = ref.aggregate(
                    widx * 50.0, (widx + 1) * 50.0, available_by=avail, clock="arrival"
                )
                got = grid.query(widx, avail)
                assert (got.n_r, got.n_s, got.matches, got.sum_r) == (
                    want.n_r, want.n_s, want.matches, want.sum_r,
                ), (widx, avail)
        assert grid._windows[0].last == 6.0 and len(grid) == 3

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
            # Query first: reads fold pending segments, so the per-key
            # state read after them covers everything appended so far,
            # including anything a failed append might have buffered.
            answers = [grid.query(i, by) for i in (0, 1) for by in (None, 1.5, 20.0)]
            windows = {
                idx: (w.n, w.c_r.tolist(), w.c_s.tolist(), w.sum_rv.tolist())
                for idx, w in grid._windows.items()
            }
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


def answers(grid, windows=range(-1, 3), cuts=(None, 1.5, 3.5, 12.5, 1e9)):
    return [grid.query(w, by) for w in windows for by in cuts]


def tiny_chunk(event, clock, key=None):
    n = len(event)
    return (
        np.asarray(event, dtype=float),
        np.asarray(clock, dtype=float),
        np.asarray(key if key is not None else [1] * n, dtype=np.int64),
        np.ones(n),
        np.arange(n) % 2 == 0,
    )


class TestNonFiniteRejected:
    # -inf events go first and NaN/+inf events last, so the event column
    # stays sorted the way numpy sorts it.
    @pytest.mark.parametrize(
        "column, position, value",
        [
            ("clock", 1, np.nan),
            ("clock", 1, np.inf),
            ("clock", 0, -np.inf),
            ("event", 1, np.nan),
            ("event", 1, np.inf),
            ("event", 0, -np.inf),
        ],
        ids=["nan-clock", "inf-clock", "neginf-clock", "nan-event", "inf-event", "neginf-event"],
    )
    def test_rejected_before_any_window_changes(self, column, position, value):
        """A NaN clock used to be accepted and switch the window's
        monotonicity guard off for good (``first < nan`` is false); an
        infinite one made every later append to the window out of
        order; a NaN or infinite event escaped as a raw
        ``math.floor`` ``ValueError``/``OverflowError``."""
        grid = DeltaGrid(4, 10.0)
        twin = DeltaGrid(4, 10.0)
        for g in (grid, twin):
            g.delta_append(*tiny_chunk([1.0, 2.0], [1.0, 2.0]))
        bad = tiny_chunk([3.0, 4.0], [3.0, 4.0])
        bad[0 if column == "event" else 1][position] = value
        with pytest.raises(ValueError, match="finite"):
            grid.delta_append(*bad)
        assert grid.appends == 1 and len(grid) == 1
        # Well-formed appends after the refusal behave exactly as on a
        # grid that never saw the bad chunk, regressions included.
        for g in (grid, twin):
            g.delta_append(*tiny_chunk([3.0, 5.0], [3.0, 5.0]))
            g.delta_append(*tiny_chunk([6.0], [4.0]))
        assert answers(grid) == answers(twin)


class TestFoldOnRead:
    """Appends only buffer; the first read of a window folds them."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings_match_batch_aggregate(self, seed):
        """Appends, queries (cuts inside still-pending segments
        included) and ``drop_below`` in random order, checked against
        ``BatchArrays.aggregate`` over the tuples the grid still holds."""
        rng = np.random.default_rng(seed)
        grid = DeltaGrid(NUM_KEYS, LENGTH)
        held: list[np.ndarray] = []  # reference rows, as (5, n) float blocks
        for c, chunk in enumerate(random_chunks(rng, 30, tick=25.0, spread=120.0)):
            append_chunk(grid, chunk)
            # A later append to a window behind a drop recreates it,
            # holding only what arrives from then on — as the reference
            # rows do.
            held.append(np.vstack([col.astype(float) for col in chunk]))
            recent_clocks = chunk[1]
            action = rng.random()
            if action < 0.15:
                cut = int(rng.integers(0, max(1, c // 4) + 1))
                grid.drop_below(cut)
                held = [b[:, np.floor(b[0] / LENGTH) >= cut] for b in held]
            elif action < 0.65:
                rows = np.hstack(held)
                ref = BatchArrays(
                    rows[0], rows[1], rows[2].astype(np.int64), rows[3], rows[4] > 0.5
                )
                cuts = [None, float(rng.uniform(0.0, 30.0 * 25.0))]
                # Cuts at and between the clocks of the newest chunk,
                # whose segments are still pending until this read.
                picks = rng.choice(recent_clocks, size=min(3, len(recent_clocks)))
                cuts += [float(t) for t in picks] + [float(picks[0]) - 1e-9]
                for widx in rng.permutation(np.arange(-2, 12))[:5]:
                    start = float(widx) * LENGTH
                    for by in cuts:
                        want = ref.aggregate(start, start + LENGTH, by, clock="arrival")
                        got = grid.query(int(widx), by)
                        assert (got.n_r, got.n_s, got.matches) == (
                            want.n_r, want.n_s, want.matches,
                        ), (seed, c, widx, by)
                        assert got.sum_r == pytest.approx(want.sum_r, rel=1e-9, abs=1e-9)

    def test_regression_against_pending_only_window_refolds_it(self):
        """Clock order is checked against the last *appended* clock: a
        window that holds only pending segments still refolds when a
        chunk starts before them, and answers like a grid that received
        the same tuples in one append."""
        grid = DeltaGrid(4, 10.0)
        chunks = [
            tiny_chunk([1.0, 2.0], [5.0, 6.0], key=[1, 1]),
            tiny_chunk([3.0], [7.0], key=[1]),
            # Window 0's segment starts at clock 6.5 < 7.0.
            tiny_chunk([4.0, 11.0], [6.5, 8.0], key=[2, 3]),
        ]
        for chunk in chunks[:2]:
            grid.delta_append(*chunk)
        assert grid._windows[0].n == 0  # nothing folded yet
        grid.delta_append(*chunks[2])
        assert grid.appends == 3 and len(grid) == 2
        assert grid._windows[0].pending == 3 and grid._windows[0].last == 7.0
        whole = DeltaGrid(4, 10.0)
        append_chunk(whole, tuple(np.concatenate(c) for c in zip(*chunks)))
        cuts = (None, 5.0, 6.0, 6.5, 7.0, 8.0)
        assert answers(grid, cuts=cuts) == answers(whole, cuts=cuts)

    def test_fold_is_deferred_to_the_first_read(self):
        grid = DeltaGrid(4, 10.0)
        for t in (1.0, 2.0, 3.0):
            grid.delta_append(*tiny_chunk([t], [t]))
        win = grid._windows[0]
        assert (win.n, win.pending) == (0, 3)
        assert grid.query(0, 2.0).n_r + grid.query(0, 2.0).n_s == 2
        assert (win.n, win.pending) == (3, 0)
        grid.delta_append(*tiny_chunk([4.0], [4.0]))
        assert grid.nbytes > 0 and (win.n, win.pending) == (4, 0)
        grid.delta_append(*tiny_chunk([5.0], [5.0]))
        assert grid.drop_below(1) == 1 and len(grid) == 0


class TestMisalignedColumnsRejected:
    @pytest.mark.parametrize("column", range(1, 5), ids=["clock", "key", "payload", "is_r"])
    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_rejected_before_any_window_changes(self, column, delta):
        """A key column shorter than the events used to be buffered as a
        pending segment; the window's first read then raised
        ``IndexError`` and the next answered an empty window."""
        grid = DeltaGrid(4, 10.0)
        twin = DeltaGrid(4, 10.0)
        for g in (grid, twin):
            g.delta_append(*tiny_chunk([1.0, 2.0], [1.0, 2.0]))
        bad = list(tiny_chunk([3.0, 4.0, 5.0], [3.0, 4.0, 5.0]))
        bad[column] = bad[column][:2] if delta < 0 else np.concatenate(
            [bad[column], bad[column][:1]]
        )
        with pytest.raises(ValueError, match="equally long"):
            grid.delta_append(*bad)
        assert grid.appends == 1 and len(grid) == 1
        assert answers(grid) == answers(twin)
        for g in (grid, twin):
            g.delta_append(*tiny_chunk([3.0, 5.0], [3.0, 5.0]))
        assert answers(grid) == answers(twin)


def held_back_chunks(rng, n_chunks):
    """Arrival-monotone chunks with every fourth one delivered a chunk
    late, so some windows receive a segment out of clock order."""
    chunks = random_chunks(rng, n_chunks, tick=25.0, spread=120.0)
    for i in range(0, n_chunks - 1, 4):
        chunks[i], chunks[i + 1] = chunks[i + 1], chunks[i]
    return chunks


def pending_state(grid):
    return {idx: (w.n, w.pending) for idx, w in grid._windows.items()}


class TestSegmentReads:
    """Eviction, scans and snapshot columns read the segments, folded
    or pending, and never fold."""

    @pytest.mark.parametrize("seed", range(4))
    def test_evict_counts_like_a_rebuild_filter(self, seed):
        rng = np.random.default_rng(seed)
        grid = DeltaGrid(NUM_KEYS, LENGTH)
        events = []
        evicted = 0
        horizon = -np.inf
        for chunk in held_back_chunks(rng, 24):
            append_chunk(grid, chunk)
            events.append(chunk[0])
            if rng.random() < 0.5:
                grid.query(int(rng.integers(0, 8)), None)
            horizon = max(horizon, float(rng.uniform(-50.0, 700.0)))
            before = pending_state(grid)
            evicted += grid.evict(horizon)
            assert evicted == int((np.concatenate(events) < horizon).sum())
            after = pending_state(grid)
            assert all(after[idx] == before[idx] for idx in after)
            floor = int(np.floor(horizon / LENGTH))
            assert all(idx >= floor - 1 for idx in grid._windows)

    @pytest.mark.parametrize("seed", range(4))
    def test_scan_matches_batch_aggregate(self, seed):
        rng = np.random.default_rng(seed)
        chunks = held_back_chunks(rng, 16)
        grid = DeltaGrid(NUM_KEYS, LENGTH)
        for chunk in chunks:
            append_chunk(grid, chunk)
        ref = reference_of(chunks)
        before = pending_state(grid)
        for _ in range(40):
            lo = float(rng.uniform(-50.0, 500.0))
            hi = lo + float(rng.uniform(1.0, 250.0))
            by = [None, float(rng.uniform(0.0, 450.0))][int(rng.integers(0, 2))]
            want = ref.aggregate(lo, hi, available_by=by, clock="arrival")
            got = grid.scan(lo, hi, by)
            assert (got.n_r, got.n_s, got.matches) == (
                want.n_r, want.n_s, want.matches,
            ), (lo, hi, by)
            assert got.sum_r == pytest.approx(want.sum_r, rel=1e-9, abs=1e-9)
        assert pending_state(grid) == before

    def test_columns_are_event_sorted_ties_in_append_order(self):
        rng = np.random.default_rng(3)
        chunks = []
        for c in range(12):
            n = int(rng.integers(1, 40))
            event = np.floor(rng.uniform(max(0.0, c * 25.0 - 100.0), c * 25.0 + 50.0, n))
            arrival = np.sort(c * 25.0 + rng.uniform(0.0, 25.0, n))
            chunks.append(
                (event, arrival, rng.integers(0, NUM_KEYS, n).astype(np.int64),
                 rng.uniform(size=n), rng.random(n) < 0.5)
            )
        grid = DeltaGrid(NUM_KEYS, LENGTH)
        for chunk in chunks:
            append_chunk(grid, chunk)
        grid.query(1, None)
        before = pending_state(grid)
        # Each chunk stably sorted by event, in append order, then one
        # stable event sort: equal events keep their ingest order.
        blocks = []
        for chunk in chunks:
            block = np.vstack([col.astype(float) for col in chunk])
            blocks.append(block[:, np.argsort(chunk[0], kind="stable")])
        rows = np.hstack(blocks)
        rows = rows[:, np.argsort(rows[0], kind="stable")]
        for horizon in (-1.0, 130.0, 205.0):
            cols = grid.columns(horizon)
            keep = rows[0] >= horizon
            for got, want in zip(cols, rows):
                np.testing.assert_array_equal(got.astype(float), want[keep])
        assert pending_state(grid) == before
        empty = DeltaGrid(NUM_KEYS, LENGTH).columns(0.0)
        assert [c.dtype for c in empty] == [float, float, np.int64, float, bool]
