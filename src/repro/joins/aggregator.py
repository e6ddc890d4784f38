"""Incremental window aggregation: one sweep, O(1)-per-tuple delta state.

``BatchArrays.aggregate`` answers one (window, availability) query by
rescanning the window's tuples and rebuilding per-key count tables from
scratch — O(|window| + num_keys) per query.  The runner asks hundreds of
such queries per run (the exact oracle for every window, every operator's
observed view, PECJ's finalization sweeps), which made the rescan the hot
path of every benchmark.

:class:`WindowAggregator` replaces the rescans with an incremental
engine.  For one tumbling grid (length, origin) it inserts the tuples of
each window once, in availability-clock order, maintaining per-key delta
state — ``c_R[k]``, ``c_S[k]``, ``sum_Rv[k]`` — and rolling the join
aggregates forward with O(1) work per tuple:

* R-tuple, key ``k``, payload ``v``: ``matches += c_S[k]``;
  ``sum_r += v * c_S[k]``
* S-tuple, key ``k``: ``matches += c_R[k]``; ``sum_r += sum_Rv[k]``

The kernel charges each joined pair (r, s) exactly once — when the later
of the two is inserted — so after any prefix of insertions the rolled
totals equal the rescan's ``sum_k c_R[k] * c_S[k]`` and
``sum_k sum_Rv[k] * c_S[k]`` over the inserted set.  The per-tuple deltas
are computed for the whole batch at once with a grouped (window, key)
prefix pass — pure numpy, no Python loop — and accumulated into *prefix
aggregates* per window.

Afterwards any query is a binary search: the available subset of a window
(``clock_time <= available_by``) is exactly a prefix of its clock-sorted
tuples, and the stored prefix aggregate at that position is the answer.
Queries drop from O(|window| + num_keys) to O(log |window|); the whole
grid — including every window's oracle — costs one O(n log n) sweep.
``tests/joins/test_aggregator.py`` cross-checks exact agreement with
``BatchArrays.aggregate`` on randomized disorder batches, and
``benchmarks/bench_hotpath.py`` tracks the resulting speedup.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.joins.arrays import (
    BatchArrays,
    WindowAggregate,
    check_aligned,
    negative_key_error,
)

__all__ = ["DeltaGrid", "WindowAggregator", "grid_slot"]

_EMPTY = WindowAggregate(0, 0, 0.0, 0.0)


def grid_slot(origin: float, length: float, start: float, end: float) -> int | None:
    """Index of ``[start, end)`` on the tumbling grid ``(length, origin)``,
    or ``None`` when the range is not exactly one of its windows.

    ``start`` must lie on a window edge and ``end - start`` must equal
    ``length``, each to within ``1e-9 * max(length, 1)``.  Both grids and
    their callers locate a window with this one computation.
    """
    idx = int(round((start - origin) / length))
    tol = 1e-9 * max(length, 1.0)
    if abs(origin + idx * length - start) <= tol and abs((end - start) - length) <= tol:
        return idx
    return None


def _pair_deltas(
    regroup: np.ndarray,
    new_group: np.ndarray,
    is_r: np.ndarray,
    payload: np.ndarray,
    priors: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-tuple deltas of the rolled ``matches``/``sum_r`` aggregates.

    ``regroup`` permutes the tuples into groups (one per join key, or
    per (window, key)), keeping each group in insertion order;
    ``new_group`` flags each group's first element in that order.  A
    tuple's delta counts the pairs it closes with the group's *earlier*
    tuples — grouped exclusive prefixes, no Python loop.  ``priors``
    ``(c_r, c_s, sum_rv)``, gathered per element in regrouped order,
    seed every group with the per-key state accumulated before this
    batch, so a pair spanning two batches is charged once, in the later
    one.  Returns the deltas in the tuples' original order.

    Group bases are spread with ``np.repeat`` over the group sizes and
    the exclusive sums are formed in place, so the kernel holds few
    full-size temporaries at once; every value is the one the direct
    ``cumsum - x - base`` expressions give.
    """
    n = len(regroup)
    group_first = np.flatnonzero(new_group)
    sizes = np.diff(group_first, append=n)
    rr = is_r[regroup]
    # Earlier R-tuples of the group: exclusive cumsum minus the group base.
    r_before = np.cumsum(rr, dtype=np.int64)
    r_before -= rr
    r_before -= np.repeat(r_before[group_first], sizes)
    # Earlier S-tuples of the group = earlier tuples minus earlier Rs.
    s_before = np.arange(n, dtype=np.int64)
    s_before -= np.repeat(group_first, sizes)
    s_before -= r_before
    pp = payload[regroup]
    rv = np.where(rr, pp, 0.0)
    rv_before = np.cumsum(rv)
    rv_before -= rv
    del rv
    rv_before -= np.repeat(rv_before[group_first], sizes)
    if priors is not None:
        prior_r, prior_s, prior_rv = priors
        r_before += prior_r
        s_before += prior_s
        rv_before += prior_rv
    # An R-tuple closes a pair with every earlier S of its group, an
    # S-tuple with every earlier R; the chosen delta overwrites in place.
    np.copyto(r_before, s_before, where=rr)
    d_matches = np.empty(n, dtype=np.int64)
    d_matches[regroup] = r_before
    del r_before
    pp *= s_before
    del s_before
    np.copyto(rv_before, pp, where=rr)
    del pp
    d_sum = np.empty(n)
    d_sum[regroup] = rv_before
    return d_matches, d_sum


class _GridIndex:
    """Prefix aggregates of one tumbling grid under one availability clock.

    Window segments are located with the same ``searchsorted(event, ...)``
    left-boundary semantics as ``BatchArrays.window_slice``, so membership
    agrees with the reference bit-for-bit even at float window edges.

    Prefix columns are *global* inclusive cumsums over the
    (window, clock)-sorted tuples; a window's aggregate at position ``j``
    is ``P[j] - P[segment_start - 1]``.  For the integer columns
    (matches, n_R, n_S) that difference is exact; for the payload column
    the cancellation error is ~machine-epsilon of the whole-batch payload
    mass, negligible against any window's sum.
    """

    def __init__(
        self,
        arrays: BatchArrays,
        length: float,
        origin: float,
        clock_values: np.ndarray,
        clock_order: np.ndarray | None = None,
    ):
        event = arrays.event
        n = len(event)
        if n == 0:
            self.w_lo = 0
            self.bounds = np.zeros(1, dtype=np.int64)
            self.clock = np.empty(0)
            self.p_matches = np.empty(0, dtype=np.int64)
            self.p_sum = np.empty(0)
            self.p_nr = np.empty(0, dtype=np.int64)
            self.p_ns = np.empty(0, dtype=np.int64)
            return
        # One window of padding on each side so the grid covers every
        # tuple even when floor() and searchsorted disagree by one ulp.
        w_lo = math.floor((float(event[0]) - origin) / length) - 1
        w_hi = math.floor((float(event[-1]) - origin) / length) + 1
        edges = origin + np.arange(w_lo, w_hi + 2, dtype=np.float64) * length
        bounds = np.searchsorted(event, edges, side="left").astype(np.int64)
        if bounds[0] != 0 or bounds[-1] != n:
            raise AssertionError("grid padding failed to cover the batch")
        counts = np.diff(bounds)
        num_windows = len(counts)
        if clock_order is None:
            clock_order = np.argsort(clock_values, kind="stable")

        # Sort by (window, clock), clock ties in ``clock_order``.  The
        # windows stay in `bounds` order, so each segment keeps its
        # boundaries and becomes clock-ascending.  Visiting the window ids
        # in clock order and sorting them stably gives exactly that order;
        # below 2**15 windows the ids fit int16, whose stable sort is a
        # radix sort.
        wdtype = np.int16 if num_windows < 2**15 else np.int64
        widx = np.repeat(np.arange(num_windows, dtype=wdtype), counts)
        order = clock_order[np.argsort(widx[clock_order], kind="stable")]
        is_r = arrays.is_r[order]
        self.clock = clock_values[order]

        # Grouped (window, key) exclusive prefixes -> per-tuple deltas of
        # the rolled aggregates.  One packed code names each tuple's
        # (window, key) group; ties within a group keep clock order (the
        # position in the window-sorted layout encodes it).
        num_keys = arrays.num_keys
        key = arrays.key[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        if num_windows * num_keys * n < 2**62:
            code = widx.astype(np.int64)
            code *= num_keys
            code += key
            del widx, key
            packed = code * n
            packed += np.arange(n, dtype=np.int64)
            regroup = np.argsort(packed)
            del packed
            code = code[regroup]
            np.not_equal(code[1:], code[:-1], out=new_group[1:])
            del code
        else:
            regroup = np.lexsort((np.arange(n), key, widx))
            kk = key[regroup]
            ww = widx[regroup]
            new_group[1:] = (ww[1:] != ww[:-1]) | (kk[1:] != kk[:-1])
        d_matches, d_sum = _pair_deltas(
            regroup, new_group, is_r, arrays.payload[order]
        )
        del order, regroup, new_group

        # Global inclusive prefix columns (queries subtract the segment
        # base, so no per-element base subtraction is needed here).
        self.p_matches = np.cumsum(d_matches, out=d_matches)
        self.p_sum = np.cumsum(d_sum, out=d_sum)
        self.p_nr = np.cumsum(is_r, dtype=np.int64)
        self.p_ns = np.arange(1, n + 1, dtype=np.int64)
        self.p_ns -= self.p_nr
        self.w_lo = w_lo
        self.bounds = bounds

    @property
    def nbytes(self) -> int:
        """Memory held by the prefix columns (the index's working set)."""
        return int(
            self.bounds.nbytes
            + self.clock.nbytes
            + self.p_matches.nbytes
            + self.p_sum.nbytes
            + self.p_nr.nbytes
            + self.p_ns.nbytes
        )

    def query(self, idx: int, available_by: float | None) -> WindowAggregate:
        """Aggregate of grid window ``idx`` over its available prefix."""
        i = idx - self.w_lo
        if i < 0 or i + 1 >= len(self.bounds):
            return _EMPTY
        lo = int(self.bounds[i])
        hi = int(self.bounds[i + 1])
        if available_by is not None:
            hi = lo + int(
                np.searchsorted(self.clock[lo:hi], available_by, side="right")
            )
        if hi <= lo:
            return _EMPTY
        j = hi - 1
        if lo > 0:
            b = lo - 1
            return WindowAggregate(
                int(self.p_nr[j] - self.p_nr[b]),
                int(self.p_ns[j] - self.p_ns[b]),
                float(self.p_matches[j] - self.p_matches[b]),
                float(self.p_sum[j] - self.p_sum[b]),
            )
        return WindowAggregate(
            int(self.p_nr[j]),
            int(self.p_ns[j]),
            float(self.p_matches[j]),
            float(self.p_sum[j]),
        )


class WindowAggregator:
    """Incremental join aggregates for one tumbling grid over a batch.

    Args:
        arrays: Columnar merged batch.
        window_length: Grid window length ``|W|`` in ms.
        origin: Event-time offset of the grid (sliding phases use
            shifted origins).

    The completion-clock index tracks ``arrays.completion_version`` and is
    rebuilt lazily after every cost application; the arrival-clock index
    and the oracle cache are built once (those columns are immutable).
    """

    def __init__(self, arrays: BatchArrays, window_length: float, origin: float = 0.0):
        if window_length <= 0:
            raise ValueError("window_length must be positive")
        self.arrays = arrays
        self.window_length = float(window_length)
        self.origin = float(origin)
        self._completion_index: _GridIndex | None = None
        self._completion_version = -1
        self._arrival_index: _GridIndex | None = None
        self._oracle_cache: dict[int, WindowAggregate] = {}

    # -- queries -------------------------------------------------------------

    def _index_for(self, clock: str) -> _GridIndex:
        if clock == "completion":
            version = self.arrays.completion_version
            if self._completion_index is None or self._completion_version != version:
                with obs.timer("aggregator.build_ms"):
                    self._completion_index = _GridIndex(
                        self.arrays, self.window_length, self.origin,
                        self.arrays.completion, self.arrays.completion_order(),
                    )
                self._completion_version = version
                obs.counter("aggregator.builds.completion").inc()
                obs.gauge("aggregator.index_bytes").add(
                    self._completion_index.nbytes
                )
            return self._completion_index
        if clock == "arrival":
            if self._arrival_index is None:
                with obs.timer("aggregator.build_ms"):
                    self._arrival_index = _GridIndex(
                        self.arrays, self.window_length, self.origin,
                        self.arrays.arrival, self.arrays.arrival_order(),
                    )
                obs.counter("aggregator.builds.arrival").inc()
                obs.gauge("aggregator.index_bytes").add(self._arrival_index.nbytes)
            return self._arrival_index
        raise ValueError(f"unknown clock {clock!r}")

    def try_at(
        self,
        start: float,
        end: float,
        available_by: float | None = None,
        clock: str = "completion",
    ) -> WindowAggregate | None:
        """Aggregate of ``[start, end)`` if it lies on this grid, else None.

        Semantics match ``BatchArrays.aggregate(start, end, available_by,
        clock)`` exactly; ``available_by=None`` is the oracle view (cached
        — it does not depend on the clock).
        """
        idx = grid_slot(self.origin, self.window_length, start, end)
        if idx is None:
            return None
        if available_by is None:
            hit = self._oracle_cache.get(idx)
            if hit is None:
                hit = self._index_for(clock).query(idx, None)
                self._oracle_cache[idx] = hit
            return hit
        return self._index_for(clock).query(idx, available_by)

    def at(
        self,
        start: float,
        end: float,
        available_by: float | None = None,
        clock: str = "completion",
    ) -> WindowAggregate:
        """Like :meth:`try_at` but raises for off-grid ranges."""
        agg = self.try_at(start, end, available_by, clock)
        if agg is None:
            raise ValueError(
                f"[{start}, {end}) is not a window of the grid "
                f"(length={self.window_length}, origin={self.origin})"
            )
        return agg


class _DeltaWindow:
    """The tuples and the growable prefix state of one :class:`DeltaGrid` window.

    ``segs`` holds every segment appended to the window, as
    ``(event, clock, key, payload, is_r)`` views in append order: the
    grid's only copy of the window's tuples.  The last ``pending`` of
    them are not yet folded into the prefix state: the dense per-key
    join state (``c_r``/``c_s``/``sum_rv``) the O(1)-per-tuple insertion
    kernel rolls forward, plus the clock-sorted inclusive prefix columns
    queries binary-search.  Prefix arrays grow by doubling, so folding
    is amortized O(1) per tuple.  ``last`` is the largest clock appended
    so far, pending segments included, ``size`` the number of tuples
    held and ``dead`` how many of them :meth:`DeltaGrid.evict` has
    counted as behind the horizon.
    """

    __slots__ = (
        "c_r", "c_s", "sum_rv", "n", "clock", "p_matches", "p_sum", "p_nr", "p_ns",
        "last", "segs", "pending", "size", "dead",
    )

    def __init__(self, num_keys: int):
        self.c_r = np.zeros(num_keys, dtype=np.int64)
        self.c_s = np.zeros(num_keys, dtype=np.int64)
        self.sum_rv = np.zeros(num_keys)
        self.n = 0
        self.clock = np.empty(0)
        self.p_matches = np.empty(0, dtype=np.int64)
        self.p_sum = np.empty(0)
        self.p_nr = np.empty(0, dtype=np.int64)
        self.p_ns = np.empty(0, dtype=np.int64)
        self.last = -math.inf
        self.segs: list[tuple[np.ndarray, ...]] = []
        self.pending = 0
        self.size = 0
        self.dead = 0

    def unfold(self) -> None:
        """Clear the prefix state: the next read refolds every segment."""
        self.c_r.fill(0)
        self.c_s.fill(0)
        self.sum_rv.fill(0.0)
        self.n = 0
        self.pending = len(self.segs)

    def _reserve(self, extra: int) -> None:
        need = self.n + extra
        cap = len(self.clock)
        if need <= cap:
            return
        new_cap = max(2 * cap, need, 16)
        for name in ("clock", "p_matches", "p_sum", "p_nr", "p_ns"):
            old = getattr(self, name)
            grown = np.empty(new_cap, dtype=old.dtype)
            grown[: self.n] = old[: self.n]
            setattr(self, name, grown)

    @property
    def nbytes(self) -> int:
        return int(
            self.c_r.nbytes
            + self.c_s.nbytes
            + self.sum_rv.nbytes
            + self.clock.nbytes
            + self.p_matches.nbytes
            + self.p_sum.nbytes
            + self.p_nr.nbytes
            + self.p_ns.nbytes
            + sum(col.nbytes for seg in self.segs for col in seg)
        )


class DeltaGrid:
    """Mergeable, append-only window state of one tumbling grid.

    Each window keeps its tuples, in append order, next to prefix
    aggregates over them.  Where :class:`_GridIndex` builds its prefix
    columns in one batch sweep and must be rebuilt from scratch whenever
    the batch grows, ``DeltaGrid`` *extends* per-window prefix state:
    each fold builds only the new tuples' deltas — O(new tuples) —
    seeded from the accumulated per-key counts, so a pair spanning two
    folds is charged exactly once, in the fold that holds the later
    tuple.  After any append sequence, a window's prefix at clock cut
    ``t`` equals what a from-scratch :class:`_GridIndex` over the union
    would report: integer columns (``n_r``/``n_s``/``matches``) bit for
    bit, the float payload sum to within summation-order rounding.

    Folding is on read.  An append validates the chunk and adds each
    touched window's segment as views of the appended columns (callers
    must not mutate them afterwards); the first :meth:`query` (or
    :attr:`nbytes`) of a window folds its pending segments with one
    stable clock sort and one prefix extension, so a window absorbs
    many appends between reads.  A segment whose clocks start before
    the window's last appended clock cannot extend the prefix; it clears
    the window's prefix state instead, and the next read refolds that
    window alone from its segments.  Eviction (:meth:`evict`), off-grid
    scans (:meth:`scan`) and snapshots (:meth:`columns`) read the
    segments, folded or not, and never fold, so they do not move a fold.

    This is the state of :class:`repro.serve.shards.ShardStore`; the
    generic batch path keeps using :class:`WindowAggregator`.

    Args:
        num_keys: Dense width of the per-key count state (appending a
            key outside ``[0, num_keys)`` raises ``ValueError``).
        length: Grid window length.
        origin: Event-time offset of the grid.
    """

    def __init__(self, num_keys: int, length: float, origin: float = 0.0):
        if length <= 0:
            raise ValueError("length must be positive")
        if num_keys < 1:
            raise ValueError("num_keys must be positive")
        self.num_keys = int(num_keys)
        self.length = float(length)
        self.origin = float(origin)
        self.appends = 0
        self._windows: dict[int, _DeltaWindow] = {}

    @property
    def nbytes(self) -> int:
        """Memory held by all windows: segments and prefix state.

        Folds every window's pending segments first, so the prefix
        figure is the folded state's.
        """
        for win in self._windows.values():
            if win.pending:
                self._fold(win)
        return sum(w.nbytes for w in self._windows.values())

    def __len__(self) -> int:
        return len(self._windows)

    # -- appends --------------------------------------------------------------

    def delta_append(
        self,
        event: np.ndarray,
        clock: np.ndarray,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
    ) -> int:
        """Add one event-sorted chunk to the grid; touched windows.

        ``event`` must be sorted ascending; window membership then uses
        the exact ``searchsorted`` edge semantics of :class:`_GridIndex`,
        so boundary tuples land in the same window as the reference.
        Any clock order is accepted.  Validation runs before any state
        is touched: columns of unequal length, a non-finite event or
        clock value or a key outside ``[0, num_keys)`` raise
        ``ValueError`` and leave the grid unchanged.  Each touched
        window keeps its segment pending until its next read.
        """
        check_aligned(event, clock, key, payload, is_r)
        if len(event) == 0:
            return 0
        if not (np.isfinite(event).all() and np.isfinite(clock).all()):
            raise ValueError("event and clock values must be finite")
        if int(key.min()) < 0:
            raise negative_key_error(int(key.min()))
        if int(key.max()) >= self.num_keys:
            raise ValueError(
                f"key {int(key.max())} outside dense key space [0, {self.num_keys})"
            )
        return self._delta_append(event, clock, key, payload, is_r)

    def _delta_append(self, event, clock, key, payload, is_r) -> int:
        """:meth:`delta_append`'s body, for a non-empty chunk whose event and
        clock values its caller has checked to be finite and whose keys lie
        in ``[0, num_keys)``."""
        n = len(event)
        w_lo = math.floor((float(event[0]) - self.origin) / self.length) - 1
        w_hi = math.floor((float(event[-1]) - self.origin) / self.length) + 1
        edges = self.origin + np.arange(w_lo, w_hi + 2, dtype=np.float64) * self.length
        bounds = event.searchsorted(edges, side="left").tolist()
        if bounds[0] != 0 or bounds[-1] != n:
            raise AssertionError("grid padding failed to cover the chunk")
        windows = self._windows
        touched = 0
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            if hi <= lo:
                continue
            win = windows.get(w_lo + i)
            if win is None:
                win = windows[w_lo + i] = _DeltaWindow(self.num_keys)
            seg = clock[lo:hi]
            first = float(seg.min())
            last = float(seg.max())
            if first < win.last:
                # Out of clock order: the prefix cannot be extended, so the
                # window refolds from its segments on its next read.
                win.unfold()
                if last < win.last:
                    last = win.last
            win.last = last
            win.segs.append((event[lo:hi], seg, key[lo:hi], payload[lo:hi], is_r[lo:hi]))
            win.pending += 1
            win.size += hi - lo
            touched += 1
        self.appends += 1
        return touched

    def _fold(self, win: _DeltaWindow) -> None:
        """Roll a window's pending segments into its prefix state.

        An in-order segment's clocks start at or after the previous
        one's end, so one stable sort of the pending concatenation
        orders the tuples exactly as sorting each segment on its own
        would; after :meth:`_DeltaWindow.unfold` every segment is
        pending and the same sort orders them all.
        """
        segs = win.segs[-win.pending :]
        win.pending = 0
        if len(segs) == 1:
            _, clock, key, payload, is_r = segs[0]
        else:
            _, *cols = zip(*segs)
            clock, key, payload, is_r = (np.concatenate(col) for col in cols)
        order = np.argsort(clock, kind="stable")
        self._append_segment(win, key[order], payload[order], is_r[order], clock[order])

    def _append_segment(
        self,
        win: _DeltaWindow,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
        clock: np.ndarray,
    ) -> None:
        """Roll one clock-sorted window segment into the prefix state."""
        m = len(key)
        pos = np.arange(m, dtype=np.int64)
        # Grouped exclusive prefixes by key, in clock order — the
        # kernel _GridIndex uses, seeded with the accumulated counts.
        if self.num_keys * m < 2**62:
            regroup = np.argsort(key * m + pos)
        else:  # pragma: no cover - needs an astronomically wide key space
            regroup = np.lexsort((pos, key))
        kk = key[regroup]
        new_group = np.empty(m, dtype=bool)
        new_group[0] = True
        new_group[1:] = kk[1:] != kk[:-1]
        priors = (win.c_r[kk], win.c_s[kk], win.sum_rv[kk])
        d_matches, d_sum = _pair_deltas(regroup, new_group, is_r, payload, priors)
        # Advance the per-key state by the whole segment.
        r_keys = key[is_r]
        s_keys = key[~is_r]
        win.c_r += np.bincount(r_keys, minlength=self.num_keys).astype(np.int64)
        win.c_s += np.bincount(s_keys, minlength=self.num_keys).astype(np.int64)
        win.sum_rv += np.bincount(
            r_keys, weights=payload[is_r], minlength=self.num_keys
        )
        # Extend the inclusive prefix columns.
        win._reserve(m)
        j = win.n
        nr_seg = is_r.astype(np.int64)
        base_m = int(win.p_matches[j - 1]) if j else 0
        base_s = float(win.p_sum[j - 1]) if j else 0.0
        base_nr = int(win.p_nr[j - 1]) if j else 0
        base_ns = int(win.p_ns[j - 1]) if j else 0
        win.clock[j : j + m] = clock
        win.p_matches[j : j + m] = np.cumsum(d_matches) + base_m
        win.p_sum[j : j + m] = np.cumsum(d_sum) + base_s
        win.p_nr[j : j + m] = np.cumsum(nr_seg) + base_nr
        win.p_ns[j : j + m] = (pos + 1) - np.cumsum(nr_seg) + base_ns
        win.n = j + m

    # -- reads ----------------------------------------------------------------

    def query(self, idx: int, available_by: float | None) -> WindowAggregate:
        """Aggregate of grid window ``idx`` over its available prefix.

        Folds the window's pending segments first.
        """
        win = self._windows.get(idx)
        if win is None:
            return _EMPTY
        if win.pending:
            self._fold(win)
        j = win.n
        if j == 0:
            return _EMPTY
        if available_by is not None:
            j = int(win.clock[:j].searchsorted(available_by, side="right"))
        if j == 0:
            return _EMPTY
        return WindowAggregate(
            int(win.p_nr[j - 1]),
            int(win.p_ns[j - 1]),
            float(win.p_matches[j - 1]),
            float(win.p_sum[j - 1]),
        )

    def scan(self, lo: float, hi: float, available_by: float | None) -> WindowAggregate:
        """Exact aggregate of the held tuples with ``lo <= event < hi``
        and ``clock <= available_by`` (any range, on the grid or off it).

        Bincounts over the slices of every overlapping window's
        segments; each segment is event-sorted, so a slice is two
        ``searchsorted`` calls.
        """
        origin, length = self.origin, self.length
        parts = []
        for idx in sorted(self._windows):
            if origin + idx * length >= hi or origin + (idx + 1) * length <= lo:
                continue
            for event, clock, key, payload, is_r in self._windows[idx].segs:
                a = int(event.searchsorted(lo))
                b = int(event.searchsorted(hi))
                if a < b:
                    parts.append((clock[a:b], key[a:b], payload[a:b], is_r[a:b]))
        if not parts:
            return _EMPTY
        clock, key, payload, is_r = (np.concatenate(col) for col in zip(*parts))
        if available_by is not None:
            avail = clock <= available_by
            key, payload, is_r = key[avail], payload[avail], is_r[avail]
        n_r = int(is_r.sum())
        n_s = len(key) - n_r
        if n_r == 0 or n_s == 0:
            return WindowAggregate(n_r, n_s, 0.0, 0.0)
        num_keys = self.num_keys
        c_r = np.bincount(key[is_r], minlength=num_keys)
        c_s = np.bincount(key[~is_r], minlength=num_keys)
        sum_rv = np.bincount(key[is_r], weights=payload[is_r], minlength=num_keys)
        return WindowAggregate(n_r, n_s, float(c_r @ c_s), float(sum_rv @ c_s))

    def columns(self, horizon: float) -> tuple[np.ndarray, ...]:
        """The held tuples with ``event >= horizon`` as one event-sorted
        ``(event, clock, key, payload, is_r)`` column set.

        Windows in index order, with a stable event sort inside each:
        equal event times keep their append order.  Typed empty columns
        when nothing is held.
        """
        parts = []
        for idx in sorted(self._windows):
            segs = self._windows[idx].segs
            cols = segs[0] if len(segs) == 1 else [np.concatenate(c) for c in zip(*segs)]
            order = np.argsort(cols[0], kind="stable")
            order = order[int(cols[0][order].searchsorted(horizon)) :]
            if len(order):
                parts.append([col[order] for col in cols])
        if not parts:
            return (
                np.empty(0),
                np.empty(0),
                np.empty(0, dtype=np.int64),
                np.empty(0),
                np.empty(0, dtype=bool),
            )
        return tuple(np.concatenate(col) for col in zip(*parts))

    # -- retention ------------------------------------------------------------

    def evict(self, horizon: float) -> int:
        """Count the held tuples newly behind ``horizon``; drop stale windows.

        A tuple is evicted once its event time falls behind the horizon,
        so the count equals what a rebuild-time ``event >= horizon``
        filter would newly drop.  A window whose upper edge is at or
        behind the horizon is evicted whole; only the window straddling
        it counts ``event < horizon``, one ``searchsorted`` per
        event-sorted segment.  Nothing is folded.  Windows more than one
        window behind the horizon are then released (:meth:`drop_below`;
        the window of slack absorbs float fuzz in the ``floor``).
        Horizons must not decrease from call to call.
        """
        origin, length = self.origin, self.length
        newly = 0
        for idx, win in self._windows.items():
            if win.dead == win.size or origin + idx * length >= horizon:
                continue
            if origin + (idx + 1) * length <= horizon:
                dead = win.size
            else:
                dead = 0
                for seg in win.segs:
                    dead += int(seg[0].searchsorted(horizon))
            newly += dead - win.dead
            win.dead = dead
        self.drop_below(math.floor((horizon - origin) / length) - 1)
        return newly

    def drop_below(self, min_idx: int) -> int:
        """Drop whole windows with index below ``min_idx``.

        A window entirely behind the horizon can never be read again, so
        its segments and prefix state are released in one dict deletion
        — survivors untouched.  Returns the number of windows dropped.
        """
        stale = [idx for idx in self._windows if idx < min_idx]
        for idx in stale:
            del self._windows[idx]
        return len(stale)
