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
from repro.joins.arrays import BatchArrays, WindowAggregate, negative_key_error

__all__ = ["DeltaAppendError", "DeltaGrid", "WindowAggregator"]

_EMPTY = WindowAggregate(0, 0, 0.0, 0.0)


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
    """
    n = len(regroup)
    pos = np.arange(n, dtype=np.int64)
    group_first = np.flatnonzero(new_group)
    # Index of each element's group-first element (its exclusive-sum
    # base), as one gather instead of a per-column double gather.
    base = group_first[np.cumsum(new_group) - 1]
    rr = is_r[regroup]
    pp = payload[regroup]
    rr_int = rr.astype(np.int64)
    cum_r = np.cumsum(rr_int)
    excl_r = cum_r - rr_int
    r_before = excl_r - excl_r[base]
    # Earlier S-tuples of the group = earlier tuples minus earlier Rs.
    s_before = (pos - base) - r_before
    rv = np.where(rr, pp, 0.0)
    cum_v = np.cumsum(rv)
    excl_v = cum_v - rv
    rv_before = excl_v - excl_v[base]
    if priors is not None:
        prior_r, prior_s, prior_rv = priors
        r_before = prior_r + r_before
        s_before = prior_s + s_before
        rv_before = prior_rv + rv_before
    d_matches = np.empty(n, dtype=np.int64)
    d_matches[regroup] = np.where(rr, s_before, r_before)
    d_sum = np.empty(n)
    d_sum[regroup] = np.where(rr, pp * s_before, rv_before)
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
        widx = np.repeat(np.arange(num_windows, dtype=np.int64), counts)

        # Ranks of the clock values (ties broken by event position, like a
        # stable sort): lets both sorts below run on packed unique int64
        # codes, ~5-10x faster than an equivalent np.lexsort.
        if clock_order is None:
            clock_order = np.argsort(clock_values, kind="stable")
        crank = np.empty(n, dtype=np.int64)
        crank[clock_order] = np.arange(n, dtype=np.int64)

        # Sort by (window, clock).  widx is already nondecreasing, so the
        # window segments keep the `bounds` boundaries; within each
        # segment tuples become clock-ascending.
        if num_windows * n < 2**62:
            order = np.argsort(widx * n + crank)
        else:
            order = np.lexsort((crank, widx))
        key = arrays.key[order]
        is_r = arrays.is_r[order]
        payload = arrays.payload[order]
        self.clock = clock_values[order]

        # Grouped (window, key) exclusive prefixes -> per-tuple deltas of
        # the rolled aggregates.  Ties within a group keep clock order
        # (the position in the window-sorted layout encodes it).
        num_keys = arrays.num_keys
        pos = np.arange(n, dtype=np.int64)
        if num_windows * num_keys * n < 2**62:
            regroup = np.argsort((widx * num_keys + key) * n + pos)
        else:
            regroup = np.lexsort((pos, key, widx))
        kk = key[regroup]
        ww = widx[regroup]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = (ww[1:] != ww[:-1]) | (kk[1:] != kk[:-1])
        d_matches, d_sum = _pair_deltas(regroup, new_group, is_r, payload)

        # Global inclusive prefix columns (queries subtract the segment
        # base, so no per-element base subtraction is needed here).
        self.p_matches = np.cumsum(d_matches)
        self.p_sum = np.cumsum(d_sum)
        self.p_nr = np.cumsum(is_r.astype(np.int64))
        self.p_ns = np.arange(1, n + 1, dtype=np.int64) - self.p_nr
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

    # -- grid geometry -------------------------------------------------------

    def window_index(self, start: float) -> int:
        """Grid index of the window starting at ``start``."""
        return int(round((start - self.origin) / self.window_length))

    def covers(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` is exactly one window of this grid."""
        tol = 1e-9 * max(self.window_length, 1.0)
        idx = self.window_index(start)
        return (
            abs(self.origin + idx * self.window_length - start) <= tol
            and abs((end - start) - self.window_length) <= tol
        )

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
        if not self.covers(start, end):
            return None
        idx = self.window_index(start)
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


class DeltaAppendError(ValueError):
    """An appended chunk is not clock-monotone against the grid's state.

    :meth:`DeltaGrid.delta_append` requires each touched window's new
    tuples to start at or after that window's last appended clock value,
    pending segments included (prefix aggregates only ever *extend*).
    The serving layer's ingest is arrival-ordered so this never fires in
    steady state; callers that cannot guarantee it (restores,
    adversarial tests) catch this and rebuild the grid from their run
    storage.  The grid is left unmodified when this is raised.
    """


class _DeltaWindow:
    """Growable per-window delta state of one :class:`DeltaGrid` window.

    Holds the dense per-key join state (``c_r``/``c_s``/``sum_rv``) the
    O(1)-per-tuple insertion kernel rolls forward, plus the clock-sorted
    inclusive prefix columns queries binary-search.  Arrays grow by
    doubling, so folding is amortized O(1) per tuple.  ``pending`` holds
    the appended segments not yet folded into the prefix columns, as
    ``(key, payload, is_r, clock)`` views in append order, and ``last``
    the largest clock appended so far, pending segments included.
    """

    __slots__ = (
        "c_r", "c_s", "sum_rv", "n", "clock", "p_matches", "p_sum", "p_nr", "p_ns",
        "last", "pending",
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
        self.pending: list[tuple[np.ndarray, ...]] = []

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
        )


class DeltaGrid:
    """Mergeable, append-only prefix aggregates of one tumbling grid.

    Where :class:`_GridIndex` builds its prefix columns in one batch
    sweep and must be rebuilt from scratch whenever the batch grows,
    ``DeltaGrid`` *extends* per-window prefix state: each fold builds
    only the new tuples' deltas — O(new tuples) — seeded from the
    accumulated per-key counts, so a pair spanning two folds is charged
    exactly once, in the fold that holds the later tuple.  After any
    append sequence, a window's prefix at clock cut ``t`` equals what a
    from-scratch :class:`_GridIndex` over the union would report:
    integer columns (``n_r``/``n_s``/``matches``) bit for bit, the
    float payload sum to within summation-order rounding.

    Folding is on read.  An append validates the chunk and buffers each
    touched window's segment as views of the appended columns (callers
    must not mutate them afterwards); the first read of a window
    (:meth:`query`, :attr:`nbytes`) folds all of its pending segments
    with one stable clock sort and one prefix extension.  A window
    absorbs many appends between reads, so most appends cost a few
    reductions instead of a prefix extension each.  Segments are
    clock-monotone across appends, so the fold orders tuples exactly as
    folding each append at once would.

    The availability clock must be nondecreasing per window across
    appends (:class:`DeltaAppendError` otherwise, checked against the
    window's last appended clock, pending segments included); within a
    chunk any order is fine.  This is the aggregation engine behind
    :class:`repro.serve.shards.ShardStore`; the generic batch path keeps
    using :class:`WindowAggregator`.

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

    # -- grid geometry (same semantics as WindowAggregator) ------------------

    def window_index(self, start: float) -> int:
        """Grid index of the window starting at ``start``."""
        return int(round((start - self.origin) / self.length))

    def covers(self, start: float, end: float) -> bool:
        """Whether ``[start, end)`` is exactly one window of this grid."""
        tol = 1e-9 * max(self.length, 1.0)
        idx = self.window_index(start)
        return (
            abs(self.origin + idx * self.length - start) <= tol
            and abs((end - start) - self.length) <= tol
        )

    @property
    def nbytes(self) -> int:
        """Memory held by all window states (the grid's working set).

        Folds every window's pending segments first, so the figure is
        the folded prefix state's.
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
        """Buffer one event-sorted chunk in the grid; touched windows.

        ``event`` must be sorted ascending (a
        :class:`repro.serve.runs.SortedRun` provides this for free);
        window membership then uses the exact ``searchsorted`` edge
        semantics of :class:`_GridIndex`, so boundary tuples land in the
        same window as the reference.  The whole validation pass runs
        before any state is touched: on :class:`DeltaAppendError`, or
        the ``ValueError`` of a non-finite event or clock value or of a
        key outside ``[0, num_keys)``, the grid is unchanged.  Each
        touched window keeps its segment pending until its next read.
        """
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
        # Pass 1: validate every touched segment's clock range against
        # its window's last appended clock — all or nothing.
        windows = self._windows
        segments: list[tuple[int, int, int, float]] = []
        for i in range(len(bounds) - 1):
            lo, hi = bounds[i], bounds[i + 1]
            if hi <= lo:
                continue
            idx = w_lo + i
            seg = clock[lo:hi]
            first = float(seg.min())
            win = windows.get(idx)
            if win is not None and first < win.last:
                raise DeltaAppendError(
                    f"window {idx}: chunk clock {first} precedes the "
                    f"window's last appended clock {win.last}"
                )
            segments.append((idx, lo, hi, float(seg.max())))
        # Pass 2: buffer each segment; its window folds it on read.
        for idx, lo, hi, last in segments:
            win = windows.get(idx)
            if win is None:
                win = windows[idx] = _DeltaWindow(self.num_keys)
            win.pending.append((key[lo:hi], payload[lo:hi], is_r[lo:hi], clock[lo:hi]))
            win.last = last
        self.appends += 1
        return len(segments)

    def _fold(self, win: _DeltaWindow) -> None:
        """Roll a window's pending segments into its prefix state.

        Each pending segment's clocks start at or after the previous
        one's end, so one stable sort of their concatenation orders the
        tuples exactly as sorting each segment on its own would.
        """
        pending = win.pending
        win.pending = []
        if len(pending) == 1:
            key, payload, is_r, clock = pending[0]
        else:
            key, payload, is_r, clock = (np.concatenate(col) for col in zip(*pending))
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

    # -- queries --------------------------------------------------------------

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

    def drop_below(self, min_idx: int) -> int:
        """Drop whole window states with index below ``min_idx``.

        The retention analog of run eviction: a window entirely behind
        the horizon can never be grid-answered again, so its state,
        pending segments included, is released in one dict deletion —
        survivors untouched.  Returns the number of windows dropped.
        """
        stale = [idx for idx in self._windows if idx < min_idx]
        for idx in stale:
            del self._windows[idx]
        return len(stale)
