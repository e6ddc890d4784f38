"""Key-sharded operator state for the serving layer.

Each shard owns a disjoint key range of the shared join state.  Two
storage modes answer the same queries:

* ``rebuild="runs"`` (default, the hot path): every ingest chunk becomes
  an event-sorted :class:`~repro.serve.runs.SortedRun` (one
  O(chunk log chunk) sort at ingest) stacked in a size-tiered
  :class:`~repro.serve.runs.RunStack` with amortized two-pointer
  compaction, while a mergeable
  :class:`~repro.joins.aggregator.DeltaGrid` extends per-window prefix
  aggregates in O(new tuples + touched windows) per chunk.  A query is
  a binary search into the window's prefix state; retention eviction
  advances per-run frontiers and drops whole expired runs — the shard
  never re-sorts or re-aggregates data it has already absorbed.
  Eviction is memoized on the horizon: it only moves on ingest, so a
  query with nothing ingested since the last eviction skips the sweep.
* ``rebuild="full"`` (the reference): concatenate all retained columns,
  re-argsort them in the ``BatchArrays`` constructor and rebuild the
  prefix-aggregate grid from scratch on the first query after new
  arrivals — O(state · log state) per touched tick.  Kept as the
  equivalence oracle: ``tests/serve/test_shards_incremental.py`` pins
  incremental answers exactly equal to this mode across randomized
  ingest/query/evict/checkpoint/migrate interleavings, and
  ``benchmarks/bench_hotpath.py`` gates the speedup.

Both modes agree bit for bit on integer accounting (``n_r``/``n_s``/
match counts — and therefore on every COUNT answer and on ``evicted``/
``len``); float payload sums agree to summation-order rounding
(~1 ulp per addend), the same caveat the batch aggregator carries.

Queries are answered with *PECJ-lite* compensation: the observed window
aggregate is inflated by the profile's completeness CDF — the paper's
reverse-linear ``1/c(a)`` distortion (Eq. 6) applied per sub-interval
age — using the closed forms of :func:`repro.core.compensation.
compensate` with the observed selectivity and payload mean as plug-in
posteriors.  It is deliberately the cheap instantiation: a serving
layer answering thousands of tenant queries per virtual second cannot
afford a full estimator stack per shard, and the profile is the part
that transfers across queries.

Shards checkpoint to plain JSON-compatible dicts (reusing
:func:`repro.core.persistence.profile_state`) with columns packed as
base64 little-endian arrays (snapshot schema v2; the v1 ``.tolist()``
format restores transparently), which is what tenant migration in
:mod:`repro.serve.service` round-trips.

Incremental shards can additionally *isolate hot keys*
(:meth:`ShardStore.isolate_hot_keys`, PanJoin-style): the named keys get
their own run stack and delta grid, so a viral key's compaction and grid
churn stop interleaving with — and starving — the cold tail's.  Queries
sum the two key-disjoint aggregates, which is exact for the integer
accounting (and for COUNT answers), and with an empty hot set the shard
executes the historical single-store path untouched.

Counters: ``serve.shard.ingested``, ``serve.shard.evicted``,
``serve.shard.queries``, ``serve.shard.rebuilds`` (full mode only),
``serve.shard.compactions``, ``serve.shard.delta_appends``,
``serve.shard.grid_rebuilds``, ``serve.shard.scan_fallbacks``,
``serve.shard.hot_isolations``, ``partition.migration_bytes``.
Gauge: ``serve.shard.runs``.  Histogram: ``serve.shard.ckpt_bytes``.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.compensation import compensate
from repro.core.delay_profile import DelayProfile
from repro.core.persistence import profile_state, restore_profile
from repro.joins.aggregator import DeltaAppendError, DeltaGrid
from repro.joins.arrays import AggKind, BatchArrays, WindowAggregate
from repro.serve.runs import RunStack, SortedRun

__all__ = ["ShardAnswer", "ShardStore"]

_STATE_VERSION = 2

#: Snapshot versions :meth:`ShardStore.restore` understands.  Version 1
#: is the pre-runs ``.tolist()`` column format.
_KNOWN_STATE_VERSIONS = frozenset({1, _STATE_VERSION})

#: Column dtypes of a v2 snapshot, little-endian for portability.
_COLUMN_DTYPES = {
    "event": "<f8",
    "arrival": "<f8",
    "key": "<i8",
    "payload": "<f8",
    "is_r": "|b1",
}

#: Sub-intervals a window is split into when averaging completeness —
#: matches the bucket granularity PECJ's batch operator compensates at.
_AGE_BUCKETS = 8

#: Floor on the mean completeness used to inflate observed counts; below
#: this the profile is effectively saying "almost nothing has arrived"
#: and ``1/c`` amplification becomes noise-dominated garbage.
_MIN_COMPLETENESS = 0.05

_EMPTY_AGG = WindowAggregate(0, 0, 0.0, 0.0)


def _encode_column(values: np.ndarray, dtype: str) -> str:
    """Pack one column as base64 little-endian bytes (JSON-safe)."""
    return base64.b64encode(
        np.ascontiguousarray(values, dtype=dtype).tobytes()
    ).decode("ascii")


def _decode_column(data: str, dtype: str) -> np.ndarray:
    """Invert :func:`_encode_column` into an owned, writable array."""
    return np.frombuffer(base64.b64decode(data), dtype=dtype).copy()


@dataclass(frozen=True, slots=True)
class ShardAnswer:
    """One shard's answer to a window query.

    Attributes:
        value: The compensated output ``O`` (equals ``observed`` when
            the profile is cold or compensation is off).
        observed: The conservative observed-only aggregate — the
            WMJ-equivalent answer, what fallback and shedding return.
        n_r: Observed R-side tuples in the window view.
        n_s: Observed S-side tuples in the window view.
        starved: Whether a side had no observed tuples at all (the
            signal the degradation controller widens or sheds on).
        completeness: The mean completeness ``c̄`` used to inflate the
            observed counts (1.0 when cold).
    """

    value: float
    observed: float
    n_r: int
    n_s: int
    starved: bool
    completeness: float


_EMPTY_ANSWER = ShardAnswer(0.0, 0.0, 0, 0, True, 1.0)


class _HotStore:
    """Dedicated run/grid state of a shard's isolated hot keys.

    Mirrors the shard's incremental cold state (a
    :class:`~repro.serve.runs.RunStack` plus a
    :class:`~repro.joins.aggregator.DeltaGrid`) for the promoted key
    subset, so a viral key's compactions and grid extensions never touch
    the cold tail's structures.
    """

    def __init__(self, num_keys: int, window_ms: float):
        self.runs = RunStack()
        self.grid = DeltaGrid(num_keys, window_ms)
        self.grid_dirty = False


class ShardStore:
    """Operator state of one key shard.

    Args:
        shard_id: The shard's index (labels trace events).
        num_keys: Global key-space size (shards see a subset but the
            bincount aggregation needs the global width); ingested keys
            must lie in ``[0, num_keys)``.
        agg: Aggregation answered by :meth:`query`.
        window_ms: Window length of the query grid.
        retention_ms: Tuples whose event time falls further than this
            behind the newest arrival are dropped (run-granular in
            incremental mode, on rebuild in full mode).  Must
            comfortably exceed the window length plus the widest
            availability budget or queries would silently lose history.
        profile: Delay profile to adopt (default: a fresh one).
        rebuild: ``"runs"`` for the incremental sorted-run state
            (default), ``"full"`` for the full-rebuild reference mode.
    """

    def __init__(
        self,
        shard_id: int,
        num_keys: int,
        agg: AggKind,
        window_ms: float,
        retention_ms: float,
        profile: DelayProfile | None = None,
        rebuild: str = "runs",
    ):
        if retention_ms < 2.0 * window_ms:
            raise ValueError("retention_ms must cover at least two windows")
        if rebuild not in ("runs", "full"):
            raise ValueError(f"unknown rebuild mode {rebuild!r}")
        self.shard_id = shard_id
        self.num_keys = num_keys
        self.agg = agg
        self.window_ms = window_ms
        self.retention_ms = retention_ms
        self.profile = profile or DelayProfile()
        self.rebuild = rebuild
        # Full-rebuild reference state.
        self._chunks: list[tuple[np.ndarray, ...]] = []
        self._arrays: BatchArrays | None = None
        self._dirty = False
        # Incremental sorted-run state.
        self._runs = RunStack()
        self._grid = DeltaGrid(num_keys, window_ms)
        self._grid_dirty = False
        # Hot-key isolation (runs mode only): None until
        # :meth:`isolate_hot_keys` promotes a non-empty key set, so the
        # historical single-store path runs untouched by default.
        self.hot_keys: tuple[int, ...] = ()
        self._hot: _HotStore | None = None
        self._hot_lookup: np.ndarray | None = None
        self.migration_bytes = 0
        self._max_arrival = 0.0
        # Horizon the incremental state was last advanced to, or None
        # when tuples have been added since (see _advance_horizon).
        self._advanced_to: float | None = None
        self.ingested = 0
        self.evicted = 0
        self.queries = 0

    def __len__(self) -> int:
        """Live tuples (lifetime ingested minus lifetime evicted), O(1)."""
        return self.ingested - self.evicted

    # -- ingest ------------------------------------------------------------

    def ingest(
        self,
        event: np.ndarray,
        arrival: np.ndarray,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
    ) -> None:
        """Absorb a batch of arrived tuples (columnar, any order).

        Delays are learned as ``max(arrival - event, 0)`` — the profile
        rejects negative delays outright, and a tuple that arrived
        early has simply arrived.  Keys outside ``[0, num_keys)`` and
        non-finite event or arrival times are rejected before any state
        is touched.
        """
        if len(event) == 0:
            return
        event = np.asarray(event, dtype=float)
        arrival = np.asarray(arrival, dtype=float)
        key = np.asarray(key, dtype=np.int64)
        payload = np.asarray(payload, dtype=float)
        is_r = np.asarray(is_r, dtype=bool)
        if int(key.min()) < 0 or int(key.max()) >= self.num_keys:
            raise ValueError(
                f"shard {self.shard_id}: keys must lie in [0, {self.num_keys}), "
                f"got [{int(key.min())}, {int(key.max())}]"
            )
        if not (np.isfinite(event).all() and np.isfinite(arrival).all()):
            raise ValueError(
                f"shard {self.shard_id}: event and arrival times must be finite"
            )
        if self.rebuild == "full":
            self._chunks.append((event, arrival, key, payload, is_r))
            self._dirty = True
        else:
            cold = (event, arrival, key, payload, is_r)
            hot = None
            if self._hot is not None:
                hot_mask = self._hot_lookup[key]
                if hot_mask.any():
                    cold_mask = ~hot_mask
                    hot = tuple(col[hot_mask] for col in cold)
                    cold = tuple(col[cold_mask] for col in cold)
            if len(cold[0]):
                self._append_run(self._runs, cold, hot=False)
            if hot is not None:
                self._append_run(self._hot.runs, hot, hot=True)
            obs.gauge("serve.shard.runs").set(float(len(self._runs)))
            self._advanced_to = None
        self.profile.update(np.maximum(arrival - event, 0.0))
        self._max_arrival = max(self._max_arrival, float(arrival.max()))
        self.ingested += len(event)
        obs.counter("serve.shard.ingested").inc(len(event))

    def _append_run(
        self, stack: RunStack, cols: tuple[np.ndarray, ...], hot: bool
    ) -> None:
        """Append one chunk to a run stack and extend its delta grid."""
        run = SortedRun.from_chunk(*cols)
        merges = stack.append(run)
        if merges:
            obs.counter("serve.shard.compactions").inc(merges)
        dirty = self._hot.grid_dirty if hot else self._grid_dirty
        if not dirty:
            grid = self._hot.grid if hot else self._grid
            try:
                grid.delta_append(
                    run.event, run.arrival, run.key, run.payload, run.is_r
                )
                obs.counter("serve.shard.delta_appends").inc()
            except DeltaAppendError:
                # Out-of-order arrivals (never the service's tick
                # path): rebuild the grid lazily from the runs.
                if hot:
                    self._hot.grid_dirty = True
                else:
                    self._grid_dirty = True

    # -- full-rebuild reference path ---------------------------------------

    def _rebuild(self) -> BatchArrays:
        """Merge buffered chunks into the queryable arrays, evicting old state."""
        if not self._dirty and self._arrays is not None:
            return self._arrays
        cols: list[list[np.ndarray]] = [[], [], [], [], []]
        if self._arrays is not None:
            prior = self._arrays
            for i, col in enumerate(
                (prior.event, prior.arrival, prior.key, prior.payload, prior.is_r)
            ):
                cols[i].append(col)
        for chunk in self._chunks:
            for i, col in enumerate(chunk):
                cols[i].append(col)
        if not cols[0]:
            cols = [
                [np.empty(0)],
                [np.empty(0)],
                [np.empty(0, dtype=np.int64)],
                [np.empty(0)],
                [np.empty(0, dtype=bool)],
            ]
        event = np.concatenate(cols[0])
        keep = event >= self._max_arrival - self.retention_ms
        dropped = int(len(keep) - keep.sum())
        if dropped:
            self.evicted += dropped
            obs.counter("serve.shard.evicted").inc(dropped)
        self._arrays = BatchArrays(
            event[keep],
            np.concatenate(cols[1])[keep],
            np.concatenate(cols[2])[keep],
            np.concatenate(cols[3])[keep],
            np.concatenate(cols[4])[keep],
        )
        # Key aggregation must span the global key space even when this
        # shard happens to hold a narrow slice of it.
        self._arrays._num_keys = self.num_keys
        self._chunks.clear()
        self._dirty = False
        obs.counter("serve.shard.rebuilds").inc()
        return self._arrays

    # -- incremental sorted-run path ---------------------------------------

    @property
    def horizon(self) -> float:
        """Retention cutoff: events older than this are (to be) evicted."""
        return self._max_arrival - self.retention_ms

    def _advance_horizon(self) -> float:
        """Expire state behind the horizon; reference-identical counting.

        Newly expired tuples are exactly those the reference's
        rebuild-time ``event >= horizon`` filter would drop now, so the
        ``evicted`` counter (and ``len``) agree across modes after
        every query.  Run eviction is frontier bumps + whole-run drops;
        grid windows fully behind the horizon release their state in
        one dict deletion (with one window of float-fuzz slack — the
        query path re-checks ``start >= horizon`` regardless).

        Memoized: the horizon only moves on ingest, so a second call at
        the same horizon with nothing ingested since has nothing to
        expire and returns at once.  Ingest and hot-key isolation clear
        the memo (a late chunk can hold tuples already behind an
        unchanged horizon); a restored shard starts without one.
        """
        horizon = self.horizon
        if horizon == self._advanced_to:
            return horizon
        newly = self._runs.advance_horizon(horizon)
        if newly:
            self.evicted += newly
            obs.counter("serve.shard.evicted").inc(newly)
            obs.gauge("serve.shard.runs").set(float(len(self._runs)))
        self._grid.drop_below(
            math.floor((horizon - self._grid.origin) / self._grid.length) - 1
        )
        if self._hot is not None:
            newly_hot = self._hot.runs.advance_horizon(horizon)
            if newly_hot:
                self.evicted += newly_hot
                obs.counter("serve.shard.evicted").inc(newly_hot)
            self._hot.grid.drop_below(
                math.floor((horizon - self._hot.grid.origin) / self._hot.grid.length)
                - 1
            )
        self._advanced_to = horizon
        return horizon

    def _ensure_grid(self) -> DeltaGrid:
        """The cold delta grid, rebuilt from the runs after disorder."""
        if self._grid_dirty:
            self._grid = DeltaGrid(self.num_keys, self.window_ms)
            cols = self._runs.merged_columns()
            if len(cols[0]):
                self._grid.delta_append(*cols)
            self._grid_dirty = False
            obs.counter("serve.shard.grid_rebuilds").inc()
        return self._grid

    def _ensure_hot_grid(self) -> DeltaGrid:
        """The hot delta grid, rebuilt from the hot runs after disorder."""
        hot = self._hot
        if hot.grid_dirty:
            hot.grid = DeltaGrid(self.num_keys, self.window_ms)
            cols = hot.runs.merged_columns()
            if len(cols[0]):
                hot.grid.delta_append(*cols)
            hot.grid_dirty = False
            obs.counter("serve.shard.grid_rebuilds").inc()
        return hot.grid

    def _scan(
        self,
        start: float,
        end: float,
        available_by: float | None,
        horizon: float,
        stack: RunStack | None = None,
    ) -> WindowAggregate:
        """Reference-exact rescan over a run stack (the slow path).

        Used for off-grid windows and for the single window straddling
        the retention horizon, where the grid's prefix state would
        include tuples the reference has already evicted.  ``stack``
        defaults to the cold runs; the hot query path passes its own.
        """
        num_keys = self.num_keys
        c_r = np.zeros(num_keys, dtype=np.int64)
        c_s = np.zeros(num_keys, dtype=np.int64)
        sum_rv = np.zeros(num_keys)
        n_r = 0
        n_s = 0
        lo_bound = max(start, horizon)
        for run in (stack if stack is not None else self._runs).runs:
            sl = run.live_slice(lo_bound, end)
            if sl.stop <= sl.start:
                continue
            k = run.key[sl]
            r = run.is_r[sl]
            p = run.payload[sl]
            if available_by is not None:
                avail = run.arrival[sl] <= available_by
                k = k[avail]
                r = r[avail]
                p = p[avail]
            if len(k) == 0:
                continue
            n_r += int(r.sum())
            n_s += int(len(k) - r.sum())
            c_r += np.bincount(k[r], minlength=num_keys)
            c_s += np.bincount(k[~r], minlength=num_keys)
            sum_rv += np.bincount(k[r], weights=p[r], minlength=num_keys)
        if n_r == 0 or n_s == 0:
            return WindowAggregate(n_r, n_s, 0.0, 0.0)
        return WindowAggregate(n_r, n_s, float(c_r @ c_s), float(sum_rv @ c_s))

    def _query_runs(
        self, start: float, end: float, available_by: float | None, horizon: float
    ) -> WindowAggregate:
        """Observed aggregate of ``[start, end)`` off the run structure.

        With hot keys isolated, the cold and hot stores are queried
        independently and their aggregates summed — exact, because the
        partitions are key-disjoint (no cross-partition matches exist,
        so ``matches`` and ``sum_r`` decompose additively).
        """
        grid = self._ensure_grid()
        if grid.covers(start, end) and start >= horizon:
            agg = grid.query(grid.window_index(start), available_by)
        else:
            obs.counter("serve.shard.scan_fallbacks").inc()
            agg = self._scan(start, end, available_by, horizon)
        if self._hot is None:
            return agg
        hot_grid = self._ensure_hot_grid()
        if hot_grid.covers(start, end) and start >= horizon:
            hot_agg = hot_grid.query(hot_grid.window_index(start), available_by)
        else:
            obs.counter("serve.shard.scan_fallbacks").inc()
            hot_agg = self._scan(start, end, available_by, horizon, self._hot.runs)
        return WindowAggregate(
            agg.n_r + hot_agg.n_r,
            agg.n_s + hot_agg.n_s,
            agg.matches + hot_agg.matches,
            agg.sum_r + hot_agg.sum_r,
        )

    # -- hot-key isolation --------------------------------------------------

    #: Serialized width of one tuple row (3 float64 + 1 int64 + 1 bool),
    #: used for migration-byte accounting.
    _ROW_BYTES = 33

    def _live_columns(self) -> tuple[np.ndarray, ...]:
        """Post-eviction live columns across cold and hot stores, event-sorted."""
        cold = self._runs.merged_columns()
        if self._hot is None:
            return cold
        hot = self._hot.runs.merged_columns()
        if not len(hot[0]):
            return cold
        if not len(cold[0]):
            return hot
        merged = tuple(np.concatenate((c, h)) for c, h in zip(cold, hot))
        order = np.argsort(merged[0], kind="stable")
        return tuple(col[order] for col in merged)

    def isolate_hot_keys(self, keys) -> int:
        """Re-partition the shard's state around a new hot-key set.

        The named keys move into a dedicated run stack + delta grid (the
        cold tail keeps its own), so one viral key's compaction and grid
        churn can no longer starve the rest of the shard; an empty
        ``keys`` dissolves the hot store and folds everything back.
        Live tuples whose ownership changes are re-split from the merged
        post-eviction columns — the integer accounting (``ingested`` /
        ``evicted`` / ``len``) is untouched and every subsequent query
        still sums to the unpartitioned answer exactly.  Incremental
        (``rebuild="runs"``) shards only.

        Returns the migrated bytes (also accumulated in
        :attr:`migration_bytes` and the ``partition.migration_bytes``
        counter).
        """
        if self.rebuild != "runs":
            raise ValueError("hot-key isolation requires rebuild='runs'")
        new = tuple(sorted({int(k) for k in keys}))
        for k in new:
            if not 0 <= k < self.num_keys:
                raise ValueError(
                    f"shard {self.shard_id}: hot key {k} outside [0, {self.num_keys})"
                )
        if new == self.hot_keys:
            return 0
        self._advance_horizon()
        cols = self._live_columns()
        lookup = np.zeros(self.num_keys, dtype=bool)
        if new:
            lookup[list(new)] = True
        key_col = cols[2]
        if len(key_col):
            new_mask = lookup[key_col]
            old_mask = (
                self._hot_lookup[key_col]
                if self._hot_lookup is not None
                else np.zeros(len(key_col), dtype=bool)
            )
            moved_bytes = int((new_mask ^ old_mask).sum()) * self._ROW_BYTES
        else:
            new_mask = np.zeros(0, dtype=bool)
            moved_bytes = 0
        self._runs = RunStack()
        self._grid = DeltaGrid(self.num_keys, self.window_ms)
        self._grid_dirty = False
        if new:
            self._hot = _HotStore(self.num_keys, self.window_ms)
            self._hot_lookup = lookup
        else:
            self._hot = None
            self._hot_lookup = None
        if len(key_col):
            cold_cols = tuple(col[~new_mask] for col in cols)
            if len(cold_cols[0]):
                self._append_run(self._runs, cold_cols, hot=False)
            if new:
                hot_cols = tuple(col[new_mask] for col in cols)
                if len(hot_cols[0]):
                    self._append_run(self._hot.runs, hot_cols, hot=True)
        self.hot_keys = new
        self._advanced_to = None
        self.migration_bytes += moved_bytes
        obs.counter("partition.migration_bytes").inc(moved_bytes)
        obs.counter("serve.shard.hot_isolations").inc()
        obs.gauge("serve.shard.runs").set(float(len(self._runs)))
        return moved_bytes

    # -- queries -----------------------------------------------------------

    def query(
        self, start: float, end: float, available_by: float, compensate_output: bool = True
    ) -> ShardAnswer:
        """Answer a window join query over the shard's observed state.

        Args:
            start, end: Window bounds in event time (grid-aligned
                windows ride the cached prefix-aggregate index; off-grid
                ranges fall back to a scan).
            available_by: Virtual time bounding which arrivals the
                answer may see (the query's availability budget,
                widening included).
            compensate_output: Inflate the observed aggregate by the
                delay profile's completeness (False answers
                observed-only — the fallback path).
        """
        self.queries += 1
        obs.counter("serve.shard.queries").inc()
        if self.rebuild == "full":
            arrays = self._rebuild()
            if len(arrays) == 0:
                return _EMPTY_ANSWER
            aggregator = arrays.aggregator(end - start)
            observed_agg = aggregator.try_at(start, end, available_by, clock="arrival")
            if observed_agg is None:
                observed_agg = arrays.aggregate(
                    start, end, available_by, clock="arrival"
                )
        else:
            horizon = self._advance_horizon()
            if len(self) == 0:
                return _EMPTY_ANSWER
            observed_agg = self._query_runs(start, end, available_by, horizon)
        observed = observed_agg.value(self.agg)
        starved = observed_agg.n_r == 0 or observed_agg.n_s == 0
        if not compensate_output or not self.profile.is_warm or starved:
            return ShardAnswer(
                observed, observed, observed_agg.n_r, observed_agg.n_s, starved, 1.0
            )
        width = end - start
        c_bar = self.profile.mean_completeness(
            [
                available_by - (start + ((i + 0.5) * width) / _AGE_BUCKETS)
                for i in range(_AGE_BUCKETS)
            ]
        )
        if not math.isfinite(c_bar):
            # A poisoned delay profile (forced estimator divergence)
            # propagates NaN through mean_completeness; max() below
            # would pass it straight into compensate().  Surface a NaN
            # answer instead so the DegradationController's non-finite
            # check trips its hard-fallback path.
            obs.counter("serve.shard.nonfinite_completeness").inc()
            return ShardAnswer(
                float("nan"),
                observed,
                observed_agg.n_r,
                observed_agg.n_s,
                starved,
                float("nan"),
            )
        c_bar = max(c_bar, _MIN_COMPLETENESS)
        estimate = compensate(
            self.agg,
            observed_agg.n_r / c_bar,
            observed_agg.n_s / c_bar,
            observed_agg.selectivity,
            observed_agg.alpha_r,
        )
        return ShardAnswer(
            estimate.value,
            observed,
            observed_agg.n_r,
            observed_agg.n_s,
            starved,
            c_bar,
        )

    # -- checkpoint / migration --------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the shard as a JSON-compatible dict (schema v2).

        The snapshot captures the post-eviction merged columns (so a
        restored shard answers queries identically), the learned delay
        profile, and the lifetime counters — ``ingested``, ``evicted``
        *and* ``queries``, so a migrated shard's accounting identities
        keep holding — everything a successor needs to take over the
        shard mid-run.  Columns are packed as base64 little-endian
        arrays; the serialized size lands in the
        ``serve.shard.ckpt_bytes`` histogram.  In incremental mode the
        columns come from a two-pointer merge of the live runs — no
        re-sort — and the run structure itself is *not* serialized: a
        restore adopts the merged columns as one run, which compaction
        then grows normally.
        """
        if self.rebuild == "full":
            arrays = self._rebuild()
            cols = (arrays.event, arrays.arrival, arrays.key, arrays.payload, arrays.is_r)
        else:
            self._advance_horizon()
            cols = self._live_columns()
        snapshot = {
            "version": _STATE_VERSION,
            "shard_id": self.shard_id,
            "num_keys": self.num_keys,
            "agg": self.agg.value,
            "window_ms": self.window_ms,
            "retention_ms": self.retention_ms,
            "rebuild": self.rebuild,
            "max_arrival": self._max_arrival,
            "ingested": self.ingested,
            "evicted": self.evicted,
            "queries": self.queries,
            "columns": {
                name: _encode_column(col, _COLUMN_DTYPES[name])
                for name, col in zip(_COLUMN_DTYPES, cols)
            },
            "profile": profile_state(self.profile),
        }
        if self.hot_keys:
            snapshot["hot_keys"] = list(self.hot_keys)
        obs.observe(
            "serve.shard.ckpt_bytes", float(len(json.dumps(snapshot)))
        )
        return snapshot

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "ShardStore":
        """Rebuild a shard from a :meth:`checkpoint` snapshot.

        Understands snapshot schema v2 (base64-packed columns, mode and
        ``queries`` counter recorded) and the legacy v1 ``.tolist()``
        format, which restores into the default incremental mode with
        ``queries`` starting at 0 (v1 never recorded it).
        """
        version = state.get("version")
        if version not in _KNOWN_STATE_VERSIONS:
            raise ValueError(f"unsupported shard snapshot version {version!r}")
        shard = cls(
            shard_id=int(state["shard_id"]),
            num_keys=int(state["num_keys"]),
            agg=AggKind(state["agg"]),
            window_ms=float(state["window_ms"]),
            retention_ms=float(state["retention_ms"]),
            rebuild=str(state.get("rebuild", "runs")),
        )
        raw = state["columns"]
        if version == 1:
            cols = (
                np.asarray(raw["event"], dtype=float),
                np.asarray(raw["arrival"], dtype=float),
                np.asarray(raw["key"], dtype=np.int64),
                np.asarray(raw["payload"], dtype=float),
                np.asarray(raw["is_r"], dtype=bool),
            )
        else:
            cols = tuple(
                _decode_column(raw[name], dtype)
                for name, dtype in _COLUMN_DTYPES.items()
            )
        if len(cols[0]):
            if shard.rebuild == "full":
                shard._chunks.append(cols)
                shard._dirty = True
            else:
                # from_chunk re-sorts defensively: snapshots written by
                # this code are already event-sorted (stable argsort is
                # then a no-op pass), but hand-built v1 dicts may not be.
                run = SortedRun.from_chunk(*cols)
                shard._runs.append(run)
                shard._grid.delta_append(
                    run.event, run.arrival, run.key, run.payload, run.is_r
                )
        restore_profile(shard.profile, state["profile"])
        shard._max_arrival = float(state["max_arrival"])
        shard.ingested = int(state["ingested"])
        shard.evicted = int(state["evicted"])
        shard.queries = int(state.get("queries", 0))
        hot_keys = state.get("hot_keys")
        if hot_keys:
            # Re-split the adopted columns around the snapshot's hot set
            # (v1 snapshots and checkpoints without isolation skip this).
            shard.isolate_hot_keys(hot_keys)
            shard.migration_bytes = 0
        return shard
