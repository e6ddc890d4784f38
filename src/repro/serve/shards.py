"""Key-sharded operator state for the serving layer.

Each shard owns a disjoint key range of the shared join state and keeps
it in one storage path.  Every ingest chunk becomes an event-sorted
:class:`~repro.serve.runs.SortedRun` (one O(chunk log chunk) sort at
ingest) stacked in a size-tiered :class:`~repro.serve.runs.RunStack`
with amortized two-pointer compaction, while a mergeable
:class:`~repro.joins.aggregator.DeltaGrid` buffers each chunk's window
segments (validated, as views of the run) and folds a window's pending
segments into its prefix aggregates on the first query that reads it:
tenants read only closed windows, so a window absorbs many chunks per
fold.  A run stack and its grid form one :class:`_RunStore`.  A query
is a binary search into the window's prefix state, or an exact rescan
of the runs for off-grid windows and the one window straddling the
retention horizon.
Retention eviction advances per-run frontiers and drops whole expired
runs, so the shard never re-sorts or re-aggregates data it has already
absorbed.  Eviction is memoized on the horizon: it only moves on
ingest, so a query with nothing ingested since the last eviction skips
the sweep.

A shard holds one store for its cold tail.  Once
:meth:`ShardStore.isolate_hot_keys` promotes keys (PanJoin-style), a
second store holds the hot set, so a viral key's compaction and grid
churn stop interleaving with, and starving, the cold tail's.  Queries
sum the key-disjoint stores' aggregates, which is exact for the integer
accounting and for COUNT answers.

The full-rebuild reference,
:class:`repro.bench.serve_bench.FullRebuildShard`, answers the same
queries by re-sorting and re-aggregating all retained state.
``tests/serve/test_shards_incremental.py`` drives both in lockstep
across randomized ingest/query/evict/checkpoint/migrate interleavings:
integer accounting (``n_r``/``n_s``/match counts, hence every COUNT
answer, ``evicted`` and ``len``) agrees bit for bit, and float payload
sums agree to summation-order rounding (~1 ulp per addend), the same
caveat the batch aggregator carries.

Queries are answered with *PECJ-lite* compensation
(:func:`pecj_lite_answer`): the observed window aggregate is inflated
by the profile's completeness CDF — the paper's reverse-linear
``1/c(a)`` distortion (Eq. 6) applied per sub-interval age — using the
closed forms of :func:`repro.core.compensation.compensate` with the
observed selectivity and payload mean as plug-in posteriors.  It is
deliberately the cheap instantiation: a serving layer answering
thousands of tenant queries per virtual second cannot afford a full
estimator stack per shard, and the profile is the part that transfers
across queries.

Shards checkpoint to plain JSON-compatible dicts (snapshot schema v2,
reusing :func:`repro.core.persistence.profile_state`) with columns
packed as base64 little-endian arrays, which is what tenant migration
in :mod:`repro.serve.service` round-trips.

Counters: ``serve.shard.ingested``, ``serve.shard.evicted``,
``serve.shard.queries``, ``serve.shard.compactions``,
``serve.shard.delta_appends``, ``serve.shard.grid_rebuilds``,
``serve.shard.scan_fallbacks``, ``serve.shard.hot_isolations``,
``partition.migration_bytes``.  Gauge: ``serve.shard.runs`` (the cold
store's run count).  Histogram: ``serve.shard.ckpt_bytes``.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import obs
from repro.core.compensation import compensated_value
from repro.core.delay_profile import DelayProfile
from repro.core.persistence import profile_state, restore_profile
from repro.joins.aggregator import DeltaAppendError, DeltaGrid
from repro.joins.arrays import AggKind, WindowAggregate
from repro.serve.runs import RunStack, SortedRun, merge_runs

__all__ = ["ShardAnswer", "ShardStore"]

_STATE_VERSION = 2

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


@functools.lru_cache(maxsize=8)
def _bucket_offsets(width: float) -> tuple[float, ...]:
    """Midpoints of a ``width`` window's age buckets, as offsets from
    its start (memoized: every tenant queries the same width)."""
    return tuple(((i + 0.5) * width) / _AGE_BUCKETS for i in range(_AGE_BUCKETS))


#: Floor on the mean completeness used to inflate observed counts; below
#: this the profile is effectively saying "almost nothing has arrived"
#: and ``1/c`` amplification becomes noise-dominated garbage.
_MIN_COMPLETENESS = 0.05


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


#: The answer of a shard holding no live tuples.
EMPTY_ANSWER = ShardAnswer(0.0, 0.0, 0, 0, True, 1.0)


# -- steps shared with the full-rebuild reference ----------------------------


def check_chunk(shard, event, arrival, key, payload, is_r) -> tuple[np.ndarray, ...]:
    """Coerce one non-empty ingest chunk to typed columns, or refuse it.

    Keys outside ``[0, shard.num_keys)`` and non-finite event or arrival
    times raise ``ValueError``, before the caller touches any state.
    """
    shard_id, num_keys = shard.shard_id, shard.num_keys
    event = np.asarray(event, dtype=float)
    arrival = np.asarray(arrival, dtype=float)
    key = np.asarray(key, dtype=np.int64)
    payload = np.asarray(payload, dtype=float)
    is_r = np.asarray(is_r, dtype=bool)
    if int(key.min()) < 0 or int(key.max()) >= num_keys:
        raise ValueError(
            f"shard {shard_id}: keys must lie in [0, {num_keys}), "
            f"got [{int(key.min())}, {int(key.max())}]"
        )
    if not (np.isfinite(event).all() and np.isfinite(arrival).all()):
        raise ValueError(f"shard {shard_id}: event and arrival times must be finite")
    return event, arrival, key, payload, is_r


def pecj_lite_answer(
    agg: AggKind,
    profile: DelayProfile,
    observed_agg: WindowAggregate,
    start: float,
    end: float,
    available_by: float,
    compensate_output: bool,
) -> ShardAnswer:
    """Compensate one observed window aggregate into a shard answer.

    The observed counts are inflated by the profile's mean completeness
    ``c̄`` over the window's age buckets (floored at
    ``_MIN_COMPLETENESS``); a cold profile, a starved side or
    ``compensate_output=False`` answers observed-only.
    """
    observed = observed_agg.value(agg)
    n_r, n_s = observed_agg.n_r, observed_agg.n_s
    starved = n_r == 0 or n_s == 0
    if not compensate_output or not profile.is_warm or starved:
        return ShardAnswer(observed, observed, n_r, n_s, starved, 1.0)
    c_bar = profile.mean_completeness(
        [available_by - (start + offset) for offset in _bucket_offsets(end - start)]
    )
    if not math.isfinite(c_bar):
        # A poisoned delay profile (forced estimator divergence)
        # propagates NaN through mean_completeness; max() below would
        # pass it straight into the compensation.  Surface a NaN answer
        # instead so the DegradationController's non-finite check trips
        # its hard-fallback path.
        obs.counter("serve.shard.nonfinite_completeness").inc()
        return ShardAnswer(float("nan"), observed, n_r, n_s, starved, float("nan"))
    c_bar = max(c_bar, _MIN_COMPLETENESS)
    value = compensated_value(
        agg, n_r / c_bar, n_s / c_bar, observed_agg.selectivity, observed_agg.alpha_r
    )
    return ShardAnswer(value, observed, n_r, n_s, starved, c_bar)


def snapshot_state(
    shard, cols: tuple[np.ndarray, ...], storage: str, hot_keys: tuple[int, ...] = ()
) -> dict[str, Any]:
    """Schema-v2 snapshot of a shard holding the event-sorted ``cols``.

    Records the shard's geometry, newest arrival, lifetime counters and
    learned profile next to the base64-packed columns; ``storage`` names
    the writer (``"runs"`` or ``"full"``), and a non-empty ``hot_keys``
    is recorded last.  The serialized size lands in the
    ``serve.shard.ckpt_bytes`` histogram.
    """
    snapshot = {
        "version": _STATE_VERSION,
        "shard_id": shard.shard_id,
        "num_keys": shard.num_keys,
        "agg": shard.agg.value,
        "window_ms": shard.window_ms,
        "retention_ms": shard.retention_ms,
        "rebuild": storage,
        "max_arrival": shard._max_arrival,
        "ingested": shard.ingested,
        "evicted": shard.evicted,
        "queries": shard.queries,
        "columns": {
            name: base64.b64encode(
                np.ascontiguousarray(col, dtype=dtype).tobytes()
            ).decode("ascii")
            for (name, dtype), col in zip(_COLUMN_DTYPES.items(), cols)
        },
        "profile": profile_state(shard.profile),
    }
    if hot_keys:
        snapshot["hot_keys"] = list(hot_keys)
    obs.observe("serve.shard.ckpt_bytes", float(len(json.dumps(snapshot))))
    return snapshot


def restore_state(cls, state: dict[str, Any]) -> tuple[Any, tuple[np.ndarray, ...]]:
    """A ``cls`` shard carrying a v2 snapshot's counters and profile,
    plus the snapshot's decoded columns (for the caller to adopt).

    Any other snapshot version raises ``ValueError``.
    """
    version = state.get("version")
    if version != _STATE_VERSION:
        raise ValueError(f"unsupported shard snapshot version {version!r}")
    shard = cls(
        shard_id=int(state["shard_id"]),
        num_keys=int(state["num_keys"]),
        agg=AggKind(state["agg"]),
        window_ms=float(state["window_ms"]),
        retention_ms=float(state["retention_ms"]),
    )
    restore_profile(shard.profile, state["profile"])
    shard._max_arrival = float(state["max_arrival"])
    shard.ingested = int(state["ingested"])
    shard.evicted = int(state["evicted"])
    shard.queries = int(state["queries"])
    cols = tuple(
        np.frombuffer(base64.b64decode(state["columns"][name]), dtype=dtype).copy()
        for name, dtype in _COLUMN_DTYPES.items()
    )
    return shard, cols


# -- the storage path ---------------------------------------------------------


class _RunStore:
    """One sorted-run stack and the delta grid over the same tuples.

    ``dirty`` marks a grid that fell behind its runs (an out-of-order
    chunk); the next query rebuilds it from the runs.
    """

    __slots__ = ("runs", "grid", "dirty")

    def __init__(self, num_keys: int, window_ms: float):
        self.runs = RunStack()
        self.grid = DeltaGrid(num_keys, window_ms)
        self.dirty = False

    def append(self, cols: tuple[np.ndarray, ...]) -> None:
        """Stack one chunk as a run and buffer it in the grid."""
        run = SortedRun.from_chunk(*cols)
        merges = self.runs.append(run)
        if merges:
            obs.counter("serve.shard.compactions").inc(merges)
        if not self.dirty:
            try:
                self.grid.delta_append(
                    run.event, run.arrival, run.key, run.payload, run.is_r
                )
                obs.counter("serve.shard.delta_appends").inc()
            except DeltaAppendError:
                # Out-of-order arrivals (never the service's tick
                # path): rebuild the grid lazily from the runs.
                self.dirty = True

    def advance(self, horizon: float) -> int:
        """Expire state behind ``horizon``; returns newly expired tuples.

        Run eviction is frontier bumps plus whole-run drops.  Grid
        windows fully behind the horizon release their state in one
        dict deletion, with one window of float-fuzz slack: the query
        path re-checks ``start >= horizon`` regardless.
        """
        newly = self.runs.advance_horizon(horizon)
        grid = self.grid
        grid.drop_below(math.floor((horizon - grid.origin) / grid.length) - 1)
        return newly

    def query(
        self, start: float, end: float, available_by: float | None, horizon: float
    ) -> WindowAggregate:
        """Observed aggregate of ``[start, end)``: a grid hit or a rescan.

        The grid answers a grid-aligned window wholly inside retention.
        Off-grid windows and the one window straddling the horizon,
        where the grid's prefix state still holds evicted tuples, fall
        back to an exact rescan of the live runs.
        """
        grid = self.grid
        if self.dirty:
            grid = self.grid = DeltaGrid(grid.num_keys, grid.length)
            cols = merge_runs(self.runs.runs)
            if len(cols[0]):
                grid.delta_append(*cols)
            self.dirty = False
            obs.counter("serve.shard.grid_rebuilds").inc()
        if grid.covers(start, end) and start >= horizon:
            return grid.query(grid.window_index(start), available_by)
        obs.counter("serve.shard.scan_fallbacks").inc()
        num_keys = grid.num_keys
        c_r = np.zeros(num_keys, dtype=np.int64)
        c_s = np.zeros(num_keys, dtype=np.int64)
        sum_rv = np.zeros(num_keys)
        n_r = 0
        n_s = 0
        lo_bound = max(start, horizon)
        for run in self.runs.runs:
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
            behind the newest arrival are dropped (run-granular).  Must
            comfortably exceed the window length plus the widest
            availability budget or queries would silently lose history.
        profile: Delay profile to adopt (default: a fresh one).
    """

    #: Serialized width of one tuple row (3 float64 + 1 int64 + 1 bool),
    #: used for migration-byte accounting.
    _ROW_BYTES = 33

    def __init__(
        self,
        shard_id: int,
        num_keys: int,
        agg: AggKind,
        window_ms: float,
        retention_ms: float,
        profile: DelayProfile | None = None,
    ):
        if retention_ms < 2.0 * window_ms:
            raise ValueError("retention_ms must cover at least two windows")
        self.shard_id = shard_id
        self.num_keys = num_keys
        self.agg = agg
        self.window_ms = window_ms
        self.retention_ms = retention_ms
        self.profile = profile or DelayProfile()
        # The cold store, followed by the hot-key store once
        # isolate_hot_keys promotes a non-empty key set.
        self._stores: tuple[_RunStore, ...] = (_RunStore(num_keys, window_ms),)
        self.hot_keys: tuple[int, ...] = ()
        self._hot_lookup: np.ndarray | None = None
        self.migration_bytes = 0
        self._max_arrival = 0.0
        # Horizon the stores were last advanced to, or None when tuples
        # have been added since (see _advance_horizon).
        self._advanced_to: float | None = None
        self.ingested = 0
        self.evicted = 0
        self.queries = 0

    def __len__(self) -> int:
        """Live tuples (lifetime ingested minus lifetime evicted), O(1)."""
        return self.ingested - self.evicted

    @property
    def horizon(self) -> float:
        """Retention cutoff: events older than this are (to be) evicted."""
        return self._max_arrival - self.retention_ms

    def _set_runs_gauge(self) -> None:
        obs.gauge("serve.shard.runs").set(float(len(self._stores[0].runs)))

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
        cols = check_chunk(self, event, arrival, key, payload, is_r)
        event, arrival, key = cols[0], cols[1], cols[2]
        hot_mask = None
        if self._hot_lookup is not None:
            hot_mask = self._hot_lookup[key]
            if not hot_mask.any():
                hot_mask = None
        self._distribute(cols, hot_mask)
        self._set_runs_gauge()
        self._advanced_to = None
        self.profile.update(np.maximum(arrival - event, 0.0))
        self._max_arrival = max(self._max_arrival, float(arrival.max()))
        self.ingested += len(event)
        obs.counter("serve.shard.ingested").inc(len(event))

    def _distribute(
        self, cols: tuple[np.ndarray, ...], hot_mask: np.ndarray | None
    ) -> None:
        """Append ``cols`` to the stores: ``hot_mask`` rows to the hot
        store, the rest (every row when it is None) to the cold one."""
        if hot_mask is None:
            parts = (cols,)
        else:
            cold_mask = ~hot_mask
            parts = (
                tuple(col[cold_mask] for col in cols),
                tuple(col[hot_mask] for col in cols),
            )
        for store, part in zip(self._stores, parts):
            if len(part[0]):
                store.append(part)

    def _advance_horizon(self) -> float:
        """Expire state behind the horizon; reference-identical counting.

        Newly expired tuples are exactly those the full-rebuild
        reference's rebuild-time ``event >= horizon`` filter would drop
        now, so the ``evicted`` counter (and ``len``) agree with it
        after every query.

        Memoized: the horizon only moves on ingest, so a second call at
        the same horizon with nothing ingested since has nothing to
        expire and returns at once.  Ingest and hot-key isolation clear
        the memo (a late chunk can hold tuples already behind an
        unchanged horizon); a restored shard starts without one.
        """
        horizon = self.horizon
        if horizon == self._advanced_to:
            return horizon
        newly = sum(store.advance(horizon) for store in self._stores)
        if newly:
            self.evicted += newly
            obs.counter("serve.shard.evicted").inc(newly)
            self._set_runs_gauge()
        self._advanced_to = horizon
        return horizon

    # -- hot-key isolation --------------------------------------------------

    def isolate_hot_keys(self, keys) -> int:
        """Re-partition the shard's state around a new hot-key set.

        The named keys move into their own store (the cold tail keeps
        its own), so one viral key's compaction and grid churn can no
        longer starve the rest of the shard; an empty ``keys`` dissolves
        the hot store and folds everything back.  Live tuples are
        re-split from the merged post-eviction columns — the integer
        accounting (``ingested`` / ``evicted`` / ``len``) is untouched
        and every subsequent query still sums to the unpartitioned
        answer exactly.

        Returns the migrated bytes (also accumulated in
        :attr:`migration_bytes` and the ``partition.migration_bytes``
        counter).
        """
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
        key_col = cols[2]
        lookup = np.zeros(self.num_keys, dtype=bool)
        lookup[list(new)] = True
        new_mask = lookup[key_col]
        old_mask = (
            self._hot_lookup[key_col]
            if self._hot_lookup is not None
            else np.zeros(len(key_col), dtype=bool)
        )
        moved_bytes = int((new_mask ^ old_mask).sum()) * self._ROW_BYTES
        num_stores = 2 if new else 1
        self._stores = tuple(
            _RunStore(self.num_keys, self.window_ms) for _ in range(num_stores)
        )
        self._hot_lookup = lookup if new else None
        self._distribute(cols, new_mask if new else None)
        self.hot_keys = new
        self._advanced_to = None
        self.migration_bytes += moved_bytes
        obs.counter("partition.migration_bytes").inc(moved_bytes)
        obs.counter("serve.shard.hot_isolations").inc()
        self._set_runs_gauge()
        return moved_bytes

    def _live_columns(self) -> tuple[np.ndarray, ...]:
        """Post-eviction live columns across all stores, event-sorted.

        One merge over every store's runs, cold before hot, so equal
        event times keep cold-then-hot order.
        """
        return merge_runs(run for store in self._stores for run in store.runs.runs)

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
        horizon = self._advance_horizon()
        if len(self) == 0:
            return EMPTY_ANSWER
        # Stores are key-disjoint: no pair matches across them, so
        # matches and sum_r decompose additively.
        stores = self._stores
        observed = stores[0].query(start, end, available_by, horizon)
        for store in stores[1:]:
            part = store.query(start, end, available_by, horizon)
            observed = WindowAggregate(
                observed.n_r + part.n_r,
                observed.n_s + part.n_s,
                observed.matches + part.matches,
                observed.sum_r + part.sum_r,
            )
        return pecj_lite_answer(
            self.agg, self.profile, observed, start, end, available_by, compensate_output
        )

    # -- checkpoint / migration --------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the shard as a JSON-compatible dict (schema v2).

        The snapshot captures the post-eviction merged columns (so a
        restored shard answers queries identically), the learned delay
        profile, the lifetime counters — ``ingested``, ``evicted``
        *and* ``queries``, so a migrated shard's accounting identities
        keep holding — and the hot-key set, if any: everything a
        successor needs to take over the shard mid-run.  The columns
        come from a two-pointer merge of the live runs, with no
        re-sort, and the run structure itself is *not* serialized: a
        restore adopts the merged columns as one run, which compaction
        then grows normally.
        """
        self._advance_horizon()
        return snapshot_state(self, self._live_columns(), "runs", self.hot_keys)

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "ShardStore":
        """Rebuild a shard from a schema-v2 :meth:`checkpoint` snapshot.

        Snapshots written by the full-rebuild reference restore too.
        """
        shard, cols = restore_state(cls, state)
        if len(cols[0]):
            # from_chunk re-sorts defensively: snapshots written by this
            # code are already event-sorted (stable argsort is then a
            # no-op pass), but hand-built ones may not be.
            run = SortedRun.from_chunk(*cols)
            cold = shard._stores[0]
            cold.runs.append(run)
            cold.grid.delta_append(
                run.event, run.arrival, run.key, run.payload, run.is_r
            )
        hot_keys = state.get("hot_keys")
        if hot_keys:
            # Re-split the adopted columns around the snapshot's hot set.
            shard.isolate_hot_keys(hot_keys)
            shard.migration_bytes = 0
        return shard
