"""Key-sharded operator state for the serving layer.

Each shard owns a disjoint key range of the shared join state and keeps
it in one store.  Every ingest chunk becomes an event-sorted
:class:`~repro.serve.runs.SortedRun` (one O(chunk log chunk) sort at
ingest) stacked in a size-tiered :class:`~repro.serve.runs.RunStack`
with amortized two-pointer compaction, while a mergeable
:class:`~repro.joins.aggregator.DeltaGrid` buffers each chunk's window
segments (validated, as views of the run) and folds a window's pending
segments into its prefix aggregates on the first query that reads it:
tenants read only closed windows, so a window absorbs many chunks per
fold.  A query is a binary search into the window's prefix state, or an
exact rescan of the runs for off-grid windows and the one window
straddling the retention horizon.
Retention eviction advances per-run frontiers and drops whole expired
runs, so the shard never re-sorts or re-aggregates data it has already
absorbed.  Eviction is memoized on the horizon: it only moves on
ingest, so a query with nothing ingested since the last eviction skips
the sweep.  Shards do no skew detection or hot-key isolation; that is
the join operators' job (:mod:`repro.joins.partitioned`).

The full-rebuild reference,
:class:`repro.bench.serve_bench.FullRebuildShard`, answers the same
queries by re-sorting and re-aggregating all retained state.
``tests/serve/test_shards_incremental.py`` drives both in lockstep
across randomized ingest/query/evict/checkpoint/restore interleavings:
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
``serve.shard.scan_fallbacks``.  Gauge: ``serve.shard.runs``.
Histogram: ``serve.shard.ckpt_bytes``.
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
from repro.joins.arrays import AggKind, WindowAggregate, check_aligned
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


def check_chunk(
    shard, event, arrival, key, payload, is_r
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Coerce one non-empty ingest chunk to typed columns, or refuse it.

    Returns the columns and the delays ``max(arrival - event, 0)`` the
    profile learns.  Columns of unequal length, keys outside
    ``[0, shard.num_keys)`` and non-finite event or arrival times (or a
    gap between them that overflows) raise ``ValueError``, before the
    caller touches any state.  This is the chunk's only validation pass:
    the shard hands the columns to the delta grid and the delays to the
    profile through their unchecked bodies.
    """
    shard_id, num_keys = shard.shard_id, shard.num_keys
    event = np.asarray(event, dtype=float)
    arrival = np.asarray(arrival, dtype=float)
    key = np.asarray(key, dtype=np.int64)
    payload = np.asarray(payload, dtype=float)
    is_r = np.asarray(is_r, dtype=bool)
    check_aligned(event, arrival, key, payload, is_r)
    if int(key.min()) < 0 or int(key.max()) >= num_keys:
        raise ValueError(
            f"shard {shard_id}: keys must lie in [0, {num_keys}), "
            f"got [{int(key.min())}, {int(key.max())}]"
        )
    # A difference is finite only if both operands are, so one pass covers
    # the times and the delays (numpy warns on the overflow or inf - inf of
    # a chunk refused here; an errstate guard would tax every chunk).
    delays = arrival - event
    if not np.isfinite(delays).all():
        raise ValueError(
            f"shard {shard_id}: event and arrival times (and their gaps) must be finite"
        )
    return (event, arrival, key, payload, is_r), np.maximum(delays, 0.0, out=delays)


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


def snapshot_state(shard, cols: tuple[np.ndarray, ...], storage: str) -> dict[str, Any]:
    """Schema-v2 snapshot of a shard holding the event-sorted ``cols``.

    Records the shard's geometry, newest arrival, lifetime counters and
    learned profile next to the base64-packed columns; ``storage`` names
    the writer (``"runs"`` or ``"full"``).  The serialized size lands in
    the ``serve.shard.ckpt_bytes`` histogram.
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
    obs.observe("serve.shard.ckpt_bytes", float(len(json.dumps(snapshot))))
    return snapshot


def restore_state(cls, state: dict[str, Any]) -> tuple[Any, tuple[np.ndarray, ...]]:
    """A ``cls`` shard carrying a v2 snapshot's counters and profile,
    plus the snapshot's decoded columns (for the caller to adopt).

    Any other snapshot version raises ``ValueError``.  Keys the reader
    does not know are ignored, such as the ``hot_keys`` list older v2
    snapshots may carry (hot-key isolation never changed an answer).
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


class ShardStore:
    """Operator state of one key shard.

    Attributes:
        runs: The sorted-run stack holding the shard's tuples.
        grid: The delta grid over the same tuples.  An out-of-order
            chunk leaves it behind the runs; the next query rebuilds it
            from them.

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
    """

    def __init__(
        self,
        shard_id: int,
        num_keys: int,
        agg: AggKind,
        window_ms: float,
        retention_ms: float,
    ):
        if retention_ms < 2.0 * window_ms:
            raise ValueError("retention_ms must cover at least two windows")
        self.shard_id = shard_id
        self.num_keys = num_keys
        self.agg = agg
        self.window_ms = window_ms
        self.retention_ms = retention_ms
        self.profile = DelayProfile()
        self.runs = RunStack()
        self.grid = DeltaGrid(num_keys, window_ms)
        self._grid_dirty = False
        self._max_arrival = 0.0
        # Horizon the state was last advanced to, or None when tuples
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

        The chunk is stacked as one run and buffered in the grid.
        Delays are learned as ``max(arrival - event, 0)`` — the profile
        rejects negative delays outright, and a tuple that arrived
        early has simply arrived.  Columns of unequal length, keys
        outside ``[0, num_keys)`` and non-finite event or arrival times
        are rejected before any state is touched.
        """
        if len(event) == 0:
            check_aligned(event, arrival, key, payload, is_r)
            return
        cols, delays = check_chunk(self, event, arrival, key, payload, is_r)
        run = SortedRun.from_chunk(*cols)
        merges = self.runs.append(run)
        if merges:
            obs.counter("serve.shard.compactions").inc(merges)
        if not self._grid_dirty:
            try:
                # Columns validated by check_chunk on the way in.
                self.grid._delta_append(
                    run.event, run.arrival, run.key, run.payload, run.is_r
                )
                obs.counter("serve.shard.delta_appends").inc()
            except DeltaAppendError:
                # Out-of-order arrivals (never the service's tick
                # path): rebuild the grid lazily from the runs.
                self._grid_dirty = True
        obs.gauge("serve.shard.runs").set(float(len(self.runs)))
        self._advanced_to = None
        self.profile._absorb(delays, float(delays.max()))
        self._max_arrival = max(self._max_arrival, float(cols[1].max()))
        self.ingested += len(delays)
        obs.counter("serve.shard.ingested").inc(len(delays))

    def _advance_horizon(self) -> float:
        """Expire state behind the horizon; reference-identical counting.

        Newly expired tuples are exactly those the full-rebuild
        reference's rebuild-time ``event >= horizon`` filter would drop
        now, so the ``evicted`` counter (and ``len``) agree with it
        after every query.  Run eviction is frontier bumps plus
        whole-run drops.  Grid windows fully behind the horizon release
        their state in one dict deletion, with one window of float-fuzz
        slack: the query path re-checks ``start >= horizon`` regardless.

        Memoized: the horizon only moves on ingest, so a second call at
        the same horizon with nothing ingested since has nothing to
        expire and returns at once.  Ingest clears the memo (a late
        chunk can hold tuples already behind an unchanged horizon); a
        restored shard starts without one.
        """
        horizon = self.horizon
        if horizon == self._advanced_to:
            return horizon
        newly = self.runs.advance_horizon(horizon)
        grid = self.grid
        grid.drop_below(math.floor((horizon - grid.origin) / grid.length) - 1)
        if newly:
            self.evicted += newly
            obs.counter("serve.shard.evicted").inc(newly)
            obs.gauge("serve.shard.runs").set(float(len(self.runs)))
        self._advanced_to = horizon
        return horizon

    # -- queries -----------------------------------------------------------

    def query(
        self, start: float, end: float, available_by: float, compensate_output: bool = True
    ) -> ShardAnswer:
        """Answer a window join query over the shard's observed state.

        The grid answers a grid-aligned window wholly inside retention.
        Off-grid windows and the one window straddling the horizon,
        where the grid's prefix state still holds evicted tuples, fall
        back to an exact rescan of the live runs.

        Args:
            start, end: Window bounds in event time.
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
        grid = self.grid
        if self._grid_dirty:
            grid = self.grid = DeltaGrid(self.num_keys, self.window_ms)
            cols = merge_runs(self.runs.runs)
            if len(cols[0]):
                grid.delta_append(*cols)
            self._grid_dirty = False
            obs.counter("serve.shard.grid_rebuilds").inc()
        if grid.covers(start, end) and start >= horizon:
            observed = grid.query(grid.window_index(start), available_by)
        else:
            observed = self._scan(start, end, available_by, horizon)
        return pecj_lite_answer(
            self.agg, self.profile, observed, start, end, available_by, compensate_output
        )

    def _scan(
        self, start: float, end: float, available_by: float | None, horizon: float
    ) -> WindowAggregate:
        """Observed aggregate of ``[start, end)`` from a rescan of the
        live runs (the off-grid and horizon-straddling fallback)."""
        obs.counter("serve.shard.scan_fallbacks").inc()
        num_keys = self.num_keys
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

    # -- checkpoint / migration --------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the shard as a JSON-compatible dict (schema v2).

        The snapshot captures the post-eviction merged columns (so a
        restored shard answers queries identically), the learned delay
        profile and the lifetime counters — ``ingested``, ``evicted``
        *and* ``queries``, so a migrated shard's accounting identities
        keep holding: everything a successor needs to take over the
        shard mid-run.  The columns come from a two-pointer merge of the
        live runs, with no re-sort, and the run structure itself is
        *not* serialized: a restore adopts the merged columns as one
        run, which compaction then grows normally.
        """
        self._advance_horizon()
        return snapshot_state(self, merge_runs(self.runs.runs), "runs")

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
            shard.runs.append(run)
            shard.grid.delta_append(
                run.event, run.arrival, run.key, run.payload, run.is_r
            )
        return shard
