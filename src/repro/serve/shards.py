"""Key-sharded operator state for the serving layer.

Each shard owns a disjoint key range of the shared join state and keeps
it in one :class:`~repro.joins.aggregator.DeltaGrid`.  Every ingest
chunk is sorted by event time once and split into window segments;
each window holds its segments (the shard's only copy of its tuples)
next to prefix aggregates over them, folded on the first query that
reads the window: tenants read only closed windows, so a window absorbs
many chunks per fold.  A query is a binary search into the window's
prefix state, or an exact scan of the overlapping windows' segments for
off-grid windows and the one window straddling the retention horizon.
A chunk that arrives out of clock order makes only the windows it
touches refold.  Eviction counts the tuples behind the horizon window
by window, without folding, and drops whole expired windows, so the
shard never re-sorts or re-aggregates data it has already absorbed.
Eviction is memoized on the horizon: it only moves on ingest, so a
query with nothing ingested since the last eviction skips the sweep.
Shards do no skew detection or hot-key isolation; that is the join
operators' job (:mod:`repro.joins.partitioned`).

The full-rebuild reference,
:class:`repro.bench.serve_bench.FullRebuildShard`, answers the same
queries by re-sorting and re-aggregating all retained state.
``tests/serve/test_shards_incremental.py`` drives both in lockstep
across randomized ingest/query/evict/checkpoint/restore interleavings,
out-of-order chunks included: integer accounting (``n_r``/``n_s``/match
counts, hence every COUNT answer, ``evicted`` and ``len``) agrees bit
for bit, and float payload sums agree to summation-order rounding (~1
ulp per addend), the same caveat the batch aggregator carries.

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
``serve.shard.queries``, ``serve.shard.delta_appends``,
``serve.shard.scan_fallbacks``.  Histogram: ``serve.shard.ckpt_bytes``.
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
from repro.joins.aggregator import DeltaGrid, grid_slot
from repro.joins.arrays import AggKind, WindowAggregate, check_aligned

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
    learned profile next to the base64-packed columns.  ``storage`` is
    the writer's tag in the ``"rebuild"`` field: ``"runs"`` for
    :class:`ShardStore` (the name of its former sorted-run storage,
    kept so its snapshot bytes stay as they were) and ``"full"`` for the
    full-rebuild reference; no reader interprets it.  The serialized
    size lands in the ``serve.shard.ckpt_bytes`` histogram.
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
        grid: The delta grid holding the shard's tuples, window by window.

    Args:
        shard_id: The shard's index (labels trace events).
        num_keys: Global key-space size (shards see a subset but the
            bincount aggregation needs the global width); ingested keys
            must lie in ``[0, num_keys)``.
        agg: Aggregation answered by :meth:`query`.
        window_ms: Window length of the query grid.
        retention_ms: Tuples whose event time falls further than this
            behind the newest arrival are dropped (window-granular).
            Must comfortably exceed the window length plus the widest
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
        self.grid = DeltaGrid(num_keys, window_ms)
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

        The chunk is sorted by event time (stable, its only sort) and
        added to the grid.  Delays are learned as ``max(arrival - event,
        0)`` — the profile rejects negative delays outright, and a tuple
        that arrived early has simply arrived.  Columns of unequal
        length, keys outside ``[0, num_keys)`` and non-finite event or
        arrival times are rejected before any state is touched.
        """
        if len(event) == 0:
            check_aligned(event, arrival, key, payload, is_r)
            return
        cols, delays = check_chunk(self, event, arrival, key, payload, is_r)
        event, arrival, key, payload, is_r = cols
        order = np.argsort(event, kind="stable")
        # Columns validated by check_chunk on the way in.
        self.grid._delta_append(
            event[order], arrival[order], key[order], payload[order], is_r[order]
        )
        obs.counter("serve.shard.delta_appends").inc()
        self._advanced_to = None
        self.profile._absorb(delays, float(delays.max()))
        self._max_arrival = max(self._max_arrival, float(arrival.max()))
        self.ingested += len(delays)
        obs.counter("serve.shard.ingested").inc(len(delays))

    def _advance_horizon(self) -> float:
        """Expire state behind the horizon; reference-identical counting.

        Newly expired tuples are exactly those the full-rebuild
        reference's rebuild-time ``event >= horizon`` filter would drop
        now, so the ``evicted`` counter (and ``len``) agree with it
        after every query.  The grid counts them window by window and
        releases windows wholly behind the horizon
        (:meth:`~repro.joins.aggregator.DeltaGrid.evict`).

        Memoized: the horizon only moves on ingest, so a second call at
        the same horizon with nothing ingested since has nothing to
        expire and returns at once.  Ingest clears the memo (a late
        chunk can hold tuples already behind an unchanged horizon); a
        restored shard starts without one.
        """
        horizon = self.horizon
        if horizon == self._advanced_to:
            return horizon
        newly = self.grid.evict(horizon)
        if newly:
            self.evicted += newly
            obs.counter("serve.shard.evicted").inc(newly)
        self._advanced_to = horizon
        return horizon

    # -- queries -----------------------------------------------------------

    def query(
        self, start: float, end: float, available_by: float, compensate_output: bool = True
    ) -> ShardAnswer:
        """Answer a window join query over the shard's observed state.

        The grid's prefix state answers a grid-aligned window wholly
        inside retention.  Off-grid windows and the one window
        straddling the horizon, whose prefix state still holds evicted
        tuples, are scanned from the grid's segments instead.

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
        idx = grid_slot(grid.origin, grid.length, start, end)
        if idx is not None and start >= horizon:
            observed = grid.query(idx, available_by)
        else:
            obs.counter("serve.shard.scan_fallbacks").inc()
            observed = grid.scan(max(start, horizon), end, available_by)
        return pecj_lite_answer(
            self.agg, self.profile, observed, start, end, available_by, compensate_output
        )

    # -- checkpoint / migration --------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """Snapshot the shard as a JSON-compatible dict (schema v2).

        The snapshot captures the post-eviction columns, event-sorted
        with ties in ingest order (so a restored shard answers queries
        identically), the learned delay profile and the lifetime
        counters — ``ingested``, ``evicted`` *and* ``queries``, so a
        migrated shard's accounting identities keep holding: everything
        a successor needs to take over the shard mid-run.  Reading the
        columns folds nothing.
        """
        horizon = self._advance_horizon()
        return snapshot_state(self, self.grid.columns(horizon), "runs")

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "ShardStore":
        """Rebuild a shard from a schema-v2 :meth:`checkpoint` snapshot.

        Snapshots written by the full-rebuild reference restore too.
        """
        shard, cols = restore_state(cls, state)
        if len(cols[0]):
            # Snapshots written by this code are already event-sorted (a
            # stable argsort is then a no-op pass), but hand-built ones
            # may not be.
            order = np.argsort(cols[0], kind="stable")
            shard.grid.delta_append(*(col[order] for col in cols))
        return shard
