"""Columnar view of a stream batch plus windowed join aggregation.

Join operators need, per window, the aggregate of ``R join_W S`` over some
*available subset* of tuples (those the operator has seen and processed by
its emission cutoff).  Doing this tuple-object-at-a-time is too slow for
the paper's event rates (100K-1600K tuples/s), so experiments convert a
batch once into numpy columns and evaluate each window with vectorised
key-count joins:

* ``matches = sum_k cR_k * cS_k`` — the JOIN-COUNT output;
* ``sum_r   = sum_k sumRv_k * cS_k`` — the JOIN-SUM(R.v) output (every
  joined pair contributes its R payload).

Both follow directly from the intra-window equi-join definition in
Section 2.1/3.2 of the paper.

:meth:`BatchArrays.aggregate` is the *reference* implementation: it
rebuilds the per-key count tables from scratch for every query.  The hot
path uses :class:`repro.joins.aggregator.WindowAggregator`, an
incremental engine that precomputes prefix aggregates per window and is
cross-checked against this reference.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.streams.tuples import Side, StreamBatch

__all__ = ["AggKind", "BatchArrays", "WindowAggregate", "aggregate_of"]


class AggKind(enum.Enum):
    """Aggregation applied to the join output (Section 3.2)."""

    COUNT = "count"
    SUM = "sum"
    AVG = "avg"


@dataclass(frozen=True, slots=True)
class WindowAggregate:
    """Join aggregates of one window over one availability view."""

    n_r: int
    n_s: int
    matches: float
    sum_r: float

    @property
    def selectivity(self) -> float:
        """``sigma = matches / (n_r * n_s)`` (paper's definition via [18])."""
        denom = self.n_r * self.n_s
        return self.matches / denom if denom > 0 else 0.0

    @property
    def alpha_r(self) -> float:
        """Average payload of joined R tuples (``alpha_R`` in Section 3.2)."""
        return self.sum_r / self.matches if self.matches > 0 else 0.0

    def value(self, agg: AggKind) -> float:
        """The scalar output ``O`` for the requested aggregation."""
        if agg is AggKind.COUNT:
            return float(self.matches)
        if agg is AggKind.SUM:
            return float(self.sum_r)
        if agg is AggKind.AVG:
            return self.alpha_r
        raise ValueError(f"unknown aggregation {agg!r}")


def negative_key_error(key: int) -> ValueError:
    """The error every columnar ingest path raises for a negative join key
    (count tables are indexed by key)."""
    return ValueError(
        "join keys must be non-negative integers (got a negative key: "
        f"{key}); check the dataset generator"
    )


def aggregate_of(
    keys: np.ndarray, is_r: np.ndarray, payload: np.ndarray, num_keys: int
) -> WindowAggregate:
    """Join aggregate of one set of tuples via per-key count tables.

    The shared fold kernel: :meth:`BatchArrays.aggregate` applies it to a
    window slice, :class:`repro.streaming.state.WindowJoinState` to one
    window's columns of the push operators' log.  ``keys`` must be non-negative and below
    ``num_keys``; ``is_r`` is a boolean side mask.
    """
    n_r = int(is_r.sum())
    n_s = int(len(keys) - n_r)
    if n_r == 0 or n_s == 0:
        return WindowAggregate(n_r, n_s, 0.0, 0.0)
    r_keys = keys[is_r]
    s_keys = keys[~is_r]
    c_r = np.bincount(r_keys, minlength=num_keys)
    c_s = np.bincount(s_keys, minlength=num_keys)
    sum_rv = np.bincount(r_keys, weights=payload[is_r], minlength=num_keys)
    matches = float(c_r @ c_s)
    sum_r = float(sum_rv @ c_s)
    return WindowAggregate(n_r, n_s, matches, sum_r)


class BatchArrays:
    """Columnar arrays of a merged batch, event-sorted for window slicing.

    Attributes (all aligned, sorted by event time):
        event: Event timestamps (ms).
        arrival: Arrival timestamps (ms).
        key: Join keys (non-negative integers).
        payload: Payloads.
        is_r: Boolean mask, True where the tuple belongs to stream R.
        completion: Set by a processing pipeline — virtual time when the
            operator has finished ingesting each tuple.  Defaults to the
            arrival time (zero-cost processing).  ``apply_pipeline_costs``
            owns this column; code that writes it directly must call
            :meth:`mark_completion_dirty` so completion-derived caches
            (drain functions, incremental aggregators) are invalidated.
    """

    def __init__(
        self,
        event: np.ndarray,
        arrival: np.ndarray,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
    ):
        order = np.argsort(event, kind="stable")
        self.event = event[order]
        self.arrival = arrival[order]
        self.key = key[order].astype(np.int64)
        if len(self.key) and int(self.key.min()) < 0:
            raise negative_key_error(int(self.key.min()))
        self.payload = payload[order]
        self.is_r = is_r[order]
        self.completion = self.arrival.copy()
        self._num_keys = int(self.key.max()) + 1 if len(self.key) else 1
        self._init_caches()

    def _init_caches(self) -> None:
        # Completion-derived caches, invalidated by mark_completion_dirty().
        self._completion_version = 0
        self._completion_order: np.ndarray | None = None
        self._arrival_order: np.ndarray | None = None
        self._drain_cache: tuple[int, object] | None = None
        self._cost_signature: tuple | None = None
        self._aggregators: OrderedDict[tuple[float, float], object] = OrderedDict()

    @classmethod
    def from_sorted_columns(
        cls,
        event: np.ndarray,
        arrival: np.ndarray,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
        num_keys: int,
    ) -> "BatchArrays":
        """Adopt already event-sorted, validated columns without copying.

        The shared-memory attach path (:mod:`repro.joins.shm`) maps the
        five base columns straight out of an exported segment; they were
        sorted and key-validated when the batch was first built, so the
        constructor's argsort/copy/validate pass would only waste time
        and — worse — detach the views from the shared buffer.  The five
        base columns are adopted as-is (read-only views are fine: nothing
        writes them after construction); ``completion`` is always a
        fresh private copy because cost pipelines write it in place.
        """
        self = cls.__new__(cls)
        self.event = event
        self.arrival = arrival
        self.key = key
        self.payload = payload
        self.is_r = is_r
        self.completion = np.array(arrival)
        self._num_keys = int(num_keys)
        self._init_caches()
        return self

    @classmethod
    def from_batch(cls, batch: StreamBatch) -> "BatchArrays":
        """Build columns from a merged tuple batch."""
        n = len(batch)
        event = np.empty(n)
        arrival = np.empty(n)
        key = np.empty(n, dtype=np.int64)
        payload = np.empty(n)
        is_r = np.empty(n, dtype=bool)
        for i, t in enumerate(batch):
            event[i] = t.event_time
            arrival[i] = t.arrival_time
            key[i] = t.key
            payload[i] = t.payload
            is_r[i] = t.side is Side.R
        return cls(event, arrival, key, payload, is_r)

    def __len__(self) -> int:
        return len(self.event)

    @property
    def num_keys(self) -> int:
        """Number of distinct join keys in the batch."""
        return self._num_keys

    # -- completion ownership and derived caches ----------------------------

    @property
    def completion_version(self) -> int:
        """Monotone counter bumped whenever ``completion`` is rewritten."""
        return self._completion_version

    def mark_completion_dirty(self) -> None:
        """Declare that ``completion`` changed; drop derived caches.

        ``apply_pipeline_costs`` calls this automatically; call it after
        any direct write to ``completion`` so cached drain functions and
        :class:`~repro.joins.aggregator.WindowAggregator` indexes rebuild.
        """
        self._completion_version += 1
        self._completion_order = None
        self._drain_cache = None
        self._cost_signature = None
        obs.counter("arrays.completion_version_bumps").inc()

    def arrival_order(self) -> np.ndarray:
        """Stable argsort of arrival times (computed once; arrival is
        immutable after construction)."""
        if self._arrival_order is None:
            self._arrival_order = np.argsort(self.arrival, kind="stable")
        return self._arrival_order

    def completion_order(self) -> np.ndarray:
        """Stable argsort of completion times (cached per completion
        version)."""
        if self._completion_order is None:
            self._completion_order = np.argsort(self.completion, kind="stable")
        return self._completion_order

    #: Cap on cached WindowAggregator grids per batch.  Sliding adapters
    #: run one phase-shifted grid per (length, origin) pair and would grow
    #: the cache without bound; beyond the cap the least recently used
    #: grid is evicted (and counted via ``arrays.aggregator_evictions``).
    AGGREGATOR_CACHE_CAP = 8

    def aggregator(self, window_length: float, origin: float = 0.0):
        """The cached incremental aggregator for one tumbling grid.

        Returns a :class:`repro.joins.aggregator.WindowAggregator` whose
        completion-clock index follows ``completion_version`` (rebuilt
        lazily after every cost application).  At most
        :attr:`AGGREGATOR_CACHE_CAP` grids are kept, LRU-evicted.
        """
        from repro.joins.aggregator import WindowAggregator

        cache_key = (float(window_length), float(origin))
        agg = self._aggregators.get(cache_key)
        if agg is None:
            agg = WindowAggregator(self, window_length, origin)
            self._aggregators[cache_key] = agg
            while len(self._aggregators) > self.AGGREGATOR_CACHE_CAP:
                self._aggregators.popitem(last=False)
                obs.counter("arrays.aggregator_evictions").inc()
        else:
            self._aggregators.move_to_end(cache_key)
        return agg

    def drain_function(self) -> Callable[[float], float]:
        """``drain(T)``: when the server finishes everything arrived by T.

        Built from the arrival order and the (monotonised) completion
        column; cached per :attr:`completion_version`, so repeated runs
        and the sliding adapter's phases share one build.
        ``mark_completion_dirty`` invalidates the cache.
        """
        cached = self._drain_cache
        if cached is not None and cached[0] == self._completion_version:
            return cached[1]
        order = self.arrival_order()
        arrivals = self.arrival[order]
        completions = self.completion[order]
        # Single-server completions are monotone in arrival order already,
        # but guard against cost profiles that break ties oddly.
        completions = np.maximum.accumulate(completions)

        def drain(t: float) -> float:
            idx = int(np.searchsorted(arrivals, t, side="right"))
            if idx == 0:
                return t
            return float(completions[idx - 1])

        self._drain_cache = (self._completion_version, drain)
        return drain

    def window_slice(self, start: float, end: float) -> slice:
        """Index range (into the event-sorted columns) of one window."""
        lo = int(np.searchsorted(self.event, start, side="left"))
        hi = int(np.searchsorted(self.event, end, side="left"))
        return slice(lo, hi)

    def aggregate(
        self,
        start: float,
        end: float,
        available_by: float | None = None,
        clock: str = "completion",
    ) -> WindowAggregate:
        """Join aggregate of the window ``[start, end)``.

        Args:
            start, end: Window bounds in event time.
            available_by: If given, only tuples available by this virtual
                time participate (the operator's observed view).  ``None``
                means the oracle view over all in-window tuples.
            clock: Which per-tuple time availability is judged against —
                ``"completion"`` (processed by the operator, the default)
                or ``"arrival"`` (reached the system; used by lazy batch
                joins that ingest whole batches at once).
        """
        sl = self.window_slice(start, end)
        keys = self.key[sl]
        is_r = self.is_r[sl]
        payload = self.payload[sl]
        if available_by is not None:
            if clock == "completion":
                times = self.completion[sl]
            elif clock == "arrival":
                times = self.arrival[sl]
            else:
                raise ValueError(f"unknown clock {clock!r}")
            avail = times <= available_by
            keys = keys[avail]
            is_r = is_r[avail]
            payload = payload[avail]
        return aggregate_of(keys, is_r, payload, self._num_keys)

    def side_count(
        self,
        start: float,
        end: float,
        want_r: bool,
        available_by: float | None = None,
    ) -> int:
        """Count of one side's tuples in an event-time range."""
        sl = self.window_slice(start, end)
        mask = self.is_r[sl] if want_r else ~self.is_r[sl]
        if available_by is not None:
            mask = mask & (self.completion[sl] <= available_by)
        return int(mask.sum())

    def arrivals_in_window(
        self, start: float, end: float, available_by: float
    ) -> np.ndarray:
        """Arrival times of the tuples contributing to an emitted output."""
        sl = self.window_slice(start, end)
        avail = self.completion[sl] <= available_by
        return self.arrival[sl][avail]
