"""The ``serve`` figures: sustained multi-tenant serving under chaos
(``serve``) and the shard storage hot path at growing retention
(``serve_hotpath``: the incremental :class:`~repro.serve.shards.ShardStore`,
whose delta grid holds each window's tuples and prefix state, against
the :class:`FullRebuildShard` reference, answer for answer).

The batch figures grade *accuracy*; this one grades *service*: a
:class:`~repro.serve.service.JoinService` sweeps a small grid of
tenancy × chaos intensity, each cell one end-to-end run over the
plan-driven load trace (:func:`repro.faults.plan.serve_load_plan` —
rate spike, overlapping disorder burst, drought).  Rows carry the
serving layer's accounting — admitted/rejected/shed queries, virtual
QPS, p95/p99 virtual-time latency, autoscaler activity — so the CI
compare gate catches a quota leak, a shedding regression or an
autoscaler that stopped reacting just as it catches an error
regression in the batch figures.

The ingest *rate* is deliberately not scaled down with ``--scale``:
autoscaling and admission pressure only exist above a worker's
capacity, so scale shrinks the run's duration (and with it tenant
count stays the driver of query pressure).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import obs
from repro.core.delay_profile import DelayProfile
from repro.faults.plan import serve_load_plan
from repro.joins.arrays import AggKind, BatchArrays, check_aligned
from repro.serve.admission import TenantQuota
from repro.serve.service import ServeConfig, run_service
from repro.serve.shards import (
    EMPTY_ANSWER,
    ShardAnswer,
    ShardStore,
    check_chunk,
    pecj_lite_answer,
    restore_state,
    snapshot_state,
)

__all__ = ["FullRebuildShard", "serve_hotpath", "serve_sustained"]

#: (tenants, chaos intensity) grid of the figure.
_CELLS = ((24, 0.0), (24, 2.0), (96, 0.0), (96, 2.0))


def serve_sustained(scale: float = 1.0, workers: int | None = None) -> list[dict]:
    """Rows of the ``serve`` figure (one per tenancy × intensity cell).

    Args:
        scale: Fraction of the full-run duration (floored so every cell
            still spans several autoscale intervals).
        workers: Accepted for CLI uniformity and ignored — a service
            run is one shared-state event loop, not independent cells;
            rows are identical for any value, which keeps the
            serial-vs-parallel determinism gate green.
    """
    del workers  # one shared-state loop per cell; nothing to shard
    duration_ms = max(1500.0 * scale, 400.0)
    rows: list[dict] = []
    for tenants, intensity in _CELLS:
        config = ServeConfig(
            tenants=tenants,
            n_shards=4,
            num_keys=64,
            window_ms=50.0,
            omega_ms=10.0,
            duration_ms=duration_ms,
            warmup_ms=min(200.0, 0.25 * duration_ms),
            rate_per_ms=150.0,
            mean_query_interval_ms=50.0,
            quota=TenantQuota(rate_per_s=18.0, burst=3.0),
            min_workers=1,
            max_workers=6,
            autoscale_interval_ms=50.0,
            migrate_at_ms=0.5 * duration_ms,
            seed=7,
        )
        plan = serve_load_plan(intensity, 0.0, duration_ms, seed=7)
        report = run_service(config, plan if plan else None)
        rows.append({"tenants": tenants, "intensity": intensity, **report})
    return rows


class FullRebuildShard:
    """Full-rebuild reference of :class:`~repro.serve.shards.ShardStore`.

    Takes the same arguments and keeps the same ``ingest``/``query``/
    ``checkpoint``/``restore`` contract, but the first query after new
    arrivals concatenates all retained columns, drops rows behind the
    retention horizon, re-argsorts the rest in the ``BatchArrays``
    constructor and answers from a fresh prefix-aggregate grid —
    O(state · log state) per touched tick, counted in
    ``serve.shard.rebuilds``.  It shares only ingest validation, the
    PECJ-lite answer step and the snapshot format with ``ShardStore``,
    which makes it the equivalence oracle: the ``serve_hotpath`` figure
    gates the two shards' answer and eviction equality,
    ``tests/serve/test_shards_incremental.py`` drives them in lockstep
    and ``benchmarks/bench_hotpath.py`` times them.
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
        # Columns not yet folded into _arrays, oldest first, starting
        # from typed empty ones; a rebuild leaves only its surviving
        # columns here.
        self._chunks: list[tuple[np.ndarray, ...]] = [
            (
                np.empty(0),
                np.empty(0),
                np.empty(0, dtype=np.int64),
                np.empty(0),
                np.empty(0, dtype=bool),
            )
        ]
        self._arrays: BatchArrays | None = None
        self._dirty = True
        self._max_arrival = 0.0
        self.ingested = 0
        self.evicted = 0
        self.queries = 0

    def __len__(self) -> int:
        """Live tuples (lifetime ingested minus lifetime evicted)."""
        return self.ingested - self.evicted

    @property
    def horizon(self) -> float:
        """Retention cutoff: events older than this are dropped on rebuild."""
        return self._max_arrival - self.retention_ms

    def ingest(self, event, arrival, key, payload, is_r) -> None:
        """Buffer a batch of arrived tuples (``ShardStore.ingest`` contract)."""
        if len(event) == 0:
            check_aligned(event, arrival, key, payload, is_r)
            return
        cols, delays = check_chunk(self, event, arrival, key, payload, is_r)
        self._chunks.append(cols)
        self._dirty = True
        self.profile._absorb(delays, float(delays.max()))
        self._max_arrival = max(self._max_arrival, float(cols[1].max()))
        self.ingested += len(delays)
        obs.counter("serve.shard.ingested").inc(len(delays))

    def _rebuild(self) -> BatchArrays:
        """Merge buffered chunks into the queryable arrays, evicting old state."""
        if self._dirty:
            cols = [np.concatenate(col) for col in zip(*self._chunks)]
            keep = cols[0] >= self.horizon
            dropped = int(len(keep) - keep.sum())
            if dropped:
                self.evicted += dropped
                obs.counter("serve.shard.evicted").inc(dropped)
            a = self._arrays = BatchArrays(*(col[keep] for col in cols))
            # Key aggregation must span the global key space even when
            # this shard happens to hold a narrow slice of it.
            a._num_keys = self.num_keys
            self._chunks = [(a.event, a.arrival, a.key, a.payload, a.is_r)]
            self._dirty = False
            obs.counter("serve.shard.rebuilds").inc()
        return self._arrays

    def query(
        self, start: float, end: float, available_by: float, compensate_output: bool = True
    ) -> ShardAnswer:
        """Answer a window join query (``ShardStore.query`` contract)."""
        self.queries += 1
        obs.counter("serve.shard.queries").inc()
        arrays = self._rebuild()
        if len(arrays) == 0:
            return EMPTY_ANSWER
        aggregator = arrays.aggregator(end - start)
        observed = aggregator.try_at(start, end, available_by, clock="arrival")
        if observed is None:
            observed = arrays.aggregate(start, end, available_by, clock="arrival")
        return pecj_lite_answer(
            self.agg, self.profile, observed, start, end, available_by, compensate_output
        )

    def checkpoint(self) -> dict[str, Any]:
        """Schema-v2 snapshot of the rebuilt, post-eviction columns."""
        a = self._rebuild()
        cols = (a.event, a.arrival, a.key, a.payload, a.is_r)
        return snapshot_state(self, cols, "full")

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "FullRebuildShard":
        """Rebuild a shard from a schema-v2 snapshot of either shard class."""
        shard, cols = restore_state(cls, state)
        if len(cols[0]):
            shard._chunks.append(cols)
            shard._dirty = True
        return shard


#: Retention points of the ``serve_hotpath`` figure (ms).  Per-tick work
#: is constant, so any cost growth across this sweep is retained-state
#: cost — exactly what the incremental shard is supposed to flatten.
_HOTPATH_RETENTIONS = (400.0, 1600.0, 6400.0)
_HOTPATH_TICK_MS = 25.0
_HOTPATH_WINDOW_MS = 50.0
_HOTPATH_PER_TICK = 120
_HOTPATH_NUM_KEYS = 64


def hotpath_tick_stream(ticks: int, seed: int = 11) -> list[tuple[np.ndarray, ...]]:
    """The deterministic per-tick ingest chunks of the hotpath figure.

    One service tick's worth of arrivals each: arrival times inside the
    tick (sorted, as the service's ingest loop delivers them), gamma
    disorder on event times.  Shared by the figure rows and the timing
    benchmark so both measure the same stream.
    """
    rng = np.random.default_rng(seed)
    chunks = []
    for tick in range(ticks):
        clock = (tick + 1) * _HOTPATH_TICK_MS
        arrival = np.sort(clock - rng.uniform(0.0, _HOTPATH_TICK_MS, _HOTPATH_PER_TICK))
        event = np.maximum(arrival - rng.gamma(2.0, 8.0, _HOTPATH_PER_TICK), 0.0)
        chunks.append(
            (
                event,
                arrival,
                rng.integers(0, _HOTPATH_NUM_KEYS, _HOTPATH_PER_TICK).astype(np.int64),
                rng.uniform(0.0, 2.0, _HOTPATH_PER_TICK),
                rng.random(_HOTPATH_PER_TICK) < 0.5,
            )
        )
    return chunks


def hotpath_drive(
    shard_cls: type, retention_ms: float, chunks: list[tuple[np.ndarray, ...]]
) -> tuple[Any, list[tuple[int, int, float]]]:
    """Ingest-to-answer loop of one shard of class ``shard_cls``
    (``ShardStore`` or ``FullRebuildShard``).

    Every tick ingests one chunk and answers a COUNT query over the
    latest closed window — the serving layer's steady-state rhythm.
    Returns the shard and the per-tick answers ``(n_r, n_s, value)``.
    """
    shard = shard_cls(
        0, _HOTPATH_NUM_KEYS, AggKind.COUNT, _HOTPATH_WINDOW_MS, retention_ms
    )
    answers = []
    for tick, chunk in enumerate(chunks):
        clock = (tick + 1) * _HOTPATH_TICK_MS
        shard.ingest(*chunk)
        start = (clock // _HOTPATH_WINDOW_MS - 1) * _HOTPATH_WINDOW_MS
        if start < 0:
            continue
        ans = shard.query(start, start + _HOTPATH_WINDOW_MS, clock)
        answers.append((ans.n_r, ans.n_s, ans.value))
    return shard, answers


def serve_hotpath(scale: float = 1.0, workers: int | None = None) -> list[dict]:
    """Rows of the ``serve_hotpath`` figure (one per retention point).

    Runs :class:`~repro.serve.shards.ShardStore` and the
    :class:`FullRebuildShard` reference in lockstep over the same
    deterministic tick stream at each retention point and reports the
    structural accounting: delta-append and held-window counts for the
    incremental shard, rebuild counts for the reference, eviction
    counts for both and the equality of their answers (COUNT answers
    are all-integer, so ``answers_equal`` is an exact bit-for-bit check).  Rows carry no
    wall-clock numbers — they are byte-identical across machines and
    worker counts; ``benchmarks/bench_hotpath.py`` does the timing.

    Args:
        scale: Fraction of the full tick count per retention point
            (floored so even tiny scales span several windows).
        workers: Accepted for CLI uniformity and ignored — the sweep is
            one shard ingesting sequentially; rows are identical for
            any value, which keeps the determinism gate green.
    """
    del workers  # sequential single-shard sweep; nothing to shard
    rows: list[dict] = []
    for retention_ms in _HOTPATH_RETENTIONS:
        ticks = max(int(1.5 * retention_ms / _HOTPATH_TICK_MS * scale), 40)
        chunks = hotpath_tick_stream(ticks)
        inc, inc_answers = hotpath_drive(ShardStore, retention_ms, chunks)
        ref, ref_answers = hotpath_drive(FullRebuildShard, retention_ms, chunks)
        rows.append(
            {
                "retention_ms": retention_ms,
                "ticks": ticks,
                "ingested": inc.ingested,
                "evicted": inc.evicted,
                "live": len(inc),
                "queries": inc.queries,
                "answers_equal": inc_answers == ref_answers,
                "evictions_equal": inc.evicted == ref.evicted,
                "count_checksum": float(sum(a[2] for a in inc_answers)),
                "delta_appends": inc.grid.appends,
                "grid_windows": len(inc.grid),
                "full_rebuilds": ref.queries,  # one rebuild per dirty query
            }
        )
    return rows
