"""The long-running multi-tenant streaming join service.

This is the serving layer the ROADMAP calls for: many simulated tenants
submit window-join queries against a *shared* disordered ingest stream,
and one :class:`JoinService` sustains them end-to-end on an asyncio
event loop — admission control, bounded queues with backpressure,
key-sharded operator state, graceful degradation, checkpoint/migration
and vertical autoscaling, all on a virtual clock so a run is a pure
function of its :class:`ServeConfig` and fault plan.

Structure of one service run:

1. The whole ingest trace is pregenerated, vectorised, from the seeded
   RNG — per-tick Poisson arrival counts modulated by the fault plan's
   rate spikes (:meth:`FaultPlan.rate_factors`), exponential base
   delays plus burst extra delay (:meth:`FaultPlan.extra_delay_means`)
   — then sorted by *arrival*, which is the order the service feels it,
   and grouped by key shard in the same gather, so each tick hands
   every shard a contiguous view of its arrivals.
2. The tick loop advances virtual time in ``tick_ms`` steps.  Each tick
   it (a) dispatches the tick's arrivals to their key shards through
   bounded per-worker :class:`asyncio.Queue`\\ s — a full queue blocks
   the dispatcher, which is the backpressure that keeps memory bounded;
   (b) rolls per-tenant query schedules forward, passing each due query
   through the admission gate, a bounded per-tenant queue (overflow is
   *shed*, counted, never silently dropped), and a round-robin drain
   whose rotating start keeps one tenant from monopolising dispatch.
3. Simulated workers drain their queues, touching shard state and
   advancing per-worker virtual busy clocks priced by the engine cost
   model; query latency is virtual completion minus submission, so
   percentiles are deterministic regardless of asyncio interleaving.
4. At every autoscale boundary the loop barriers (drains all queues),
   lets the :class:`~repro.serve.autoscaler.VerticalAutoscaler` resize
   the pool, and remaps shards to workers.  A configured migration
   point barriers the same way, round-trips every shard through its
   JSON checkpoint and resumes on the restored state — the
   tenant-migration drill.

Counters: ``serve.ingest.events``, ``serve.queries.submitted`` /
``.completed`` / ``.shed_queue`` / ``.shed_starved`` / ``.fallback`` /
``.widened``, ``serve.migrations``, plus the vocabularies of
:mod:`repro.serve.admission`, :mod:`repro.serve.shards` and
:mod:`repro.serve.autoscaler`.  Histogram: ``serve.latency_ms``.
Trace instants: ``serve.rescale``, ``serve.migrate``.

Live telemetry (:mod:`repro.serve.telemetry`, on by default) rides the
same loop: the tick boundary sweeps the run's registry into ring time
series and advances the per-tenant-class SLO burn-rate alerts, and
every control-plane decision — admission rejection, queue/starved shed,
widen change, fallback entry, rescale, migration, profile
poison/repair — lands in the audit log (``audit.*`` counters).  A fault
plan with ``estimator_divergence`` events additionally poisons the
shard delay profiles at the event start and repairs them from their
last healthy checkpoint at the next barrier — the serving-layer version
of the chaos harness's forced-NaN drill.  Each run records into its own
scoped child registry (merged losslessly into the surrounding scope),
so :meth:`JoinService.openmetrics` and
:meth:`JoinService.telemetry_snapshot` expose exactly this run.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import obs
from repro.obs import trace
from repro.obs.openmetrics import render_openmetrics
from repro.core.persistence import profile_state, restore_profile
from repro.engine.cost_model import EngineCostModel
from repro.faults.degrade import DegradationController, DegradeConfig
from repro.faults.plan import FaultPlan
from repro.joins.arrays import AggKind
from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.autoscaler import VerticalAutoscaler
from repro.serve.shards import ShardStore
from repro.serve.telemetry import ServeTelemetry, TelemetryConfig

__all__ = ["ServeConfig", "JoinService", "run_service"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything that determines a service run.

    Attributes:
        tenants: Number of simulated tenants submitting queries.
        n_shards: Key shards the operator state is partitioned into
            (tuples hash by ``key % n_shards``; each tenant's queries
            target its home shard ``tenant % n_shards``).
        num_keys: Join key-space size.
        window_ms: Tumbling window length of tenant queries.
        omega_ms: Availability budget the degradation controllers
            resolve their widening step/cap against.
        duration_ms: Virtual length of the run.
        warmup_ms: Queries submitted before this are excluded from the
            latency percentiles (counters still see them).
        rate_per_ms: Baseline shared ingest rate (tuples per virtual
            ms, both sides together) before fault-plan modulation.
        base_delay_ms: Mean of the exponential baseline arrival delay.
        tick_ms: Virtual length of one dispatch tick.
        mean_query_interval_ms: Mean gap between one tenant's queries
            (exponential; divided by the plan's rate factor, so load
            spikes make tenants chattier too).
        tenant_queue_cap: Bound on each tenant's pending-query queue;
            overflow is shed and counted.
        worker_queue_cap: Bound on each worker's work queue; a full
            queue blocks the dispatcher (backpressure).
        quota: Per-tenant admission budget.
        min_workers: Autoscaler pool floor.
        max_workers: Autoscaler pool ceiling.
        autoscale_interval_ms: Virtual time between autoscale
            decisions (each is a barrier + possible rescale).
        agg: Aggregation of tenant queries (``"count"``/``"sum"``/
            ``"avg"``).
        seed: Seed of every RNG in the run.
        migrate_at_ms: If set, at the first tick boundary past this
            time every shard is checkpointed, JSON round-tripped and
            restored — the migration drill.
        degrade: Degradation tunables applied per shard (``None``
            widening tunables are resolved against ``omega_ms``).
        telemetry: Live-telemetry tunables (sampling cadence, SLO
            policy, audit switch); ``TelemetryConfig(enabled=False)``
            pins the pre-telemetry no-op path.
    """

    tenants: int = 32
    n_shards: int = 4
    num_keys: int = 64
    window_ms: float = 50.0
    omega_ms: float = 10.0
    duration_ms: float = 1000.0
    warmup_ms: float = 200.0
    rate_per_ms: float = 4.0
    base_delay_ms: float = 4.0
    tick_ms: float = 5.0
    mean_query_interval_ms: float = 100.0
    tenant_queue_cap: int = 8
    worker_queue_cap: int = 16
    quota: TenantQuota = field(default_factory=TenantQuota)
    min_workers: int = 1
    max_workers: int = 8
    autoscale_interval_ms: float = 50.0
    agg: str = "count"
    seed: int = 0
    migrate_at_ms: float | None = None
    degrade: DegradeConfig = field(default_factory=DegradeConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.n_shards < 1:
            raise ValueError("need at least one tenant and one shard")
        if self.tick_ms <= 0.0 or self.duration_ms < self.tick_ms:
            raise ValueError("need 0 < tick_ms <= duration_ms")
        if not 1 <= self.min_workers <= self.max_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if self.autoscale_interval_ms < self.tick_ms:
            raise ValueError("autoscale_interval_ms must cover at least one tick")

    @property
    def retention_ms(self) -> float:
        """Shard retention horizon: windows stay queryable while any
        in-flight query (widened up to the budget cap) could touch them."""
        return 2.0 * self.window_ms + 4.0 * self.omega_ms + self.base_delay_ms * 8.0


@dataclass
class _Query:
    """One tenant query in flight."""

    tenant: int
    shard: int
    submit_ms: float
    start: float
    end: float


class JoinService:
    """A multi-tenant window-join service over shared disordered ingest.

    Construct with a config (and optionally a fault plan driving load),
    then either ``asyncio.run(service.run())`` or the synchronous
    :func:`run_service` wrapper.  The instance keeps its shards,
    controllers and per-tenant tallies readable after the run — tests
    assert fairness and accounting invariants straight off them.

    Args:
        config: The run's parameters.
        plan: Fault plan whose rate spikes / disorder bursts modulate
            the generated load (``None`` = steady state).
    """

    def __init__(self, config: ServeConfig, plan: FaultPlan | None = None):
        self.config = config
        self.plan = plan
        self.agg = AggKind(config.agg)
        self.cost_model = EngineCostModel()
        self.admission = AdmissionController(config.quota)
        self.autoscaler = VerticalAutoscaler(
            self.cost_model,
            min_workers=config.min_workers,
            max_workers=config.max_workers,
        )
        self.shards = [
            ShardStore(
                i,
                config.num_keys,
                self.agg,
                config.window_ms,
                config.retention_ms,
            )
            for i in range(config.n_shards)
        ]
        # Per-shard degradation controllers; the service is a
        # construction site of DegradationController, so it must resolve
        # the widening budget (None tunables) against its omega here —
        # update_widen() refuses to run otherwise.
        self.controllers = [
            DegradationController(config.degrade) for _ in range(config.n_shards)
        ]
        for ctl in self.controllers:
            ctl.resolve_budget(config.omega_ms)
        self.tenant_queues: list[deque[_Query]] = [
            deque() for _ in range(config.tenants)
        ]
        self.tenant_completed = np.zeros(config.tenants, dtype=np.int64)
        self.tenant_submitted = np.zeros(config.tenants, dtype=np.int64)
        self.events_dispatched = 0
        self.queries_submitted = 0
        self.queries_completed = 0
        self.shed_queue = 0
        self.shed_starved = 0
        self.fallback_answers = 0
        self.widened_answers = 0
        self.migrations = 0
        self.peak_workers = config.min_workers
        self.latencies: list[float] = []
        self._migrated = False
        self._worker_error: Exception | None = None
        self.telemetry = ServeTelemetry(config.telemetry)
        self.slo = self.telemetry.slo
        self.audit = self.telemetry.audit
        self.sampler = self.telemetry.sampler
        self._registry: obs.MetricsRegistry | None = None
        # Forced estimator-divergence events poison the shard delay
        # profiles; the repair path only arms when the plan carries
        # them, so ordinary runs stay bit-identical.
        self._divergence = (
            sorted(plan.by_kind("estimator_divergence"), key=lambda e: e.t_start)
            if plan is not None
            else []
        )
        self._divergence_idx = 0
        self._profile_ckpts: list[dict[str, Any]] = []

    # -- load generation ---------------------------------------------------

    def _generate_ingest(self) -> tuple[list[int], tuple[np.ndarray, ...]]:
        """Pregenerate the whole ingest trace, grouped by key shard.

        Per-tick Poisson counts follow the plan's rate factors; each
        tuple's delay is exponential base plus (inside a disorder
        burst) an exponential extra with the burst's mean.  Returns the
        shard boundaries (shard ``s`` owns rows ``[b[s], b[s + 1])``)
        and the columns, ordered by shard (``key % n_shards``) and by
        arrival time within a shard — one gather, so a tick's chunk for
        a shard is a slice, in the order the service feels it.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        n_ticks = int(round(cfg.duration_ms / cfg.tick_ms))
        tick_starts = np.arange(n_ticks) * cfg.tick_ms
        mids = tick_starts + 0.5 * cfg.tick_ms
        factors = (
            self.plan.rate_factors(mids) if self.plan is not None else np.ones(n_ticks)
        )
        counts = rng.poisson(cfg.rate_per_ms * cfg.tick_ms * factors)
        n = int(counts.sum())
        event = np.repeat(tick_starts, counts) + rng.uniform(0.0, cfg.tick_ms, n)
        extra_mean = (
            self.plan.extra_delay_means(event)
            if self.plan is not None
            else np.zeros(n)
        )
        delay = rng.exponential(cfg.base_delay_ms, n)
        delay += rng.exponential(1.0, n) * extra_mean
        arrival = event + delay
        del extra_mean, delay  # released before the sort's temporaries
        key = rng.integers(0, cfg.num_keys, n)
        payload = rng.uniform(0.0, 2.0, n)
        is_r = rng.random(n) < 0.5
        # Stable by arrival, then stable by shard: one composed gather.
        order = np.argsort(arrival, kind="stable")
        shard_of = (key % cfg.n_shards)[order]
        order = order[np.argsort(shard_of, kind="stable")]
        sizes = np.bincount(shard_of, minlength=cfg.n_shards)
        del shard_of
        bounds = [0] + np.cumsum(sizes).tolist()
        return bounds, (
            event[order],
            arrival[order],
            key[order],
            payload[order],
            is_r[order],
        )

    def _due_queries(
        self, next_submit: np.ndarray, rng: np.random.Generator, tick_end: float
    ) -> list[_Query]:
        """Roll tenant schedules forward through ``tick_end``; the due queries.

        Each due query targets the most recently *closed* window of the
        tenant's home shard.  Gaps are exponential with the plan's rate
        factor dividing the mean — tenants get chattier under a spike.
        """
        cfg = self.config
        out: list[_Query] = []
        for tenant in np.nonzero(next_submit < tick_end)[0]:
            t = int(tenant)
            while next_submit[t] < tick_end:
                submit = float(next_submit[t])
                w_idx = int(submit // cfg.window_ms) - 1
                if w_idx >= 0:
                    out.append(
                        _Query(
                            tenant=t,
                            shard=t % cfg.n_shards,
                            submit_ms=submit,
                            start=w_idx * cfg.window_ms,
                            end=(w_idx + 1) * cfg.window_ms,
                        )
                    )
                factor = (
                    self.plan.rate_factor(submit) if self.plan is not None else 1.0
                )
                next_submit[t] += rng.exponential(cfg.mean_query_interval_ms) / factor
        out.sort(key=lambda q: (q.submit_ms, q.tenant))
        return out

    # -- work execution ----------------------------------------------------

    def _do_ingest(self, worker: int, item: tuple) -> None:
        """Apply one ingest batch on a worker: state update + virtual cost."""
        _, shard_id, cols, t_avail = item
        n = len(cols[0])
        self.shards[shard_id].ingest(*cols)
        cost = n * self.cost_model.eager_tuple_ms(
            "shj", len(self._busy), with_pecj=True
        )
        self._busy[worker] = max(self._busy[worker], t_avail) + cost
        self.events_dispatched += n
        obs.counter("serve.ingest.events").inc(n)

    def _do_query(self, worker: int, query: _Query) -> None:
        """Answer one tenant query on a worker.

        The shard's degradation controller supplies the availability
        widening (extra virtual wait for late data), decides starved
        windows' fate (widen further vs shed), and runs its health
        hysteresis over the compensated answer — fallback mode serves
        the conservative observed aggregate.
        """
        ctl = self.controllers[query.shard]
        widen = ctl.widen_ms
        available_by = query.submit_ms + widen
        answer = self.shards[query.shard].query(
            query.start,
            query.end,
            available_by,
            compensate_output=ctl.mode == "normal",
        )
        shed = ctl.update_widen(answer.starved)
        value = answer.value
        if shed:
            value = answer.observed
            self.shed_starved += 1
            obs.counter("serve.queries.shed_starved").inc()
        elif widen > 0.0:
            self.widened_answers += 1
            obs.counter("serve.queries.widened").inc()
        healthy, hard = ctl.assess(value, answer.observed, None)
        mode_before = ctl.mode
        fallback = ctl.observe(healthy, hard) == "fallback" and not shed
        if fallback:
            value = answer.observed
            self.fallback_answers += 1
            obs.counter("serve.queries.fallback").inc()
        cost = self.cost_model.pecj_compensate_ms
        self._busy[worker] = max(self._busy[worker], query.submit_ms) + cost
        latency = (self._busy[worker] + widen) - query.submit_ms
        self.queries_completed += 1
        self.tenant_completed[query.tenant] += 1
        obs.counter("serve.queries.completed").inc()
        warm = query.submit_ms >= self.config.warmup_ms
        if warm:
            self.latencies.append(latency)
            obs.observe("serve.latency_ms", latency)
        tel = self.telemetry
        if tel.enabled:
            if ctl.widen_ms != widen:
                tel.on_widen(query.shard, query.submit_ms, ctl.widen_ms)
            if ctl.mode == "fallback" and mode_before != "fallback":
                tel.on_fallback_entered(query.shard, query.submit_ms)
            tel.on_query(
                query.tenant,
                query.shard,
                query.submit_ms,
                latency,
                answer.value,
                answer.completeness,
                shed,
                fallback,
                warm,
            )

    async def _worker(self, idx: int, queue: asyncio.Queue) -> None:
        """One simulated worker: drain the queue until cancelled.

        A worker that simply died on an exception would deadlock the
        dispatcher against its full queue; instead the first failure is
        captured, subsequent items are drained unprocessed so barriers
        still complete, and the run loop re-raises at the next barrier.
        """
        while True:
            item = await queue.get()
            try:
                if self._worker_error is None:
                    if item[0] == "ingest":
                        self._do_ingest(idx, item)
                    else:
                        self._do_query(idx, item[1])
            except Exception as exc:
                self._worker_error = exc
            finally:
                queue.task_done()

    def _spawn_pool(self, n: int, start_ms: float) -> None:
        """(Re)create the worker pool: queues, tasks, virtual busy clocks.

        New clocks start at the later of the boundary time and the old
        pool's slowest clock — the rescale barrier drains queued work,
        and virtual time never runs backwards through a resize.
        """
        floor = max([start_ms] + self._busy) if self._busy else start_ms
        self._queues = [
            asyncio.Queue(maxsize=self.config.worker_queue_cap) for _ in range(n)
        ]
        self._busy = [floor] * n
        self._tasks = [
            asyncio.get_running_loop().create_task(self._worker(i, q))
            for i, q in enumerate(self._queues)
        ]
        self.peak_workers = max(self.peak_workers, n)

    async def _stop_pool(self) -> None:
        """Cancel the worker tasks (queues must already be drained)."""
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    async def _barrier(self) -> None:
        """Wait until every worker queue is fully drained.

        Raises:
            RuntimeError: A worker failed since the last barrier; the
                original exception is chained as the cause.
        """
        await asyncio.gather(*(q.join() for q in self._queues))
        if self._worker_error is not None:
            raise RuntimeError("a serve worker failed") from self._worker_error

    def _migrate(self, now_ms: float) -> None:
        """Checkpoint, JSON round-trip and restore every shard in place."""
        for i, shard in enumerate(self.shards):
            snapshot = json.loads(json.dumps(shard.checkpoint()))
            self.shards[i] = ShardStore.restore(snapshot)
            self.migrations += 1
            obs.counter("serve.migrations").inc()
        trace.instant("serve.migrate", now_ms, cat="serve")
        self.telemetry.on_migrate(now_ms, len(self.shards))

    # -- forced-divergence drill -------------------------------------------

    def _maybe_poison(self, tick_end: float) -> None:
        """Poison every shard's delay profile at a due divergence event.

        Only the bucket counts are NaN'd: the profile stays warm
        (``_total`` untouched), so compensated queries keep consulting
        it and surface NaN completeness — the realistic failure the
        shard's non-finite guard and the controllers then absorb.
        """
        while (
            self._divergence_idx < len(self._divergence)
            and tick_end >= self._divergence[self._divergence_idx].t_start
        ):
            for shard in self.shards:
                profile = shard.profile
                profile._counts = np.full_like(profile._counts, np.nan)
                profile._cdf_cache = None
            obs.counter("serve.profile.poisons").inc()
            self.telemetry.on_profile_poison(tick_end, len(self.shards))
            self._divergence_idx += 1

    def _profile_healthy(self, shard: ShardStore) -> bool:
        """Probe one shard's delay profile for finite completeness."""
        (c,) = shard.profile.completeness_list([shard.profile._span * 0.5])
        return math.isfinite(c)

    def _repair_profiles(self, now_ms: float) -> None:
        """Barrier-time repair: restore poisoned profiles, refresh checkpoints.

        Healthy profiles refresh their checkpoint (so a later repair
        restores recent state); poisoned ones are restored in place from
        the last healthy checkpoint, counted and audited.
        """
        for i, shard in enumerate(self.shards):
            if self._profile_healthy(shard):
                self._profile_ckpts[i] = profile_state(shard.profile)
            else:
                restore_profile(shard.profile, self._profile_ckpts[i])
                obs.counter("serve.profile.repairs").inc()
                self.telemetry.on_profile_repair(i, now_ms)

    # -- the run -----------------------------------------------------------

    async def run(self) -> dict[str, Any]:
        """Drive the service for ``duration_ms`` of virtual time.

        Returns the run report (the dict :func:`run_service` documents).
        The run records into its own scoped child registry — merged
        losslessly into the surrounding scope on exit — so the
        telemetry sampler and the exporters see exactly this run's
        instruments regardless of what else the process measured.
        """
        with obs.scoped() as reg:
            self._registry = reg
            return await self._run_inner()

    async def _run_inner(self) -> dict[str, Any]:
        """The tick loop body of :meth:`run` (inside the scoped registry)."""
        cfg = self.config
        tel = self.telemetry
        bounds, trace_cols = self._generate_ingest()
        arrival = trace_cols[1]
        # Per shard: the next undispatched row of its arrival-sorted slice.
        cursors = bounds[:-1]
        rng_q = np.random.default_rng(cfg.seed + 1)
        next_submit = rng_q.uniform(0.0, cfg.mean_query_interval_ms, cfg.tenants)
        n_ticks = int(round(cfg.duration_ms / cfg.tick_ms))
        ticks_per_scale = max(1, int(round(cfg.autoscale_interval_ms / cfg.tick_ms)))
        self._busy: list[float] = []
        self._tasks: list[asyncio.Task] = []
        workers = cfg.min_workers
        self._spawn_pool(workers, 0.0)
        tuples_since = 0
        queries_since = 0
        rr_offset = 0
        if self._divergence:
            self._profile_ckpts = [profile_state(s.profile) for s in self.shards]
        try:
            for tick in range(n_ticks):
                tick_end = (tick + 1) * cfg.tick_ms
                if self._divergence:
                    self._maybe_poison(tick_end)
                # 1. Ingest: this tick's arrivals, fanned out by key shard.
                for shard_id in range(cfg.n_shards):
                    lo = cursors[shard_id]
                    hi = lo + int(
                        arrival[lo : bounds[shard_id + 1]].searchsorted(tick_end)
                    )
                    if hi > lo:
                        cols = tuple(col[lo:hi] for col in trace_cols)
                        await self._queues[shard_id % len(self._queues)].put(
                            ("ingest", shard_id, cols, tick_end)
                        )
                        tuples_since += hi - lo
                        cursors[shard_id] = hi
                # 2. Queries: admission gate -> bounded tenant queue.
                for query in self._due_queries(next_submit, rng_q, tick_end):
                    self.queries_submitted += 1
                    self.tenant_submitted[query.tenant] += 1
                    obs.counter("serve.queries.submitted").inc()
                    admitted = self.admission.admit(query.tenant, query.submit_ms)
                    self.telemetry.on_admission(
                        query.tenant, query.submit_ms, admitted
                    )
                    if not admitted:
                        continue
                    tq = self.tenant_queues[query.tenant]
                    if len(tq) >= cfg.tenant_queue_cap:
                        self.shed_queue += 1
                        obs.counter("serve.queries.shed_queue").inc()
                        self.telemetry.on_queue_shed(query.tenant, query.submit_ms)
                        continue
                    tq.append(query)
                # 3. Round-robin drain across tenants (rotating start).
                queries_since += await self._drain_tenants(rr_offset)
                rr_offset = (rr_offset + 1) % cfg.tenants
                # 4. Boundaries: barrier, then migrate and/or rescale.
                at_scale_boundary = (tick + 1) % ticks_per_scale == 0
                migrate_due = (
                    cfg.migrate_at_ms is not None
                    and not self._migrated
                    and tick_end >= cfg.migrate_at_ms
                )
                if at_scale_boundary or migrate_due:
                    await self._barrier()
                    if self._divergence:
                        self._repair_profiles(tick_end)
                if migrate_due:
                    self._migrate(tick_end)
                    self._migrated = True
                if at_scale_boundary:
                    new = self.autoscaler.observe(
                        tuples_since,
                        queries_since,
                        workers,
                        ticks_per_scale * cfg.tick_ms,
                    )
                    tuples_since = 0
                    queries_since = 0
                    if new != workers:
                        trace.instant(
                            "serve.rescale",
                            tick_end,
                            cat="serve",
                            args={"from": workers, "to": new},
                        )
                        self.telemetry.on_rescale(tick_end, workers, new)
                        await self._stop_pool()
                        self._spawn_pool(new, tick_end)
                        workers = new
                if tel.enabled and tick_end >= tel.next_due_ms:
                    tel.on_tick(tick_end)
            # Final drain: leftover tenant-queue backlog is completed, so
            # admitted work is always accounted (completed or shed).
            await self._drain_tenants(rr_offset)
            await self._barrier()
            self.telemetry.finalize(cfg.duration_ms)
        finally:
            await self._stop_pool()
        return self._report()

    async def _drain_tenants(self, offset: int) -> int:
        """Dispatch queued tenant queries round-robin; returns the count.

        Starts at ``offset`` and pops one query per tenant per round so
        a backlogged tenant cannot monopolise the worker queues ahead
        of others.
        """
        cfg = self.config
        dispatched = 0
        pending = True
        while pending:
            pending = False
            for i in range(cfg.tenants):
                tq = self.tenant_queues[(offset + i) % cfg.tenants]
                if tq:
                    query = tq.popleft()
                    await self._queues[query.shard % len(self._queues)].put(
                        ("query", query)
                    )
                    dispatched += 1
                    pending = pending or bool(tq)
        return dispatched

    # -- telemetry export --------------------------------------------------

    def telemetry_snapshot(self) -> dict[str, Any]:
        """The run's JSON telemetry endpoint.

        Bundles the scoped registry snapshot with the ring time series,
        the per-class SLO budget table, the alert transition history and
        the audit-log size — everything an operator dashboard would
        poll, deterministic for a given config and plan.
        """
        metrics = (
            self._registry.snapshot()
            if self._registry is not None
            else {"schema_version": obs.SNAPSHOT_SCHEMA_VERSION}
        )
        return {
            "schema_version": obs.SNAPSHOT_SCHEMA_VERSION,
            "metrics": metrics,
            **self.telemetry.snapshot(),
        }

    def openmetrics(self) -> str:
        """The run's registry as OpenMetrics text (``# EOF``-terminated).

        Rendered from the run's scoped registry, sorted and canonically
        formatted, so serial and ``--workers 2`` benches of the same
        cell expose identical bytes.
        """
        snapshot = self._registry.snapshot() if self._registry is not None else {}
        return render_openmetrics(snapshot)

    def _report(self) -> dict[str, Any]:
        """Assemble the run's summary dict (deterministic, JSON-ready)."""
        cfg = self.config
        lat = np.asarray(self.latencies) if self.latencies else np.zeros(1)
        active = self.tenant_submitted > 0
        completed_active = self.tenant_completed[active]
        return {
            "tenants": cfg.tenants,
            "events": self.events_dispatched,
            "queries_submitted": self.queries_submitted,
            "queries_admitted": self.admission.admitted,
            "queries_rejected": self.admission.rejected,
            "queries_completed": self.queries_completed,
            "shed_queue": self.shed_queue,
            "shed_starved": self.shed_starved,
            "fallback_answers": self.fallback_answers,
            "widened_answers": self.widened_answers,
            "migrations": self.migrations,
            "qps": round(self.queries_completed / (cfg.duration_ms / 1000.0), 6),
            "p50_ms": round(float(np.percentile(lat, 50)), 6),
            "p95_ms": round(float(np.percentile(lat, 95)), 6),
            "p99_ms": round(float(np.percentile(lat, 99)), 6),
            "peak_workers": self.peak_workers,
            "scale_ups": self.autoscaler.scale_ups,
            "scale_downs": self.autoscaler.scale_downs,
            "fairness_min_completed": int(completed_active.min())
            if len(completed_active)
            else 0,
            "fairness_max_completed": int(completed_active.max())
            if len(completed_active)
            else 0,
        }


def run_service(config: ServeConfig, plan: FaultPlan | None = None) -> dict[str, Any]:
    """Run a :class:`JoinService` to completion on a private event loop.

    Returns the run report: tenant/query/shed accounting, virtual-time
    latency percentiles (``p50_ms``/``p95_ms``/``p99_ms``), throughput
    (``qps``), autoscaler activity (``peak_workers``, ``scale_ups``,
    ``scale_downs``) and fairness extremes of per-tenant completions.
    """
    return asyncio.run(JoinService(config, plan).run())
