"""The benchmark's four workloads.

Each workload builds its inputs from a seed (``setup``), runs the program
once on fresh state (``timed``) and scores the outputs (``evaluate``).  The
program is reached only through its public entry points:

* ``q1_standalone`` — paper Q1 through ``run_operator(PECJoin)``;
* ``zipf_partitioned`` — skewed micro keys through
  ``run_operator(PartitionedPECJoin)``;
* ``push_streaming`` — the Q1 stream pushed tuple by tuple into
  ``StreamingPECJ``;
* ``serve_mixed`` — a multi-tenant ``JoinService`` run.

``probes`` returns the patches that let the benchmark observe answers (and,
when a tracer is given, record spans around each layer's public calls).
"""

from __future__ import annotations

import asyncio
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.bench.workloads import q1_spec
from repro.core.pecj import PECJoin
from repro.joins import runner as runner_module
from repro.joins.arrays import AggKind, BatchArrays
from repro.joins.partitioned import PartitionedPECJoin
from repro.joins.runner import run_operator
from repro.metrics.error import bounded_window_error
from repro.metrics.latency import p95
from repro.serve.service import JoinService, ServeConfig
from repro.serve.shards import ShardStore
from repro.serve.telemetry import ServeTelemetry
from repro.streaming.operators import StreamingPECJ
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_arrays
from repro.streams.tuples import Side, StreamTuple
from tracing import maybe_span

WINDOW_MS = 10.0
OMEGA_MS = 10.0
#: Leading stretch every batch and push workload excludes from scoring
#: (estimator warm-up), at scale 1.
WARMUP_MS = 500.0


@dataclass
class Evaluation:
    """Scored outputs of one repetition.

    ``deterministic`` holds every value that must repeat exactly across
    repetitions of one seed, traced or not.
    """

    #: Answers the workload asked for (windows, or submitted queries).
    attempted: int
    #: Answers produced that passed the output checks.
    answered: int
    #: Answers missing or produced but failing a check.  Queries that the
    #: service refused or shed by design are unanswered, not failed.
    failed: int
    problems: list[str]
    error_mean: float
    vlatency_p95_ms: float
    vlatency_samples: int
    answer_ms: list[float] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    @property
    def deterministic(self) -> dict:
        return {
            "attempted": self.attempted,
            "answered": self.answered,
            "failed": self.failed,
            "error_mean": self.error_mean,
            "vlatency_p95_ms": self.vlatency_p95_ms,
            "vlatency_samples": self.vlatency_samples,
            "counts": self.counts,
            "digest": self.digest,
        }


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.hexdigest()[:16]


class BatchWorkload:
    """A standalone operator over a columnar batch, via ``run_operator``."""

    setup_repeats = 1

    def __init__(self, scale: float, partitioned: bool):
        self.duration_ms = 3000.0 * scale
        self.warmup_ms = WARMUP_MS * scale
        self.partitioned = partitioned

    def _inputs(self, seed: int) -> BatchArrays:
        if self.partitioned:
            dataset = make_dataset("micro", num_keys=4096, key_skew=1.4)
            return make_disordered_arrays(
                dataset, UniformDelay(6.0), self.duration_ms, 100.0, 100.0, seed
            )
        spec = q1_spec(duration_ms=self.duration_ms, seed=seed)
        return make_disordered_arrays(
            spec.dataset, spec.delay, spec.duration_ms, spec.rate_r, spec.rate_s, spec.seed
        )

    def setup(self, seed: int, tracer):
        with maybe_span(tracer, "streams.generate"):
            return self._inputs(seed)

    def input_tuples(self, arrays: BatchArrays) -> int:
        return len(arrays)

    def probes(self, tracer, sink: list):
        """Class-level patches: the answer timer, plus spans when traced."""
        outer = PartitionedPECJoin if self.partitioned else PECJoin

        def timed_answer(fn):
            def process_window(*args, **kwargs):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                sink.append((perf_counter() - t0) * 1e3)
                return out

            return process_window

        if tracer is not None:
            targets = [
                (runner_module, "apply_pipeline_costs",
                 lambda f: tracer.wrap("joins.pipeline_costs", f)),
                (PECJoin, "process_window", lambda f: tracer.wrap("core.process_window", f)),
            ]
            if self.partitioned:
                targets.append(
                    (PartitionedPECJoin, "process_window",
                     lambda f: tracer.wrap("partitioned.process_window", f))
                )
            return targets
        return [(outer, "process_window", timed_answer)]

    def timed(self, arrays: BatchArrays, tracer):
        op = PartitionedPECJoin(AggKind.COUNT) if self.partitioned else PECJoin(AggKind.COUNT)
        with maybe_span(tracer, "joins.run_operator"):
            result = run_operator(
                op,
                arrays,
                WINDOW_MS,
                OMEGA_MS,
                t_start=WINDOW_MS,
                t_end=self.duration_ms - WINDOW_MS,
                warmup_windows=round(self.warmup_ms / WINDOW_MS),
            )
        return op, result

    def evaluate(self, arrays: BatchArrays, outputs, answer_ms: list[float]) -> Evaluation:
        op, result = outputs
        # Grid windows between t_start = |W| and t_end = duration - |W|.
        expected_windows = math.floor((self.duration_ms - 2 * WINDOW_MS) / WINDOW_MS)
        records = result.warmup_records + result.records
        problems = []
        if len(records) != expected_windows:
            problems.append(f"{len(records)} answers for {expected_windows} windows")
        finite = [
            r for r in records
            if math.isfinite(r.value) and math.isfinite(r.expected) and math.isfinite(r.error)
        ]
        if len(finite) != len(records):
            problems.append(f"{len(records) - len(finite)} non-finite answers")
        counts = {"joins.windows": float(len(records))}
        if self.partitioned:
            summary = op.partition_summary()
            counts.update(
                {
                    "partitioned.hot_keys": summary["partition_hot_keys"],
                    "partitioned.promotions": summary["partition_promotions"],
                    "partitioned.demotions": summary["partition_demotions"],
                    "partitioned.hot_hit_rate": summary["partition_hot_hit_rate"],
                }
            )
        return Evaluation(
            attempted=expected_windows,
            answered=min(len(finite), expected_windows),
            failed=expected_windows - min(len(finite), expected_windows),
            problems=problems,
            error_mean=result.mean_error,
            vlatency_p95_ms=result.p95_latency,
            vlatency_samples=result.latency.count,
            answer_ms=answer_ms,
            counts=counts,
            digest=_digest([r.value for r in records], [r.emit_time for r in records]),
        )


@dataclass
class PushInputs:
    arrays: BatchArrays
    tuples: list[StreamTuple]


class PushWorkload:
    """The Q1 stream pushed one tuple at a time into ``StreamingPECJ``."""

    setup_repeats = 1

    def __init__(self, scale: float):
        self.duration_ms = 3000.0 * scale
        self.warmup_ms = WARMUP_MS * scale

    def setup(self, seed: int, tracer) -> PushInputs:
        spec = q1_spec(duration_ms=self.duration_ms, seed=seed)
        with maybe_span(tracer, "streams.generate"):
            arrays = make_disordered_arrays(
                spec.dataset, spec.delay, spec.duration_ms, spec.rate_r, spec.rate_s, spec.seed
            )
        with maybe_span(tracer, "streams.tuples"):
            order = arrays.arrival_order()
            sides = [Side.R if r else Side.S for r in arrays.is_r[order].tolist()]
            tuples = list(
                map(
                    StreamTuple,
                    arrays.key[order].tolist(),
                    arrays.payload[order].tolist(),
                    arrays.event[order].tolist(),
                    arrays.arrival[order].tolist(),
                    sides,
                )
            )
        return PushInputs(arrays, tuples)

    def input_tuples(self, inputs: PushInputs) -> int:
        return len(inputs.tuples)

    def probes(self, tracer, sink: list):
        if tracer is None:
            return []
        return [(StreamingPECJ, "finish", lambda f: tracer.wrap("streaming.finish", f))]

    def timed(self, inputs: PushInputs, tracer):
        op = StreamingPECJ(WINDOW_MS, OMEGA_MS)
        push = op.push
        emissions = []
        # Wall time of each push that emitted, once per emitted window.
        answer_s = []
        # Window states held right after each emitting push.
        live_max = 0
        # Untraced, only emitting pushes are timed to the end; traced, every
        # push's duration is folded into the tracer.
        if tracer is None:
            for t in inputs.tuples:
                t0 = perf_counter()
                out = push(t)
                if out:
                    dt = perf_counter() - t0
                    emissions.extend(out)
                    answer_s.extend([dt] * len(out))
                    live_max = max(live_max, op.live_windows)
        else:
            record = tracer.fold("streaming.push").append
            for t in inputs.tuples:
                t0 = perf_counter()
                out = push(t)
                dt = perf_counter() - t0
                record(dt)
                if out:
                    emissions.extend(out)
                    answer_s.extend([dt] * len(out))
                    live_max = max(live_max, op.live_windows)
        t0 = perf_counter()
        out = op.finish()
        dt = perf_counter() - t0
        emissions.extend(out)
        answer_s.extend([dt] * len(out))
        return op, emissions, answer_s, live_max

    def evaluate(self, inputs: PushInputs, outputs, answer_ms: list[float]) -> Evaluation:
        op, emissions, answer_s, live_max = outputs
        event = inputs.arrays.event
        arrival = inputs.arrays.arrival
        widx = np.floor(event / WINDOW_MS).astype(np.int64)
        first, last = int(widx.min()), int(widx.max())
        expected_windows = last - first + 1
        problems = []
        starts = np.array([e.window_start for e in emissions])
        want = (np.arange(first, last + 1) * WINDOW_MS)
        if len(emissions) != expected_windows or not np.array_equal(starts, want):
            problems.append(f"{len(emissions)} emissions for {expected_windows} windows")
        values = np.array([e.value for e in emissions])
        finite = int(np.isfinite(values).sum())
        if finite != len(values):
            problems.append(f"{len(values) - finite} non-finite answers")
        scored_starts = np.array([s.window_start for s in op.scored])
        if not np.array_equal(scored_starts, starts):
            problems.append(f"{len(op.scored)} of {len(emissions)} emissions scored")
        errors = np.array([s.error for s in op.scored if s.window_start >= self.warmup_ms])
        # Virtual latency: a tuple contributes to its window's emission when
        # it was pushed before the cutoff; it waits until that emission.
        emit_time = np.full(last - first + 1, np.nan)
        if len(emissions) == expected_windows:
            emit_time[:] = [e.emit_time for e in emissions]
        contributing = (arrival < widx * WINDOW_MS + OMEGA_MS) & (widx * WINDOW_MS >= self.warmup_ms)
        latency = emit_time[widx[contributing] - first] - arrival[contributing]
        return Evaluation(
            attempted=expected_windows,
            answered=min(finite, expected_windows),
            failed=expected_windows - min(finite, expected_windows),
            problems=problems,
            error_mean=float(errors.mean()) if len(errors) else math.nan,
            vlatency_p95_ms=p95(latency.tolist()),
            vlatency_samples=len(latency),
            answer_ms=[dt * 1e3 for dt in answer_s],
            counts={
                "streaming.emissions": float(len(emissions)),
                "streaming.scored": float(len(op.scored)),
                "streaming.live_windows_max": float(live_max),
            },
            digest=_digest(values, [e.emit_time for e in emissions],
                           [s.error for s in op.scored]),
        )


class ServeWorkload:
    """A multi-tenant ``JoinService`` run with telemetry on.

    The service generates its ingest trace inside ``JoinService.run``, so
    set-up is construction only; construction is repeated so the median is
    taken over many sub-millisecond timings.

    The exact answers are folded in while the service runs: each shard
    ingest adds its tuples to per-shard ``(window, side, key)`` counts, which
    is all a COUNT window join needs, so the benchmark holds no copy of the
    ingested columns.
    """

    setup_repeats = 41

    def __init__(self, scale: float):
        self.duration_ms = 6000.0 * scale

    def config(self, seed: int) -> ServeConfig:
        return ServeConfig(
            tenants=128,
            n_shards=4,
            agg="count",
            duration_ms=self.duration_ms,
            warmup_ms=min(500.0, 0.25 * self.duration_ms),
            rate_per_ms=40.0,
            mean_query_interval_ms=40.0,
            seed=seed,
        )

    def setup(self, seed: int, tracer) -> JoinService:
        with maybe_span(tracer, "serve.construct"):
            return JoinService(self.config(seed))

    def input_tuples(self, service: JoinService) -> int:
        # Known only after the run: the service generates its own trace.
        return service.events_dispatched

    def probes(self, tracer, sink: list):
        """Tally every shard ingest, record every shard answer and its
        outcome; when traced, spans around the calls (innermost, so the
        benchmark's tallying is its own ``bench.tally`` span, not the
        layer's time)."""
        cfg = self.config(0)
        n_windows = math.ceil(cfg.duration_ms / cfg.window_ms)
        self.window_ms, self.num_keys = cfg.window_ms, cfg.num_keys
        #: shard id -> tuple counts, flat over (window, side, key).
        self.tallies: dict[int, np.ndarray] = {}
        self.ingest_calls = 0
        self.ingested_tuples = 0
        self.off_grid = 0
        #: (shard id, window start, value, observed) per query.
        self.answers: list[tuple[int, float, float, float]] = []
        #: (shed, fallback) per query, as the service reported it.
        self.outcomes: list[tuple[bool, bool]] = []
        answers, outcomes, tallies = self.answers, self.outcomes, self.tallies
        window_ms, num_keys = self.window_ms, self.num_keys

        def tallying_ingest(fn):
            def ingest(shard, event, arrival, key, payload, is_r):
                fn(shard, event, arrival, key, payload, is_r)
                with maybe_span(tracer, "bench.tally"):
                    self.ingest_calls += 1
                    self.ingested_tuples += len(event)
                    counts = tallies.get(shard.shard_id)
                    if counts is None:
                        counts = tallies[shard.shard_id] = np.zeros(n_windows * 2 * num_keys)
                    w = np.floor_divide(event, window_ms).astype(np.int64)
                    on_grid = (w >= 0) & (w < n_windows)
                    self.off_grid += len(w) - int(on_grid.sum())
                    flat = (w * 2 + np.asarray(is_r, dtype=np.int64)) * num_keys + key
                    np.add.at(counts, flat[on_grid], 1.0)

            return ingest

        def recording_query(fn):
            def query(shard, start, end, available_by, compensate_output=True):
                t0 = perf_counter()
                answer = fn(shard, start, end, available_by, compensate_output)
                sink.append((perf_counter() - t0) * 1e3)
                answers.append((shard.shard_id, start, answer.value, answer.observed))
                return answer

            return query

        def recording_outcome(fn):
            def on_query(tel, tenant, shard, ts, latency_ms, value, completeness,
                         shed, fallback, warm):
                fn(tel, tenant, shard, ts, latency_ms, value, completeness, shed, fallback, warm)
                outcomes.append((shed, fallback))

            return on_query

        targets = []
        if tracer is not None:
            targets += [
                (ShardStore, "ingest", lambda f: tracer.wrap("serve.shard_ingest", f)),
                (ShardStore, "query", lambda f: tracer.wrap("serve.shard_query", f)),
            ]
            targets += [
                (ServeTelemetry, attr, lambda f: tracer.wrap("obs.telemetry", f))
                for attr in sorted(vars(ServeTelemetry))
                if attr.startswith("on_") or attr == "finalize"
            ]
        targets += [
            (ShardStore, "ingest", tallying_ingest),
            (ShardStore, "query", recording_query),
            (ServeTelemetry, "on_query", recording_outcome),
        ]
        return targets

    def timed(self, service: JoinService, tracer):
        with maybe_span(tracer, "serve.run"):
            return asyncio.run(service.run())

    def evaluate(self, service: JoinService, report, answer_ms: list[float]) -> Evaluation:
        problems = []
        submitted = report["queries_submitted"]
        admitted = report["queries_admitted"]
        completed = report["queries_completed"]
        if submitted != admitted + report["queries_rejected"]:
            problems.append("submitted != admitted + rejected")
        if admitted != completed + report["shed_queue"]:
            problems.append("admitted != completed + shed_queue")
        if len(self.answers) != completed or len(self.outcomes) != completed:
            problems.append(
                f"{len(self.answers)} shard answers and {len(self.outcomes)} outcomes "
                f"for {completed} completed queries"
            )
        shed_starved = sum(shed for shed, _ in self.outcomes)
        if shed_starved != report["shed_starved"]:
            problems.append(f"{shed_starved} starved sheds seen, report says {report['shed_starved']}")
        if self.ingested_tuples != report["events"]:
            problems.append(f"{self.ingested_tuples} tuples ingested, report says {report['events']}")
        if self.off_grid:
            problems.append(f"{self.off_grid} ingested tuples outside the window grid")
        # The exact COUNT of each queried window, from every tuple that
        # entered the shard during the run: sum over keys of |R_k| * |S_k|.
        grids = {
            sid: counts.reshape(-1, 2, self.num_keys) for sid, counts in self.tallies.items()
        }
        empty = np.zeros((2, self.num_keys))
        errors = []
        delivered = []
        answered = failed = 0
        warmup = service.config.warmup_ms
        for (shard_id, start, value, observed), (shed, fallback) in zip(
            self.answers, self.outcomes
        ):
            if shed:
                # Shed starved windows are unanswered; the service serves
                # the observed value as a placeholder.
                continue
            value = observed if fallback else value
            delivered.append(value)
            if not math.isfinite(value):
                failed += 1
                continue
            answered += 1
            if start < warmup:
                continue
            grid = grids.get(shard_id)
            w = int(round(start / self.window_ms))
            c_r, c_s = grid[w] if grid is not None and w < len(grid) else empty
            errors.append(bounded_window_error(value, float(c_r @ c_s)))
        if failed:
            problems.append(f"{failed} non-finite answers")
        return Evaluation(
            attempted=submitted,
            answered=answered,
            failed=failed,
            problems=problems,
            error_mean=float(np.mean(errors)) if errors else math.nan,
            vlatency_p95_ms=report["p95_ms"],
            vlatency_samples=len(service.latencies),
            answer_ms=answer_ms,
            counts={
                "serve.shard_ingest_calls": float(self.ingest_calls),
                "serve.shard_ingest_tuples": float(self.ingested_tuples),
                "serve.shard_query_calls": float(len(self.answers)),
                "serve.admission_rejected": float(report["queries_rejected"]),
                "serve.shed": float(report["shed_queue"] + report["shed_starved"]),
                "serve.peak_workers": float(report["peak_workers"]),
            },
            digest=_digest(delivered, [float(v) for _, v in sorted(report.items())]),
        )


FACTORIES = {
    "q1_standalone": lambda scale: BatchWorkload(scale, partitioned=False),
    "zipf_partitioned": lambda scale: BatchWorkload(scale, partitioned=True),
    "push_streaming": PushWorkload,
    "serve_mixed": ServeWorkload,
}
