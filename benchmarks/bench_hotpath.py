"""Hot-path microbenchmark: aggregation, ingest and executor paths.

Each section pairs a slow reference path with its optimised
replacement and asserts equivalence before timing:

* **hotpath** — per-window rescan (``BatchArrays.aggregate``, which
  rebuilds per-key count tables for every query) vs the incremental
  :class:`repro.joins.aggregator.WindowAggregator` (O(log |window|)
  prefix lookups), replaying exactly the query pattern of one runner
  sweep.
* **ingest** — object-path stream generation (per-tuple ``StreamTuple``
  allocation through ``make_disordered_pair`` + ``from_batch``) vs the
  zero-object columnar ``make_disordered_arrays``; columns are asserted
  identical first.
* **estimator** — PECJ's per-bucket reference estimator loop
  (``tests/oracles/pecj_loop.py``) vs the fused multi-bucket numpy path, on a
  bucket grid dense enough (20 buckets/window) that the estimator loop
  dominates; window records are asserted byte-identical first.  Gated
  single-core at >= 1.3x in full mode.
* **skew** — ``PartitionedPECJoin`` in its per-key configuration (every
  key whose share reaches 1e-4 takes a partition) vs the default
  operator's capped hot set, on a Zipf-1.4 stream over a wide key
  domain; uniform-key bit-identity with PECJ and the hot + cold
  accounting identity are asserted first.  Gated >= 1.3x in full mode.
* **executor** — a serial fig6 smoke sweep vs the same sweep sharded
  across shared-memory worker processes; row tables are asserted
  byte-identical.  Wall-clock speedup is gated whenever the machine has
  >= 2 CPUs: break-even (1x) at 2 workers on 2 CPUs, 1.8x at the
  requested worker count on >= 4 CPUs (recorded in artifact metadata).
* **serve_hotpath** — the serving shard's ingest-to-answer loop at
  growing retention: :class:`repro.bench.serve_bench.FullRebuildShard`
  (re-sort + re-aggregate per touched tick) vs the incremental
  delta-grid :class:`repro.serve.shards.ShardStore`, same
  deterministic tick stream, COUNT answers asserted bit-identical
  first.  Gated >= 3x at the largest retention point in full mode —
  the gap that must widen with retention is the whole point of the
  incremental state.
* **serve_telemetry** — one full :class:`repro.serve.service.JoinService`
  run with live telemetry (sampler + SLO tracker + audit log) enabled
  vs disabled; the run reports are asserted identical first (telemetry
  must not perturb behaviour).  The overhead ratio is gated <= 1.03 in
  full mode.

Every section times interleaved pairs (:func:`interleaved_pairs`,
alternating which side runs first), reports each side's median seconds
and gates on the median of the per-pair ratios, with the ratios' IQR
beside it; a JSON artifact is written for tracking (see DESIGN.md for
how to read it).

Usage::

    python benchmarks/bench_hotpath.py           # full workloads
    python benchmarks/bench_hotpath.py --smoke   # seconds-fast CI variant
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))
# The repository root, for the test-only reference implementations.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import numpy as np  # noqa: E402

from repro import obs  # noqa: E402
from repro.bench.experiments import fig6_end_to_end  # noqa: E402
from repro.bench.serve_bench import (  # noqa: E402
    _HOTPATH_TICK_MS,
    FullRebuildShard,
    hotpath_drive,
    hotpath_tick_stream,
)
from repro.core.pecj import PECJoin  # noqa: E402
from repro.faults.plan import serve_load_plan  # noqa: E402
from repro.joins.aggregator import WindowAggregator  # noqa: E402
from repro.joins.arrays import AggKind, BatchArrays  # noqa: E402
from repro.joins.baselines import WatermarkJoin  # noqa: E402
from repro.joins.runner import run_operator  # noqa: E402
from repro.serve.admission import TenantQuota  # noqa: E402
from repro.serve.service import JoinService, ServeConfig  # noqa: E402
from repro.serve.shards import ShardStore  # noqa: E402
from repro.serve.telemetry import TelemetryConfig  # noqa: E402
from repro.streams.datasets import make_dataset  # noqa: E402
from repro.streams.disorder import UniformDelay  # noqa: E402
from repro.streams.sources import (  # noqa: E402
    make_disordered_arrays,
    make_disordered_pair,
)
from tests.oracles.pecj_loop import PerBucketPECJoin  # noqa: E402

#: (label, duration_ms, num_keys, window_length_ms).  2x50 tuples/ms, so
#: 1000 ms ~= 100K tuples.  The last workload is the acceptance headline:
#: a 100K-tuple batch, 500 windows, and a key domain wide enough that the
#: rescan's per-query count-table rebuild dominates.
FULL_WORKLOADS = [
    ("100k_200w_20k-keys", 1000.0, 20_000, 5.0),
    ("100k_500w_50k-keys", 1000.0, 50_000, 2.0),
]
SMOKE_WORKLOADS = [("smoke_10k_100w", 100.0, 2_000, 1.0)]


def build_arrays(duration_ms: float, num_keys: int):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=num_keys),
        UniformDelay(5.0),
        duration_ms=duration_ms,
        rate_r=50.0,
        rate_s=50.0,
        seed=3,
    )


def window_starts(duration_ms: float, length: float) -> np.ndarray:
    return np.arange(0.0, duration_ms - length + 1e-9, length)


def rescan_pass(arrays, starts, length):
    out = []
    for s in starts:
        out.append(arrays.aggregate(s, s + length, None))
        out.append(arrays.aggregate(s, s + length, s + length + 2.0))
    return out


def incremental_pass(arrays, starts, length):
    agg = WindowAggregator(arrays, length)
    out = []
    for s in starts:
        out.append(agg.at(s, s + length, None))
        out.append(agg.at(s, s + length, s + length + 2.0))
    return out


def interleaved_pairs(slow, fast, pairs: int) -> tuple[float, float, float, float]:
    """Time ``pairs`` adjacent runs of ``slow`` and ``fast``.

    Both halves of a pair see the same machine load, and the side that
    runs first alternates, so load from anything sharing the CPUs moves
    single pairs rather than the verdict.  Returns the median seconds of
    each side, the median of the per-pair ``slow / fast`` ratios and the
    ratios' interquartile range.
    """
    slow_s, fast_s = [], []
    for i in range(pairs):
        for is_slow in (i % 2 == 1, i % 2 == 0):
            t0 = time.perf_counter()
            (slow if is_slow else fast)()
            (slow_s if is_slow else fast_s).append(time.perf_counter() - t0)
    ratios = [a / b for a, b in zip(slow_s, fast_s)]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return statistics.median(slow_s), statistics.median(fast_s), statistics.median(ratios), q3 - q1


def run_workload(label, duration_ms, num_keys, length, pairs):
    arrays = build_arrays(duration_ms, num_keys)
    starts = window_starts(duration_ms, length)
    n = len(arrays.event)
    arrays.completion_order()  # warm the shared batch-level cache

    old = rescan_pass(arrays, starts, length)
    new = incremental_pass(arrays, starts, length)
    for a, b in zip(old, new):
        assert a.n_r == b.n_r and a.n_s == b.n_s and a.matches == b.matches, (
            f"{label}: incremental path diverged from rescan: {a} vs {b}"
        )
        assert abs(a.sum_r - b.sum_r) <= 1e-9 * max(1.0, abs(a.sum_r))

    t_rescan, t_incr, speedup, iqr = interleaved_pairs(
        lambda: rescan_pass(arrays, starts, length),
        lambda: incremental_pass(arrays, starts, length),
        pairs,
    )
    row = {
        "workload": label,
        "tuples": n,
        "windows": len(starts),
        "num_keys": num_keys,
        "window_length_ms": length,
        "queries": 2 * len(starts),
        "pairs": pairs,
        "rescan": {"seconds": t_rescan, "tuples_per_s": n / t_rescan},
        "incremental": {"seconds": t_incr, "tuples_per_s": n / t_incr},
        "speedup": speedup,
        "speedup_iqr": iqr,
    }
    print(
        f"{label}: n={n} windows={len(starts)} num_keys={num_keys} | "
        f"rescan {t_rescan * 1e3:.2f} ms ({n / t_rescan / 1e6:.2f} Mtuples/s) | "
        f"incremental {t_incr * 1e3:.2f} ms ({n / t_incr / 1e6:.2f} Mtuples/s) | "
        f"speedup {speedup:.2f}x (median of {pairs} pairs, IQR {iqr:.2f})"
    )
    return row


def ingest_workload(label, duration_ms, num_keys, pairs):
    """Object-path vs columnar stream generation, same seed and columns."""

    def object_path():
        merged, _, _ = make_disordered_pair(
            make_dataset("micro", num_keys=num_keys),
            UniformDelay(5.0),
            duration_ms,
            50.0,
            50.0,
            seed=3,
        )
        return BatchArrays.from_batch(merged)

    def columnar_path():
        return build_arrays(duration_ms, num_keys)

    a = object_path()
    b = columnar_path()
    for col in ("event", "arrival", "key", "payload", "is_r"):
        assert np.array_equal(getattr(a, col), getattr(b, col)), (
            f"{label}: columnar ingest diverged from object path on '{col}'"
        )

    n = len(a.event)
    t_obj, t_col, speedup, iqr = interleaved_pairs(object_path, columnar_path, pairs)
    row = {
        "workload": label,
        "tuples": n,
        "num_keys": num_keys,
        "pairs": pairs,
        "object": {"seconds": t_obj, "tuples_per_s": n / t_obj},
        "columnar": {"seconds": t_col, "tuples_per_s": n / t_col},
        "speedup": speedup,
        "speedup_iqr": iqr,
    }
    print(
        f"ingest/{label}: n={n} | object {t_obj * 1e3:.2f} ms "
        f"({n / t_obj / 1e6:.2f} Mtuples/s) | columnar {t_col * 1e3:.2f} ms "
        f"({n / t_col / 1e6:.2f} Mtuples/s) | speedup {speedup:.2f}x "
        f"(median of {pairs} pairs, IQR {iqr:.2f})"
    )
    return row


def estimator_workload(duration_ms, num_keys, pairs):
    """Fused multi-bucket estimator path vs the per-bucket reference.

    Runs the full PECJ operator both ways over one disordered batch with
    a 20-buckets-per-window grid (the configuration where the estimator
    loop, not the join, dominates) and requires byte-identical window
    records before timing.
    """
    arrays = build_arrays(duration_ms, num_keys)
    length, omega = 10.0, 10.0
    t_start, t_end = 50.0, duration_ms - 50.0

    def sweep(cls):
        res = run_operator(
            cls(buckets_per_window=20),
            arrays,
            length,
            omega,
            t_start=t_start,
            t_end=t_end,
            warmup_windows=5,
        )
        return json.dumps(
            [
                [r.window.start, float(r.value), float(r.error), float(r.emit_time)]
                for r in res.records
            ]
        )

    assert sweep(PECJoin) == sweep(PerBucketPECJoin), (
        "estimator: fused path diverged from per-bucket reference"
    )
    t_ref, t_fused, speedup, iqr = interleaved_pairs(
        lambda: sweep(PerBucketPECJoin), lambda: sweep(PECJoin), pairs
    )
    n = len(arrays.event)
    row = {
        "workload": f"pecj_20bpw_{int(duration_ms)}ms",
        "tuples": n,
        "buckets_per_window": 20,
        "records_identical": True,
        "pairs": pairs,
        "reference": {"seconds": t_ref, "tuples_per_s": n / t_ref},
        "fused": {"seconds": t_fused, "tuples_per_s": n / t_fused},
        "speedup": speedup,
        "speedup_iqr": iqr,
    }
    print(
        f"estimator/pecj: n={n} | reference {t_ref * 1e3:.2f} ms | "
        f"fused {t_fused * 1e3:.2f} ms | speedup {speedup:.2f}x "
        f"(median of {pairs} pairs, IQR {iqr:.2f})"
    )
    return row


def skew_workload(num_keys, pairs, smoke):
    """Default hot-key partitions vs every key promotable, at scale.

    Over a Zipf-1.4 stream on a wide key domain, the per-key
    configuration of ``PartitionedPECJoin`` (``max_hot`` and
    ``sketch_capacity`` at ``num_keys``, ``enter_share=1e-4``,
    ``boost=0.0``) gives every key whose share reaches 1e-4 its own
    partition, while the default operator keeps at most 8 hot partitions
    plus one cold aggregate — the wall-clock gap is what confining
    per-key state to the keys that pay saves.  Before timing, correctness
    asserts: at skew 0 the default operator must emit the plain PECJ
    values bit-for-bit; at skew 1.4 the hot accounting identity (hot +
    cold == total, per side) must hold on every hot window of both
    configurations, and the per-key one must promote more keys.  The
    speedup is the median, over ``pairs`` interleaved per-key/default
    runs (alternating which goes first), of each pair's time ratio, with
    the ratios' interquartile range.
    """
    from repro.joins.partitioned import PartitionedPECJoin

    duration = 300.0 if smoke else 1000.0
    t_start, t_end = 50.0, duration - 50.0
    length, omega = 10.0, 10.0

    uniform = make_disordered_arrays(
        make_dataset("micro", num_keys=256), UniformDelay(5.0),
        duration_ms=duration, rate_r=50.0, rate_s=50.0, seed=9,
    )
    base = run_operator(
        PECJoin(), uniform, length, omega,
        t_start=t_start, t_end=t_end, warmup_windows=10,
    )
    part_uniform = run_operator(
        PartitionedPECJoin(), uniform, length, omega,
        t_start=t_start, t_end=t_end, warmup_windows=10,
    )
    assert [r.value for r in part_uniform.records] == [
        r.value for r in base.records
    ], "skew: partitioned operator diverged from PECJ on uniform keys"

    skewed = make_disordered_arrays(
        make_dataset("micro", num_keys=num_keys, key_skew=1.4),
        UniformDelay(5.0),
        duration_ms=duration, rate_r=50.0, rate_s=50.0, seed=9,
    )

    def partitioned_pass(**kwargs):
        op = PartitionedPECJoin(**kwargs)
        run_operator(
            op, skewed, length, omega,
            t_start=t_start, t_end=t_end, warmup_windows=10,
        )
        return op

    def per_key_pass():
        return partitioned_pass(
            max_hot=num_keys, sketch_capacity=num_keys,
            enter_share=1e-4, boost=0.0,
        )

    op, per_key_op = partitioned_pass(), per_key_pass()
    for which in (op, per_key_op):
        for _, hot_r, hot_s, cold_r, cold_s, total_r, total_s in which.accounting:
            assert hot_r + cold_r == total_r and hot_s + cold_s == total_s, (
                "skew: hot/cold accounting identity violated"
            )
    assert len(per_key_op.hot_state) > len(op.hot_state), (
        "skew: the per-key configuration promoted no more keys than the default"
    )

    t_per_key, t_part, speedup, iqr = interleaved_pairs(
        per_key_pass, partitioned_pass, pairs
    )
    n = len(skewed.event)
    row = {
        "workload": f"skew1.4_{num_keys}keys_{int(duration)}ms",
        "tuples": n,
        "num_keys": num_keys,
        "hot_keys": float(len(op.hot_state)),
        "per_key_hot_keys": float(len(per_key_op.hot_state)),
        "records_identical": True,
        "pairs": pairs,
        "per_key": {"seconds": t_per_key, "tuples_per_s": n / t_per_key},
        "partitioned": {"seconds": t_part, "tuples_per_s": n / t_part},
        "speedup": speedup,
        "speedup_iqr": iqr,
    }
    print(
        f"skew/partitioned: n={n} keys={num_keys} hot={len(op.hot_state)} "
        f"per-key hot={len(per_key_op.hot_state)} | per-key "
        f"{t_per_key * 1e3:.2f} ms | partitioned {t_part * 1e3:.2f} ms | "
        f"speedup {speedup:.2f}x (median of {pairs} pairs, IQR {iqr:.2f})"
    )
    return row


def executor_workload(scale, workers, pairs):
    """Serial vs sharded fig6 sweep; rows must be byte-identical.

    The speedup is the median, over ``pairs`` interleaved serial/sharded
    runs, of each pair's time ratio, with the ratios' interquartile range
    beside it; best-of-N minimums of each side taken apart failed the
    break-even gate whenever the CPUs were shared.
    """
    serial_rows = fig6_end_to_end(scale=scale)
    parallel_rows = fig6_end_to_end(scale=scale, workers=workers)
    assert json.dumps(serial_rows) == json.dumps(parallel_rows), (
        "executor: parallel fig6 rows diverged from serial"
    )

    t_serial, t_parallel, speedup, iqr = interleaved_pairs(
        lambda: fig6_end_to_end(scale=scale),
        lambda: fig6_end_to_end(scale=scale, workers=workers),
        pairs,
    )
    row = {
        "figure": "fig6",
        "scale": scale,
        "workers": workers,
        "cells": len(serial_rows),
        "rows_identical": True,
        "pairs": pairs,
        "serial": {"seconds": t_serial},
        "parallel": {"seconds": t_parallel},
        "speedup": speedup,
        "speedup_iqr": iqr,
    }
    print(
        f"executor/fig6 scale={scale}: serial {t_serial:.2f} s | "
        f"{workers} workers {t_parallel:.2f} s | speedup "
        f"{speedup:.2f}x (median of {pairs} pairs, IQR {iqr:.2f})"
    )
    return row


#: Retention points (ms) of the serve_hotpath section.  Per-tick arrival
#: volume is constant, so the full-rebuild cost grows with retention
#: while the incremental cost should not.
SERVE_FULL_RETENTIONS = (800.0, 3200.0, 12800.0)
SERVE_SMOKE_RETENTIONS = (400.0, 1600.0)


def serve_hotpath_workload(retention_ms, pairs):
    """Ingest-to-answer loop, full-rebuild vs incremental shard state.

    The stream spans 1.5x the retention so the largest points reach
    eviction steady state.  COUNT answers are all-integer, so the
    equivalence assert is bit-for-bit; the timed passes then run each
    mode over the identical pre-generated chunks.  The speedup is the
    median, over ``pairs`` interleaved full/incremental runs
    (alternating which goes first), of each pair's time ratio, with the
    ratios' interquartile range.
    """
    ticks = int(1.5 * retention_ms / _HOTPATH_TICK_MS)
    chunks = hotpath_tick_stream(ticks)
    n = sum(len(c[0]) for c in chunks)

    inc_shard, inc_answers = hotpath_drive(ShardStore, retention_ms, chunks)
    ref_shard, ref_answers = hotpath_drive(FullRebuildShard, retention_ms, chunks)
    assert inc_answers == ref_answers, (
        f"serve_hotpath retention={retention_ms}: incremental answers "
        "diverged from the full-rebuild reference"
    )
    assert inc_shard.evicted == ref_shard.evicted

    t_full, t_runs, speedup, iqr = interleaved_pairs(
        lambda: hotpath_drive(FullRebuildShard, retention_ms, chunks),
        lambda: hotpath_drive(ShardStore, retention_ms, chunks),
        pairs,
    )
    row = {
        "retention_ms": retention_ms,
        "ticks": ticks,
        "tuples": n,
        "queries": len(inc_answers),
        "live_at_end": len(inc_shard),
        "answers_identical": True,
        "pairs": pairs,
        "full": {"seconds": t_full, "tuples_per_s": n / t_full},
        "incremental": {"seconds": t_runs, "tuples_per_s": n / t_runs},
        "speedup": speedup,
        "speedup_iqr": iqr,
    }
    print(
        f"serve_hotpath/retention={retention_ms:g}ms: n={n} ticks={ticks} | "
        f"full {t_full * 1e3:.1f} ms | incremental {t_runs * 1e3:.1f} ms | "
        f"speedup {speedup:.2f}x (median of {pairs} pairs, IQR {iqr:.2f})"
    )
    return row


def serve_telemetry_workload(duration_ms, intensity, repeats):
    """Full service run with live telemetry enabled vs disabled.

    Telemetry (registry sampling, SLO burn-rate tracking, audit log) must
    never change what the service *does*: the deterministic run reports
    are asserted identical before timing.  The enabled/disabled wall
    ratio is the overhead the ``slo`` figure pays on top of ``serve``.
    """

    def run(enabled):
        config = ServeConfig(
            tenants=24,
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
            telemetry=TelemetryConfig(enabled=enabled),
        )
        plan = serve_load_plan(intensity, 0.0, duration_ms, seed=7)
        service = JoinService(config, plan if plan else None)
        report = asyncio.run(service.run())
        return service, report

    service_on, report_on = run(True)
    _, report_off = run(False)
    assert json.dumps(report_on, sort_keys=True) == json.dumps(
        report_off, sort_keys=True
    ), "serve_telemetry: enabling telemetry changed the run report"

    # The ratio under test is ~1% while run-to-run machine noise can be
    # 10%+, so neither best-of nor averaging either side independently
    # can resolve it; the median of many short adjacent off/on pairs
    # sheds load spikes that land inside a single run.
    t_on, t_off, overhead, iqr = interleaved_pairs(
        lambda: run(True), lambda: run(False), repeats
    )
    row = {
        "workload": f"serve_{int(duration_ms)}ms_i{intensity:g}",
        "duration_ms": duration_ms,
        "intensity": intensity,
        "reports_identical": True,
        "queries_completed": report_on["queries_completed"],
        "slo_samples": sum(
            e["samples"]
            for table in service_on.slo.summary().values()
            for e in table.values()
        ),
        "audit_events": len(service_on.audit),
        "pairs": repeats,
        "enabled": {"seconds": t_on},
        "disabled": {"seconds": t_off},
        "overhead": overhead,
        "overhead_iqr": iqr,
    }
    print(
        f"serve_telemetry/{row['workload']}: enabled {t_on * 1e3:.1f} ms | "
        f"disabled {t_off * 1e3:.1f} ms | overhead {overhead:.3f}x "
        f"(median of {repeats} pairs, IQR {iqr:.3f})"
    )
    return row


def observability_sweep(duration_ms, num_keys, length):
    """Drive one real runner sweep under :mod:`repro.obs` and summarize.

    Every query the runner issues is aligned to the tumbling grid, so any
    ``fallback_*`` count here means the incremental fast path silently
    degraded to a rescan — a performance regression the timing numbers
    alone can hide.  Runs on a fresh batch, *after* the timing passes, so
    the instrumented sweep cannot perturb the measurements.
    """
    arrays = build_arrays(duration_ms, num_keys)
    with obs.scoped() as reg:
        run_operator(
            WatermarkJoin(AggKind.COUNT),
            arrays,
            length,
            length + 2.0,
            t_start=length,
            t_end=duration_ms - length,
        )
        # A second identical sweep: the pipeline cost memo must hit.
        run_operator(
            WatermarkJoin(AggKind.COUNT),
            arrays,
            length,
            length + 2.0,
            t_start=length,
            t_end=duration_ms - length,
        )
    return obs.summarize_run(reg.snapshot())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI: checks equivalence; of the wall-clock "
        "gates only the 2-worker executor break-even arms (on >= 2 CPUs)",
    )
    parser.add_argument(
        "--out",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_hotpath.json"),
        help="path of the JSON artifact (default: repo root BENCH_hotpath.json)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="interleaved pairs per timed section (full mode times at least "
        "5, serve_telemetry at least 20; smoke mode times 3)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker count for the executor section (default 4)",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="after the run, diff the deterministic parts of the artifact "
        "against a previous BENCH_hotpath.json; exit 1 beyond tolerance",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.workers < 2:
        parser.error("--workers must be >= 2")

    try:
        cpu_count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpu_count = os.cpu_count() or 1

    pairs = 3 if args.smoke else max(args.repeats, 5)
    workloads = SMOKE_WORKLOADS if args.smoke else FULL_WORKLOADS
    rows = [run_workload(*w, pairs=pairs) for w in workloads]

    ingest_rows = [
        ingest_workload(label, duration_ms, num_keys, pairs=pairs)
        for (label, duration_ms, num_keys, _) in workloads
    ]

    estimator_row = estimator_workload(
        duration_ms=200.0 if args.smoke else 1000.0,
        num_keys=2_000,
        pairs=pairs,
    )

    skew_row = skew_workload(
        num_keys=5_000 if args.smoke else 50_000,
        pairs=pairs,
        smoke=args.smoke,
    )

    # On narrow machines the executor section still proves determinism,
    # but only a 2-worker break-even gate is meaningful; the full
    # worker-count speedup gate needs >= 4 CPUs.
    exec_workers = args.workers if cpu_count >= 4 else 2
    executor_row = executor_workload(
        scale=0.02 if args.smoke else 0.1,
        workers=exec_workers,
        pairs=pairs,
    )

    serve_retentions = SERVE_SMOKE_RETENTIONS if args.smoke else SERVE_FULL_RETENTIONS
    serve_rows = [
        serve_hotpath_workload(retention_ms, pairs=pairs)
        for retention_ms in serve_retentions
    ]

    telemetry_row = serve_telemetry_workload(
        duration_ms=400.0,
        intensity=1.0,
        repeats=3 if args.smoke else max(args.repeats, 20),
    )

    _, duration_ms, num_keys, length = workloads[0]
    health = observability_sweep(duration_ms, num_keys, length)
    agg = health["aggregator"]
    memo = health["cost_memo"]
    print(
        f"observability: grid_hits={agg['grid_hits']} "
        f"fallbacks={agg['fallback_unbound'] + agg['fallback_off_grid']} "
        f"memo_hit_rate={memo['hit_rate']:.2f} "
        f"degenerate_windows={health['degenerate_windows']} "
        f"negative_latency_samples={health['latency_negative_samples']}"
    )

    artifact = {
        "benchmark": "hotpath",
        "mode": "smoke" if args.smoke else "full",
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": cpu_count,
        },
        "workloads": rows,
        "ingest": ingest_rows,
        "estimator": estimator_row,
        "skew": skew_row,
        "executor": executor_row,
        "serve_hotpath": serve_rows,
        "serve_telemetry": telemetry_row,
        "observability": health,
    }
    with open(args.out, "w") as fh:
        json.dump(artifact, fh, indent=2)
        fh.write("\n")
    print(f"wrote {os.path.abspath(args.out)}")

    fallbacks = agg["fallback_unbound"] + agg["fallback_off_grid"]
    if fallbacks:
        print(
            f"FAIL: {fallbacks} rescan fallback(s) on grid-aligned queries "
            "(incremental fast path silently degraded)",
            file=sys.stderr,
        )
        return 1

    if not args.smoke:
        headline = rows[-1]
        if headline["speedup"] < 3.0:
            print(
                f"FAIL: headline speedup {headline['speedup']:.2f}x < 3x",
                file=sys.stderr,
            )
            return 1
        ingest_headline = ingest_rows[-1]
        if ingest_headline["speedup"] < 5.0:
            print(
                f"FAIL: ingest speedup {ingest_headline['speedup']:.2f}x < 5x",
                file=sys.stderr,
            )
            return 1
        # The fused estimator path must pay on a single core — no
        # hardware condition on this gate.
        if estimator_row["speedup"] < 1.3:
            print(
                f"FAIL: estimator speedup {estimator_row['speedup']:.2f}x < 1.3x",
                file=sys.stderr,
            )
            return 1
        # Capping the hot set at K partitions must beat giving every
        # key that clears 1e-4 its own partition on a wide skewed
        # domain, or the cap is not paying its way.  Smoke mode only
        # checks equivalence and accounting.
        if skew_row["speedup"] < 1.3:
            print(
                f"FAIL: skew partitioned speedup {skew_row['speedup']:.2f}x < 1.3x",
                file=sys.stderr,
            )
            return 1
        # At the largest retention the full rebuild re-sorts and
        # re-aggregates the whole retained state every tick; the
        # incremental shard must beat it by 3x or it is not paying its way.
        serve_headline = serve_rows[-1]
        if serve_headline["speedup"] < 3.0:
            print(
                f"FAIL: serve_hotpath speedup {serve_headline['speedup']:.2f}x "
                f"< 3x at retention {serve_headline['retention_ms']:g} ms",
                file=sys.stderr,
            )
            return 1
        # Live telemetry must stay out of the hot path: at the default
        # 20 ms sampling cadence the whole bundle (SLO classification,
        # audit log, ring-series sweeps) is bounded at 3% of the serve
        # loop's wall clock.
        if telemetry_row["overhead"] > 1.03:
            print(
                f"FAIL: serve telemetry overhead "
                f"{telemetry_row['overhead']:.3f}x > 1.03x",
                file=sys.stderr,
            )
            return 1

    # Executor wall-clock gates arm in both modes, scaled to the
    # hardware: with >= 4 CPUs the full worker count must reach 1.8x in
    # full mode; with 2-3 CPUs (e.g. standard CI runners) the 2-worker
    # sweep must at least break even against serial — the shared-memory
    # dispatch must not cost more than it buys.  On a single CPU only
    # determinism is checked.
    if cpu_count >= 4 and not args.smoke:
        executor_floor = 1.8
    elif cpu_count >= 2:
        executor_floor = 1.0
    else:
        executor_floor = None
        print(
            f"note: executor speedup gate skipped ({cpu_count} CPU(s) available)"
        )
    if executor_floor is not None and executor_row["speedup"] < executor_floor:
        print(
            f"FAIL: executor speedup {executor_row['speedup']:.2f}x < "
            f"{executor_floor}x at {exec_workers} workers ({cpu_count} CPUs)",
            file=sys.stderr,
        )
        return 1

    if args.compare is not None:
        rc = compare_artifacts(args.compare, artifact)
        if rc:
            return rc
    return 0


#: Artifact keys that are wall-clock measurements (or describe the
#: machine or the timing method), pruned before the --compare diff.  ``speedup`` survives:
#: its tolerance rule is wide (50%, lower-worse) precisely because it is
#: a ratio of wall times.  ``overhead`` is pruned — the 1.03x gate in
#: main() already bounds it each run and it has no lower-is-worse rule.
_WALL_KEYS = frozenset(
    {"seconds", "tuples_per_s", "environment", "speedup", "speedup_iqr", "pairs",
     "overhead", "overhead_iqr"}
)


def _prune_wall(node):
    if isinstance(node, dict):
        return {
            k: _prune_wall(v) for k, v in node.items() if k not in _WALL_KEYS
        }
    if isinstance(node, list):
        return [_prune_wall(v) for v in node]
    return node


def compare_artifacts(baseline_path: str, current: dict) -> int:
    """Regression-gate the deterministic artifact sections.

    Counters, row shapes and health indicators must match the baseline
    (near-)exactly; wall-clock timings and the speedup ratios derived
    from them are pruned (the wall-clock gates in main() still bound
    them on each run).  Returns 0 when within tolerance, 1 otherwise,
    2 on unreadable input.
    """
    from repro.bench.compare import compare_trees
    from repro.bench.reporting import format_table

    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if baseline.get("mode") != current.get("mode"):
        print(
            f"compare: mode mismatch ({baseline.get('mode')} vs "
            f"{current.get('mode')}); run the same --smoke setting",
            file=sys.stderr,
        )
        return 2
    findings: list[dict] = []
    for section in (
        "workloads",
        "ingest",
        "estimator",
        "executor",
        "serve_hotpath",
        "serve_telemetry",
        "observability",
    ):
        findings.extend(
            compare_trees(
                section,
                _prune_wall(baseline.get(section)),
                _prune_wall(current.get(section)),
            )
        )
    if not findings:
        print(f"compare: OK — within tolerance of {baseline_path}")
        return 0
    print(
        format_table(
            findings,
            ["figure", "path", "baseline", "current", "status"],
            title=f"compare: {len(findings)} finding(s) vs {baseline_path}",
        ),
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
