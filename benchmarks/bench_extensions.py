"""Benchmarks for the extensions beyond the paper's figures.

* **Streaming push throughput** — wall-clock tuples/second of the
  push-based operators (this is real Python time, not virtual time: the
  one place absolute numbers are meaningful here).
* **Sliding-window accuracy** — PECJ vs WMJ on overlapping windows.
* **Per-key compensation** — per-key L1 error of
  :class:`~repro.joins.partitioned.PartitionedPECJoin` in its per-key
  configuration (every key promotable, answers read from ``hot_series``)
  vs observed-only outputs.
"""

import time

import numpy as np

from benchmarks.conftest import bench_scale, emit
from repro.bench.reporting import format_table
from repro.core.pecj import PECJoin
from repro.joins.arrays import AggKind
from repro.joins.baselines import WatermarkJoin
from repro.joins.partitioned import PartitionedPECJoin
from repro.joins.runner import run_operator
from repro.joins.sliding import run_sliding_operator
from repro.streaming.operators import StreamingKSJ, StreamingPECJ, StreamingWMJ
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_arrays, make_disordered_pair
from tests.oracles.per_key import per_key_l1, per_key_outputs


def streaming_throughput(scale: float) -> list[dict]:
    duration = max(1500.0 * scale, 400.0)
    merged, _, _ = make_disordered_pair(
        make_dataset("micro", num_keys=10), UniformDelay(5.0), duration, 50.0, 50.0, seed=5
    )
    tuples = merged.in_arrival_order()
    rows = []
    for op in (
        StreamingWMJ(10.0, 10.0),
        StreamingKSJ(10.0, 10.0),
        StreamingPECJ(10.0, 10.0, backend="aema"),
    ):
        t0 = time.perf_counter()
        for t in tuples:
            op.push(t)
        op.finish()
        elapsed = time.perf_counter() - t0
        scored = op.scored[30:]
        err = sum(s.error for s in scored) / len(scored) if scored else 0.0
        rows.append(
            {
                "operator": op.name,
                "wallclock_ktuples_per_s": len(tuples) / elapsed / 1000.0,
                "error": err,
            }
        )
    return rows


def sliding_accuracy(scale: float) -> list[dict]:
    duration = max(2000.0 * scale, 600.0)
    arrays = make_disordered_arrays(
        make_dataset("stock"), UniformDelay(5.0), duration, 50.0, 50.0, seed=9
    )
    rows = []
    for name, factory in (
        ("WMJ", lambda o: WatermarkJoin(AggKind.COUNT)),
        ("PECJ", lambda o: PECJoin(AggKind.COUNT, backend="aema", origin=o)),
    ):
        res = run_sliding_operator(
            factory,
            arrays,
            window_length=20.0,
            slide=5.0,
            omega=20.0,
            t_start=100.0,
            t_end=duration - 50.0,
            warmup_windows=10,
        )
        rows.append({"operator": f"{name} (sliding 5/20)", "error": res.mean_error})
    return rows


def per_key_accuracy(scale: float) -> list[dict]:
    """Per-key L1 of the per-key configuration vs observed-only outputs.

    ``max_hot = sketch_capacity = 50`` with ``enter_share=1e-4`` and
    ``boost=0.0`` lets every key of the 50-key domain take a partition;
    each scored window's per-key answer is its ``hot_series`` entry (the
    observed outputs while the operator has none).
    """
    num_keys = 50
    duration = max(2500.0 * scale, 800.0)
    arrays = make_disordered_arrays(
        make_dataset("micro", num_keys=num_keys), UniformDelay(5.0), duration, 100.0, 100.0, seed=3
    )
    rows = []
    for agg in (AggKind.COUNT, AggKind.SUM):
        op = PartitionedPECJoin(
            agg, max_hot=num_keys, sketch_capacity=num_keys, enter_share=1e-4, boost=0.0
        )
        res = run_operator(
            op, arrays, 10.0, 10.0, t_start=50.0, t_end=duration - 50.0, warmup_windows=40
        )
        answers = {start: values for start, values, _ in op.hot_series}
        compensated, observed = [], []
        for record in res.records:
            w = record.window
            truth = per_key_outputs(arrays, w.start, w.end, None, agg)
            seen = per_key_outputs(arrays, w.start, w.end, record.cutoff, agg)
            compensated.append(per_key_l1(answers.get(w.start, seen), truth))
            observed.append(per_key_l1(seen, truth))
        rows.append(
            {
                "aggregation": agg.value,
                "per_key_L1_compensated": float(np.mean(compensated)),
                "per_key_L1_observed": float(np.mean(observed)),
            }
        )
    return rows


def engine_variants(scale: float) -> list[dict]:
    duration = max(1000.0 * scale, 400.0)
    arrays = make_disordered_arrays(
        make_dataset("micro", num_keys=10), UniformDelay(5.0), duration, 800.0, 800.0, seed=5
    )
    from repro.engine import ParallelJoinEngine

    rows = []
    for alg in ("prj", "shj", "hsj", "spj"):
        for threads in (4, 16):
            eng = ParallelJoinEngine(alg, threads=threads, agg=AggKind.COUNT, omega=10.0)
            res = eng.run(arrays, t_start=100.0, t_end=duration - 20.0, warmup_windows=10)
            rows.append(
                {
                    "algorithm": eng.name,
                    "threads": threads,
                    "error": res.mean_error,
                    "p95_latency_ms": res.p95_latency,
                    "throughput_ktps": res.throughput_ktps,
                }
            )
    return rows


def test_engine_variants(benchmark):
    rows = benchmark.pedantic(engine_variants, args=(bench_scale(),), rounds=1, iterations=1)
    emit("Extension: engine algorithm family (2 x 800 Ktuples/s)", format_table(rows))
    by = {(r["algorithm"], r["threads"]): r for r in rows}
    # SplitJoin's independence pays off where SHJ thrashes.
    assert by[("SPJ", 4)]["p95_latency_ms"] <= by[("SHJ", 4)]["p95_latency_ms"]
    # Handshake pipelines grow latency with cores.
    assert by[("HSJ", 16)]["p95_latency_ms"] > by[("HSJ", 4)]["p95_latency_ms"]


def test_streaming_throughput(benchmark):
    rows = benchmark.pedantic(
        streaming_throughput, args=(bench_scale(),), rounds=1, iterations=1
    )
    emit("Extension: push-based operators (wall-clock!)", format_table(rows))
    by = {r["operator"]: r for r in rows}
    assert by["StreamingPECJ"]["error"] < 0.5 * by["StreamingWMJ"]["error"]


def test_sliding_accuracy(benchmark):
    rows = benchmark.pedantic(
        sliding_accuracy, args=(bench_scale(),), rounds=1, iterations=1
    )
    emit("Extension: sliding windows", format_table(rows))
    errors = [r["error"] for r in rows]
    assert errors[1] < 0.5 * errors[0]


def test_per_key_accuracy(benchmark):
    rows = benchmark.pedantic(
        per_key_accuracy, args=(bench_scale(),), rounds=1, iterations=1
    )
    emit("Extension: per-key compensation", format_table(rows))
    for r in rows:
        assert r["per_key_L1_compensated"] < 0.5 * r["per_key_L1_observed"]
