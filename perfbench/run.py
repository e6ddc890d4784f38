"""End-to-end benchmark of the PECJ reproduction: one workload per process.

    python3 perfbench/run.py --workload q1_standalone --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (it imports ``repro`` from ``src/``).
The run repeats *set-up, then one timed call into the program on fresh state*
until ``--seconds`` have passed.  Every repetition rebuilds its inputs from the
seed and constructs a new operator or service, so each pays the cold
aggregator and cost-memo caches that a user pays.  Wall-clock metrics are
medians over repetitions; deterministic metrics must repeat exactly in every
repetition, or the run is marked incorrect.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics and the tracing
overhead, and writes the first traced repetition's spans as Chrome/Perfetto
JSON to ``.perfbench/trace-<workload>.json``.  The last line of standard
output is the result object; the line before it is a detail object (sample
counts, tail percentiles, per-repetition timings, layer shares).  The exit
code is 1 when an output check fails and 2 when the program source is absent.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer, maybe_span, patched, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "tuples_per_s": "tuples/s",
    "answer_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "error_mean": "fraction",
    "vlatency_p95_ms": "ms",
    "answered_share": "fraction",
}

PER_LAYER_UNITS = {
    "streams.generate_s": "s",
    "joins.run_operator_s": "s",
    "joins.pipeline_costs_s": "s",
    "joins.runner_self_s": "s",
    "joins.windows": "count",
    "core.process_window_s": "s",
    "core.process_window_calls": "count",
    "core.process_window_ms_p50": "ms",
    "core.process_window_ms_tail": "ms",
    "core.process_window_tail_pct": "%",
    "partitioned.process_window_s": "s",
    "partitioned.hot_keys": "count",
    "partitioned.promotions": "count",
    "partitioned.demotions": "count",
    "partitioned.hot_hit_rate": "fraction",
    "streaming.push_s": "s",
    "streaming.push_calls": "count",
    "streaming.push_us_p50": "us",
    "streaming.push_us_tail": "us",
    "streaming.finish_s": "s",
    "streaming.emissions": "count",
    "streaming.scored": "count",
    "streaming.live_windows_max": "count",
    "serve.run_s": "s",
    "serve.shard_ingest_s": "s",
    "serve.shard_ingest_calls": "count",
    "serve.shard_ingest_tuples": "count",
    "serve.shard_ingest_us_per_call": "us",
    "serve.shard_query_s": "s",
    "serve.shard_query_calls": "count",
    "serve.shard_query_ms_p50": "ms",
    "serve.shard_query_ms_tail": "ms",
    "serve.service_self_s": "s",
    "serve.admission_rejected": "count",
    "serve.shed": "count",
    "serve.peak_workers": "count",
    "obs.telemetry_s": "s",
    "joins.self_s": "s",
    "core.self_s": "s",
    "partitioned.self_s": "s",
    "streaming.self_s": "s",
    "serve.self_s": "s",
    "obs.self_s": "s",
    "bench.self_s": "s",
    "trace.timed_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead": "ratio",
    "trace.layer_share": "fraction",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink every workload's virtual duration (self-test only)",
    )
    return parser.parse_args(argv)


def run_rep(workload, seed: int, tracer):
    """One repetition: set-up, one timed call into the program, evaluation."""
    setup_times = []
    with maybe_span(tracer, "bench.setup"):
        for _ in range(workload.setup_repeats):
            state = None  # free the previous inputs before timing the next build
            gc.collect()
            t0 = perf_counter()
            state = workload.setup(seed, tracer)
            setup_times.append(perf_counter() - t0)
    gc.collect()
    sink: list[float] = []
    timed_root = len(tracer.spans) if tracer is not None else -1
    with patched(workload.probes(tracer, sink)), maybe_span(tracer, "bench.timed"):
        t0 = perf_counter()
        outputs = workload.timed(state, tracer)
        timed_s = perf_counter() - t0
    return {
        "setup_s": statistics.median(setup_times),
        "timed_s": timed_s,
        "tuples": workload.input_tuples(state),
        "evaluation": workload.evaluate(state, outputs, sink),
        "run": tracer.run if tracer is not None else None,
        "timed_root": timed_root,
    }


def layer_metrics(tracer, rep) -> dict[str, float]:
    """Per-layer wall times of one traced repetition (timed section only)."""
    run = rep["run"]
    selfs = tracer.self_times(run, rep["timed_root"])
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, value in selfs.items():
        out[name.split(".", 1)[0] + ".self_s"] += value

    def total(name):
        return float(tracer.durations(run, name).sum())

    def p50(x):
        return float(statistics.median(x)) if len(x) else 0.0

    window_ms = tracer.durations(run, "core.process_window") * 1e3
    tail_pct, tail_ms = tail_percentile(window_ms)
    push_us = tracer.durations(run, "streaming.push") * 1e6
    ingest_us = tracer.durations(run, "serve.shard_ingest") * 1e6
    query_ms = tracer.durations(run, "serve.shard_query") * 1e3
    out.update(
        {
            "streams.generate_s": total("streams.generate"),
            "joins.run_operator_s": total("joins.run_operator"),
            "joins.pipeline_costs_s": total("joins.pipeline_costs"),
            "joins.runner_self_s": selfs.get("joins.run_operator", 0.0),
            "core.process_window_s": float(window_ms.sum()) / 1e3,
            "core.process_window_calls": float(len(window_ms)),
            "core.process_window_ms_p50": p50(window_ms),
            "core.process_window_ms_tail": tail_ms,
            "core.process_window_tail_pct": tail_pct,
            "partitioned.process_window_s": total("partitioned.process_window"),
            "streaming.push_s": float(push_us.sum()) / 1e6,
            "streaming.push_calls": float(len(push_us)),
            "streaming.push_us_p50": p50(push_us),
            "streaming.push_us_tail": tail_percentile(push_us)[1],
            "streaming.finish_s": total("streaming.finish"),
            "serve.run_s": total("serve.run"),
            "serve.shard_ingest_s": float(ingest_us.sum()) / 1e6,
            "serve.shard_ingest_us_per_call": float(ingest_us.mean()) if len(ingest_us) else 0.0,
            "serve.shard_query_s": float(query_ms.sum()) / 1e3,
            "serve.shard_query_ms_p50": p50(query_ms),
            "serve.shard_query_ms_tail": tail_percentile(query_ms)[1],
            "serve.service_self_s": selfs.get("serve.run", 0.0),
            "obs.telemetry_s": total("obs.telemetry"),
        }
    )
    _, start, end, _, _ = tracer.spans[rep["timed_root"]]
    out["trace.timed_s"] = end - start
    self_total = sum(v for k, v in out.items() if k.endswith(".self_s"))
    out["trace.layer_share"] = (self_total - out["bench.self_s"]) / (end - start)
    # Self times partition the timed section: this is 1 up to rounding.
    out["self_sum_over_timed"] = self_total / (end - start)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program source at src/repro in the checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.FACTORIES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    ceiling = spec["workloads"][args.workload]["error_ceiling"]
    # --scale shrinks each workload's virtual duration and warm-up.
    workload = workloads.FACTORIES[args.workload](args.scale)

    tracer = Tracer() if args.trace else None
    reps = []
    # A traced run alternates untraced and traced repetitions so that the
    # overhead ratio compares neighbours in time.
    min_reps = 4 if args.trace else 3
    started = perf_counter()
    rep_walls: list[float] = []
    # Start another repetition only while it is expected to end less than
    # half a repetition past the deadline, so runs end near --seconds.
    while len(reps) < min_reps or (
        perf_counter() - started + 0.5 * statistics.median(rep_walls) < args.seconds
    ):
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.run = len(reps)
        t0 = perf_counter()
        reps.append(run_rep(workload, args.seed, tracer if traced else None))
        rep_walls.append(perf_counter() - t0)

    # -- output checks ---------------------------------------------------------
    evaluations = [r["evaluation"] for r in reps]
    first = evaluations[0]
    problems = sorted({p for ev in evaluations for p in ev.problems})
    if not (math.isfinite(first.error_mean) and first.error_mean <= ceiling):
        problems.append(f"error_mean {first.error_mean} above ceiling {ceiling}")
    for i, ev in enumerate(evaluations[1:], start=1):
        if ev.deterministic != first.deterministic:
            problems.append(f"repetition {i} differs from repetition 0")
    attempted = sum(ev.attempted for ev in evaluations)
    failed = sum(ev.failed for ev in evaluations)

    untraced = [r for r in reps if r["run"] is None]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(reps),
        "timed_s": [round(r["timed_s"], 6) for r in reps],
        "setup_s": [round(r["setup_s"], 6) for r in reps],
        "input_tuples": reps[0]["tuples"],
        "vlatency_samples": first.vlatency_samples,
        "deterministic": first.deterministic,
        "problems": problems,
    }
    if tracer is None:
        detail["answer_p50_ms"] = [
            round(statistics.median(r["evaluation"].answer_ms), 6) for r in untraced
        ]
        answers = first.answer_ms
        tail_pct, tail_ms = tail_percentile(answers)
        detail["answer_ms"] = {"samples": len(answers), "tail_pct": tail_pct, "tail": tail_ms}
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "tuples_per_s": statistics.median(r["tuples"] / r["timed_s"] for r in untraced),
            "answer_ms_p50": statistics.median(
                statistics.median(r["evaluation"].answer_ms) for r in untraced
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "error_mean": first.error_mean,
            "vlatency_p95_ms": first.vlatency_p95_ms,
            "answered_share": first.answered / first.attempted,
        }
        units = END_TO_END_UNITS
    else:
        traced_reps = [r for r in reps if r["run"] is not None]
        per_rep = [layer_metrics(tracer, r) for r in traced_reps]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        for name in PER_LAYER_UNITS:
            metrics.setdefault(name, first.counts.get(name, 0.0))
        metrics["trace.untraced_s"] = statistics.median(r["timed_s"] for r in untraced)
        metrics["trace.overhead"] = metrics["trace.timed_s"] / metrics["trace.untraced_s"]
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}.json"
        tracer.write_perfetto(trace_path, [traced_reps[0]["run"]])
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        detail["self_sum_over_timed"] = [m["self_sum_over_timed"] for m in per_rep]
        detail["layer_shares"] = {
            name: round(statistics.median(m[name] / m["trace.timed_s"] for m in per_rep), 4)
            for name in per_rep[0]
            if name.endswith(".self_s")
        }
        units = PER_LAYER_UNITS
    detail["elapsed_s"] = round(perf_counter() - started, 3)
    print(json.dumps(detail))
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
