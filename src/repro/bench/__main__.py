"""Command-line entry point: regenerate any figure's table.

Usage::

    python -m repro.bench fig6 [--scale 0.3]
    python -m repro.bench fig9 --scale full
    python -m repro.bench fig6 --trace report.json
    python -m repro.bench fig6 --trace-events fig6_trace.json
    python -m repro.bench fig6 --workers 4
    python -m repro.bench slo --openmetrics om.txt --audit-jsonl audit.jsonl
    python -m repro.bench all
    python -m repro.bench compare baseline.json current.json

Prints the same rows/series the corresponding paper figure plots.  With
``--workers N`` the figure's independent cells are sharded across ``N``
worker processes (see :mod:`repro.bench.executor`); the row table is
byte-identical to the default serial run — ``--rows PATH`` writes the
rows as JSON so the determinism gate can diff them.  With
``--trace PATH`` each figure additionally runs inside a
:mod:`repro.obs` scope and a structured JSON run report is written:
per-figure rows (workload parameters included), the raw metrics
snapshot, and the derived health summary (fast-path fallback rates,
cost-memo hit rate, degenerate-window counts, per-phase engine time).
Worker-scoped metrics merge back into the tracing scope, so counter
totals in a parallel trace match the serial ones.

``--trace-events PATH`` records every instrumented virtual-time event
(window lifecycle spans, engine phase spans, PECJ estimator samples,
reorder-buffer releases) and writes a Chrome/Perfetto ``trace_event``
JSON — open it at https://ui.perfetto.dev.  ``--trace-jsonl PATH``
writes the same events as sorted JSONL for programmatic consumption.
Both exports are byte-identical between serial and ``--workers N`` runs.

``compare`` is the metrics regression gate: it diffs two ``--trace``
reports under per-metric tolerances and exits nonzero on regression
(see :mod:`repro.bench.compare`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import obs
from repro.obs import trace as obs_trace
from repro.bench.experiments import (
    chaos_resilience,
    fig6_end_to_end,
    fig7_q3_end_to_end,
    fig8_workload_sensitivity,
    fig9_algorithm_sensitivity,
    fig10_integrated,
    fig11_scaling,
    smoke_observability,
)
from repro.bench.reporting import format_table
from repro.bench.serve_bench import serve_hotpath, serve_sustained
from repro.bench.skew_bench import skew_sweep
from repro.bench.slo_bench import slo_sweep

_FIGURES = {
    "smoke": (smoke_observability, ["workload", "method", "error", "p95_latency_ms"]),
    "fig6": (fig6_end_to_end, ["workload", "omega_ms", "method", "error", "p95_latency_ms"]),
    "fig7": (fig7_q3_end_to_end, ["omega_ms", "method", "error", "p95_latency_ms"]),
    "fig8": (fig8_workload_sensitivity, None),
    "fig9": (fig9_algorithm_sensitivity, None),
    "fig10": (fig10_integrated, ["dataset", "method", "error", "p95_latency_ms"]),
    "fig11": (fig11_scaling, ["threads", "method", "error", "p95_latency_ms", "throughput_ktps"]),
    "chaos": (chaos_resilience, ["intensity", "method", "error", "p95_latency_ms"]),
    "serve": (
        serve_sustained,
        [
            "tenants", "intensity", "events", "qps", "p95_ms", "p99_ms",
            "queries_rejected", "shed_queue", "shed_starved", "peak_workers",
            "scale_ups", "scale_downs",
        ],
    ),
    "serve_hotpath": (
        serve_hotpath,
        [
            "retention_ms", "ticks", "ingested", "evicted", "live", "queries",
            "answers_equal", "delta_appends", "grid_windows",
        ],
    ),
    "skew": (
        skew_sweep,
        [
            "key_skew", "disorder", "method", "error", "p95_latency_ms",
            "throughput_ktps", "partition_hot_keys", "partition_promotions",
        ],
    ),
    "slo": (
        slo_sweep,
        [
            "tenants", "intensity", "tier", "latency_bad", "completeness_bad",
            "shed_bad", "rejection_bad", "rejection_budget", "fired",
            "resolved", "audit_events",
        ],
    ),
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry: run figures, print tables, write reports and trace exports."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        from repro.bench.compare import main as compare_main

        return compare_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the tables behind the PECJ paper's figures "
        "(or 'compare' two trace reports as a regression gate).",
    )
    parser.add_argument(
        "figure", choices=sorted(_FIGURES) + ["all"], help="which figure to regenerate"
    )
    parser.add_argument(
        "--scale",
        default="0.3",
        help="measured stream fraction: a float, or 'full' (default 0.3)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSON run report (rows + metrics snapshot "
        "+ derived health summary) to PATH",
    )
    parser.add_argument(
        "--trace-events",
        metavar="PATH",
        default=None,
        help="record virtual-time events and write a Chrome/Perfetto "
        "trace_event JSON to PATH (open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--trace-jsonl",
        metavar="PATH",
        default=None,
        help="record virtual-time events and write them as sorted JSONL",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard independent figure cells across N worker processes "
        "(default: serial; the row table is byte-identical either way)",
    )
    parser.add_argument(
        "--rows",
        metavar="PATH",
        default=None,
        help="write the raw row tables as JSON to PATH (used by the "
        "serial-vs-parallel determinism gate)",
    )
    parser.add_argument(
        "--openmetrics",
        metavar="PATH",
        default=None,
        help="(slo figure only) write the last cell's OpenMetrics "
        "exposition text to PATH",
    )
    parser.add_argument(
        "--audit-jsonl",
        metavar="PATH",
        default=None,
        help="(slo figure only) write every cell's control-plane audit "
        "log to PATH as JSONL",
    )
    args = parser.parse_args(argv)
    scale = 1.0 if args.scale == "full" else float(args.scale)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")

    trace_on = args.trace_events is not None or args.trace_jsonl is not None
    names = sorted(_FIGURES) if args.figure == "all" else [args.figure]
    report: dict = {
        "report": "repro.bench trace",
        "schema_version": obs.SNAPSHOT_SCHEMA_VERSION,
        "scale": scale,
        "workers": args.workers,
        "figures": {},
    }
    all_rows: dict[str, list] = {}
    with obs_trace.tracing(obs_trace.TraceRecorder(enabled=trace_on)) as rec:
        for name in names:
            fn, columns = _FIGURES[name]
            rec.set_group(name)
            kwargs = {}
            if name == "slo":
                if args.openmetrics is not None:
                    kwargs["openmetrics_path"] = args.openmetrics
                if args.audit_jsonl is not None:
                    kwargs["audit_path"] = args.audit_jsonl
            t0 = time.time()
            with obs.scoped() as reg:
                rows = fn(scale, workers=args.workers, **kwargs)
            elapsed = time.time() - t0
            all_rows[name] = rows
            print(format_table(rows, columns, title=f"{name} (scale={scale:g}, {elapsed:.0f}s)"))
            print()
            snapshot = reg.snapshot()
            report["figures"][name] = {
                "elapsed_s": elapsed,
                "rows": rows,
                "metrics": snapshot,
                "summary": obs.summarize_run(snapshot),
            }
    if trace_on:
        report["trace_summary"] = obs.summarize_trace(rec.sorted_events())

    if args.rows is not None:
        with open(args.rows, "w") as fh:
            json.dump(all_rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote row tables to {args.rows}")
    if args.trace is not None:
        with open(args.trace, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote trace report to {args.trace}")
    if args.trace_events is not None:
        rec.export_chrome(args.trace_events)
        print(
            f"wrote {len(rec.events)} trace events to {args.trace_events} "
            "(open at https://ui.perfetto.dev)"
        )
    if args.trace_jsonl is not None:
        rec.export_jsonl(args.trace_jsonl)
        print(f"wrote {len(rec.events)} trace events to {args.trace_jsonl}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
