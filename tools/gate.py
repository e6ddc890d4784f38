#!/usr/bin/env python
"""Figure smoke runs, determinism and regression gates, one table row per target.

Each target runs ``python -m repro.bench`` serially (traced, plus the row's
extra arguments) and again with ``--workers 2``:

* determinism: the two row tables must match byte for byte (per-cell
  seeding, row reassembly, shared-state event loops and alert timelines all
  ride the virtual clock), and where the row's Perfetto export ends in
  ``:diff``, both runs export one and those must match too;
* regression: the serial report is compared against
  ``baselines/<target>_smoke.json`` under per-metric tolerances with
  ``repro.bench compare`` (exit 1 on regression/drift, 2 on an unknown
  schema);
* ``skew`` also runs the cell-by-cell dominance check
  (``tools/check_skew_dominance.py``: bit-identity at skew=0, partitioned
  error no worse than the parent in every cell, real promotions at high
  skew).

fig6 is the end-to-end figure; chaos gates error under each fault intensity
plus guard and fault accounting; serve gates QPS, latency, admission/shed
and autoscaler activity; every serve_hotpath row asserts ``answers_equal``
and its delta-append, held-window and eviction counts gate; slo gates
budgets, burn peaks and alert counts and writes the OpenMetrics and audit
exports; fig7-11 are the remaining paper figures.

The gate stops at the first failure, names the target and exits 1::

    python tools/gate.py                               # every row
    python tools/gate.py serve serve_hotpath slo skew chaos
    python tools/gate.py --out /tmp/gate fig6          # artifacts elsewhere

Reports, row tables, findings and exports are written to ``--out`` (default:
the current directory) under the names the table gives them.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (target, scale, report, rows, findings, Perfetto export, extra serial args).
#: An export ending in ``:diff`` is written by both runs and compared.
TABLE = (
    ("fig6", "0.05", "trace_report", "rows", "compare_findings", "fig6_perfetto:diff", ()),
    ("chaos", "0.05", "chaos_report", "chaos_rows", "chaos_findings", "chaos_perfetto:diff", ()),
    ("serve", "0.3", "serve_report", "serve_rows", "serve_findings", "serve_perfetto", ()),
    ("serve_hotpath", "0.3", "serve_hotpath_report", "serve_hotpath_rows",
     "serve_hotpath_findings", None, ()),
    ("slo", "0.3", "slo_report", "slo_rows", "slo_findings", None,
     ("--openmetrics", "slo_openmetrics.txt", "--audit-jsonl", "slo_audit.jsonl")),
    ("skew", "0.3", "skew_report", "skew_rows", "skew_findings", None, ()),
    ("fig7", "0.05", "fig7_report", "fig7_rows", "fig7_findings", None, ()),
    ("fig8", "0.05", "fig8_report", "fig8_rows", "fig8_findings", None, ()),
    ("fig9", "0.05", "fig9_report", "fig9_rows", "fig9_findings", None, ()),
    ("fig10", "0.05", "fig10_report", "fig10_rows", "fig10_findings", None, ()),
    ("fig11", "0.05", "fig11_report", "fig11_rows", "fig11_findings", None, ()),
)


class GateFailure(Exception):
    """One target failed one step of the gate."""

    def __init__(self, target: str, step: str):
        super().__init__(f"smoke gate failed for target '{target}': {step}")


def run_target(row: tuple, out: Path, env: dict[str, str]) -> None:
    """Run every step of one table row; raises :class:`GateFailure`."""
    target, scale, report, rows, findings, events, extra = row

    def step(args: list[str], what: str) -> None:
        if subprocess.run(args, cwd=out, env=env).returncode != 0:
            raise GateFailure(target, what)

    def same(a: str, b: str, what: str) -> None:
        if not filecmp.cmp(out / a, out / b, shallow=False):
            raise GateFailure(target, what)

    bench = [sys.executable, "-m", "repro.bench"]
    serial = ["--trace", f"{report}.json", "--rows", f"{rows}_serial.json"]
    parallel = ["--workers", "2", "--rows", f"{rows}_parallel.json"]
    diff_events = events is not None and events.endswith(":diff")
    if diff_events:
        events = events[: -len(":diff")]
        serial += ["--trace-events", f"{events}.json"]
        parallel += [
            "--trace", f"{report}_parallel.json",
            "--trace-events", f"{events}_parallel.json",
        ]
    elif events is not None:
        serial += ["--trace-events", f"{events}.json"]
    step(bench + [target, "--scale", scale] + serial + list(extra), "serial run")
    step(bench + [target, "--scale", scale] + parallel, "--workers 2 run")
    same(f"{rows}_serial.json", f"{rows}_parallel.json", "serial vs --workers 2 rows differ")
    if diff_events:
        same(
            f"{events}.json", f"{events}_parallel.json",
            "serial vs --workers 2 Perfetto exports differ",
        )
    if target == "skew":
        step(
            [sys.executable, str(ROOT / "tools" / "check_skew_dominance.py"),
             f"{rows}_serial.json"],
            "dominance check",
        )
    step(
        bench + ["compare", str(ROOT / "baselines" / f"{target}_smoke.json"),
                 f"{report}.json", "--json", f"{findings}.json"],
        "baseline compare",
    )


def main(argv=None) -> int:
    names = [row[0] for row in TABLE]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "targets", nargs="*", metavar="TARGET",
        help=f"rows to run, in table order (default: all of {', '.join(names)})",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("."),
        help="directory for reports, row tables and exports (default: .)",
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.targets) - set(names))
    if unknown:
        parser.error(f"unknown targets: {', '.join(unknown)}")
    args.out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for row in TABLE:
        if args.targets and row[0] not in args.targets:
            continue
        print(f"::group::{row[0]}", flush=True)
        try:
            run_target(row, args.out.resolve(), env)
        except GateFailure as exc:
            print(f"::error::{exc}", flush=True)
            return 1
        print("::endgroup::", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
