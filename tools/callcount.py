#!/usr/bin/env python
"""Deterministic work count of one end-to-end benchmark workload.

Runs the timed section of one ``perfbench`` workload (set-up outside the
count, then the one timed call into the program) under :mod:`cProfile` and
prints the total number of Python calls, the tuples the workload pushed
through, and their ratio.  Wall-clock pairs on a shared host spread by tens
of percent; the call count of a seeded run repeats exactly, so a perf change
can state its counted effect next to the timed one::

    python tools/callcount.py --workload serve_mixed --seed 1
    python tools/callcount.py            # every entry of the ceiling table

The benchmark's own probes (answer recording, ground-truth tallies) are not
installed, so the count is the program's work alone.  When
``callcount_ceilings.json`` (next to this script) holds a ceiling for the
workload and seed, the script exits 1 if calls per tuple exceed it: a
deterministic work gate that host noise cannot trip.  Without
``--workload`` it counts every ``workload/seed=N`` entry of that table, each
in its own process (so no entry's count depends on what an earlier one
imported or cached), and exits 1 if any exceeds its ceiling.  numpy's
Python-level wrappers count as calls too, so the file records the numpy
version its ceilings were measured with; under another version an exceeded
ceiling is reported as a warning and the script exits 0.  The workload is reached
through ``perfbench/workloads.py``'s ``FACTORIES``, imported from its
directory the way ``perfbench/run.py`` imports it.  Run from anywhere; the
script locates ``src/`` and ``perfbench/`` next to itself.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CEILINGS = Path(__file__).resolve().with_name("callcount_ceilings.json")


def count_calls(workload_name: str, seed: int) -> tuple[int, int]:
    """Profile one timed section: its Python calls and the tuples it processed."""
    for path in (ROOT / "perfbench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import workloads

    if workload_name not in workloads.FACTORIES:
        raise SystemExit(
            f"callcount: unknown workload {workload_name!r} "
            f"(choose from {', '.join(sorted(workloads.FACTORIES))})"
        )
    workload = workloads.FACTORIES[workload_name](1.0)
    state = workload.setup(seed, None)
    profiler = cProfile.Profile()
    profiler.enable()
    workload.timed(state, None)
    profiler.disable()
    return pstats.Stats(profiler).total_calls, int(workload.input_tuples(state))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", help="workload to count (default: every ceiling entry)"
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    recorded = json.loads(CEILINGS.read_text())
    if args.workload is None:
        failed = 0
        for entry in recorded["ceilings"]:
            workload, seed = entry.split("/seed=")
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", seed]
            failed += subprocess.run(cmd).returncode != 0
        return 1 if failed else 0
    calls, tuples = count_calls(args.workload, args.seed)
    per_tuple = round(calls / tuples, 2) if tuples else None
    ceiling = recorded["ceilings"].get(f"{args.workload}/seed={args.seed}")
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "calls": calls,
                "tuples": tuples,
                "calls_per_tuple": per_tuple,
                "ceiling": ceiling,
            }
        )
    )
    if ceiling is not None and (per_tuple is None or per_tuple > ceiling):
        verdict = f"{per_tuple} calls per tuple > ceiling {ceiling} ({CEILINGS.name})"
        if np.__version__ != recorded["numpy"]:
            print(f"WARNING: {verdict}, measured with numpy {recorded['numpy']}; "
                  f"this is numpy {np.__version__}, so the gate does not apply",
                  file=sys.stderr)
            return 0
        print(f"FAIL: {verdict}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
