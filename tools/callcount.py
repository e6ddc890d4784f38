#!/usr/bin/env python
"""Deterministic work count of one end-to-end benchmark workload.

Runs the timed section of one ``perfbench`` workload (set-up outside the
count, then the one timed call into the program) under :mod:`cProfile` and
prints the total number of Python calls, the tuples the workload pushed
through, and their ratio.  Wall-clock pairs on a shared host spread by tens
of percent; the call count of a seeded run repeats exactly, so a perf change
can state its counted effect next to the timed one::

    python tools/callcount.py --workload serve_mixed --seed 1

The benchmark's own probes (answer recording, ground-truth tallies) are not
installed, so the count is the program's work alone.  The workload is reached
through ``perfbench/workloads.py``'s ``FACTORIES``, imported from its
directory the way ``perfbench/run.py`` imports it.  Run from anywhere; the
script locates ``src/`` and ``perfbench/`` next to itself.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    calls, tuples = count_calls(args.workload, args.seed)
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "calls": calls,
                "tuples": tuples,
                "calls_per_tuple": round(calls / tuples, 2) if tuples else None,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
