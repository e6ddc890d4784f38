"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks, for every workload, that

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is printed,
  with its unit;
* the deterministic values (error, virtual latency, answered share, the
  per-layer counts and a digest of every answer) repeat exactly across two
  runs, and are the same with tracing on and off;
* another seed changes the inputs;
* the traced run writes a Perfetto-openable span file whose layer self
  times account for the traced timed section.

It also checks, on temporary copies of the checkout, that an error above its
ceiling and non-finite answers (a copy of the program broken on purpose) make
the command exit 1 with ``"correct": false``, and that the command exits
non-zero, printing no result, in a directory that holds only
``BENCHMARK.json`` and the benchmark.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.2"

#: Appended to a copy of ``repro/core/pecj.py``: every seventh window's
#: answer becomes NaN, which the output checks must catch.
NAN_ANSWERS = """

_checked_process_window = PECJoin.process_window


def _nan_every_seventh(self, arrays, window, available_by):
    value, extra = _checked_process_window(self, arrays, window, available_by)
    return (float("nan") if round(window.start / window.length) % 7 == 0 else value), extra


PECJoin.process_window = _nan_every_seventh
"""

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", SCALE],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]
    spec = json.loads((HERE / "spec.json").read_text())
    check(sorted(names) == sorted(spec["workloads"]), "BENCHMARK.json and spec.json list the same workloads")

    for workload in names:
        code_a, detail_a, plain_a = run(ROOT, workload, 1, 0)
        code_b, detail_b, plain_b = run(ROOT, workload, 1, 0)
        code_t, detail_t, traced = run(ROOT, workload, 1, 1)
        code_s, detail_s, _ = run(ROOT, workload, 2, 0)
        check(
            (code_a, code_b, code_t, code_s) == (0, 0, 0, 0)
            and all(r and r["correct"] for r in (plain_a, plain_b, traced)),
            f"{workload}: runs exit 0 and pass their output checks",
        )
        if None in (plain_a, plain_b, traced, detail_s):
            continue
        got = {k: v["unit"] for k, v in plain_a["metrics"].items()}
        check(got == end_to_end, f"{workload}: every end-to-end metric printed with its unit")
        got = {k: v["unit"] for k, v in traced["metrics"].items()}
        check(got == per_layer, f"{workload}: every per-layer metric printed with its unit")
        check(
            all(plain_a["metrics"][k]["value"] > 0 for k in end_to_end),
            f"{workload}: no end-to-end metric reads 0",
        )
        check(
            detail_a["deterministic"] == detail_b["deterministic"] == detail_t["deterministic"],
            f"{workload}: deterministic values repeat across runs and with tracing on",
        )
        for name in ("error_mean", "vlatency_p95_ms", "answered_share"):
            check(
                plain_a["metrics"][name] == plain_b["metrics"][name],
                f"{workload}: {name} repeats exactly",
            )
        check(
            detail_s["deterministic"]["digest"] != detail_a["deterministic"]["digest"],
            f"{workload}: another seed changes the inputs",
        )
        trace_file = ROOT / detail_t["trace_file"]
        events = json.loads(trace_file.read_text())["traceEvents"]
        check(
            any(e["ph"] == "X" and e["name"] == "bench.timed" for e in events),
            f"{workload}: span file holds the timed section",
        )
        check(
            all(abs(x - 1.0) < 1e-9 for x in detail_t["self_sum_over_timed"]),
            f"{workload}: layer self times sum to the traced timed section",
        )

    scratch = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))
    try:
        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, _, result = run(bare, "q1_standalone", 1, 0)
        check(code != 0 and result is None, "without the program source: non-zero exit, no result")

        strict = scratch / "strict"
        shutil.copytree(bare, strict)
        shutil.copytree(ROOT / "src", strict / "src", ignore=shutil.ignore_patterns("__pycache__"))
        spec_path = strict / "perfbench" / "spec.json"
        spec = json.loads(spec_path.read_text())
        spec["workloads"]["q1_standalone"]["error_ceiling"] = 0.0
        spec_path.write_text(json.dumps(spec))
        code, _, result = run(strict, "q1_standalone", 1, 0)
        check(
            code == 1 and result is not None and not result["correct"],
            "error_mean above its ceiling: exit 1 and correct false",
        )

        broken = scratch / "broken"
        shutil.copytree(bare, broken)
        shutil.copytree(ROOT / "src", broken / "src", ignore=shutil.ignore_patterns("__pycache__"))
        with open(broken / "src" / "repro" / "core" / "pecj.py", "a") as fh:
            fh.write(NAN_ANSWERS)
        code, _, result = run(broken, "q1_standalone", 1, 0)
        check(
            code == 1
            and result is not None
            and not result["correct"]
            and result["failed"] > 0
            and result["metrics"]["answered_share"]["value"] < 1.0,
            "non-finite answers: counted failed, lower answered_share, exit 1",
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
