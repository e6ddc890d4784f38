"""Golden outputs of the push operators, pinned across state rewrites.

``golden_streaming.json`` holds what ``StreamingWMJ``, ``StreamingKSJ``
and ``StreamingPECJ`` produced on two seeded streams when the window
state was still the per-key symmetric hash table (now
``tests/oracles/symmetric_state.py``): every emission's
``(window_start, value, emit_time, observed)``, every scored window's
``(value, truth, error)`` and the ``dropped_late`` count.  The columnar
state must reproduce them: COUNT bit for bit; for SUM and AVG, values and
truths to 1e-12 relative and errors to 1e-12 absolute (a bincount fold
sums joined payloads in a different order, and an error is a difference
of two such sums).

The two streams:

* ``micro`` — ``make_disordered_pair`` on the micro dataset under a
  heavy-tailed Pareto delay (stragglers past the horizon get dropped);
* ``grid`` — a uniform-delay stream whose arrival times are rounded up to
  the 1 ms grid, so many tuples share an arrival time and arrivals land
  exactly on emission cutoffs and finalization checks.

To recapture (only ever against the reference implementation), run
``PYTHONPATH=src python tests/streaming/test_golden.py``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.joins.arrays import AggKind
from repro.streaming.operators import StreamingKSJ, StreamingPECJ, StreamingWMJ
from repro.streams.datasets import make_dataset
from repro.streams.disorder import ParetoDelay, UniformDelay
from repro.streams.sources import make_disordered_pair

GOLDEN = Path(__file__).with_name("golden_streaming.json")

DURATION_MS = 500.0
RATE = 15.0
TOL = 1e-12

OPERATORS = {
    "WMJ": lambda agg: StreamingWMJ(10.0, 10.0, agg),
    "KSJ": lambda agg: StreamingKSJ(10.0, 10.0, agg),
    "PECJ-aema": lambda agg: StreamingPECJ(10.0, 10.0, agg, backend="aema"),
    "PECJ-mlp": lambda agg: StreamingPECJ(10.0, 10.0, agg, backend="mlp", seed=3),
}

CASES = [
    (stream, op, agg)
    for stream in ("micro", "grid")
    for op in OPERATORS
    for agg in ("count", "sum", "avg")
    if not (op == "PECJ-mlp" and agg == "avg")
]


def stream_tuples(name: str):
    """The arrival-ordered tuples of one golden stream."""
    if name == "micro":
        merged, _, _ = make_disordered_pair(
            make_dataset("micro", num_keys=10),
            ParetoDelay(shape=1.5, scale=2.0, max_delay=60.0),
            DURATION_MS, RATE, RATE, seed=21,
        )
        return merged.in_arrival_order()
    if name == "grid":
        merged, _, _ = make_disordered_pair(
            make_dataset("micro", num_keys=10),
            UniformDelay(8.0),
            DURATION_MS, RATE, RATE, seed=22,
        )
        tuples = [t.with_arrival(float(math.ceil(t.arrival_time))) for t in merged]
        return sorted(tuples, key=lambda t: t.arrival_time)
    raise ValueError(name)


def run_case(stream: str, op_name: str, agg: str) -> dict:
    """Drive one operator over one stream and collect its outputs."""
    op = OPERATORS[op_name](AggKind(agg))
    emissions = []
    for t in stream_tuples(stream):
        emissions.extend(op.push(t))
    emissions.extend(op.finish())
    return {
        "emissions": [[e.window_start, e.value, e.emit_time, e.observed] for e in emissions],
        "scored": [[s.value, s.truth, s.error] for s in op.scored],
        "dropped_late": op.dropped_late,
    }


def case_id(stream: str, op_name: str, agg: str) -> str:
    return f"{stream}/{op_name}/{agg}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_close(got: float, want: float, exact: bool, what: str, absolute=False) -> None:
    if exact:
        assert got == want, what
    elif absolute:
        assert got == pytest.approx(want, rel=0.0, abs=TOL), what
    else:
        assert got == pytest.approx(want, rel=TOL, abs=0.0), what


@pytest.mark.parametrize("stream,op_name,agg", CASES, ids=[case_id(*c) for c in CASES])
def test_matches_golden(golden, stream, op_name, agg):
    want = golden[case_id(stream, op_name, agg)]
    got = run_case(stream, op_name, agg)
    exact = agg == "count"
    assert got["dropped_late"] == want["dropped_late"]
    assert len(got["emissions"]) == len(want["emissions"])
    for i, (g, w) in enumerate(zip(got["emissions"], want["emissions"])):
        g_start, g_value, g_emit, g_obs = g
        w_start, w_value, w_emit, w_obs = w
        assert (g_start, g_emit, g_obs) == (w_start, w_emit, w_obs), f"emission {i}"
        assert_close(g_value, w_value, exact, f"emission {i} value")
    assert len(got["scored"]) == len(want["scored"])
    for i, (g, w) in enumerate(zip(got["scored"], want["scored"])):
        for name, g_x, w_x in zip(("value", "truth", "error"), g, w):
            assert_close(g_x, w_x, exact, f"scored {i} {name}", absolute=name == "error")


def test_golden_streams_exercise_the_edges(golden):
    """The pinned runs must cover late drops and compensated answers."""
    assert any(golden[case_id("micro", op, "count")]["dropped_late"] for op in OPERATORS)
    for stream in ("micro", "grid"):
        pecj = golden[case_id(stream, "PECJ-aema", "count")]["emissions"]
        wmj = golden[case_id(stream, "WMJ", "count")]["emissions"]
        assert any(p[1] != w[1] for p, w in zip(pecj, wmj))
    ties = [t.arrival_time for t in stream_tuples("grid")]
    assert len(set(ties)) < len(ties) / 10


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({case_id(*c): run_case(*c) for c in CASES}, separators=(",", ":")) + "\n"
    )
