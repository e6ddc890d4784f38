"""Byte-identity of PECJ's fused estimator path vs the reference loop.

``PECJoin`` batches the per-bucket rate observations and per-window
bucket sweeps into single numpy expressions.  The contract is not
"close": every emitted window record must be bit-identical to the
per-bucket reference loop (``ReferencePECJoin`` in
``tests/oracles/pecj_loop.py``), across backends, aggregations, fault
injection and sliding grids — the same bar the parallel executor is
held to.
"""

import json

import numpy as np
import pytest

from repro.core.pecj import PECJoin
from repro.core.persistence import checkpoint_operator
from repro.faults.inject import apply_faults
from repro.faults.plan import reference_burst_plan
from repro.joins.arrays import AggKind, BatchArrays
from repro.joins.pipeline import CostModel, apply_pipeline_costs
from repro.joins.runner import run_operator
from repro.joins.sliding import run_sliding_operator
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_arrays
from repro.streams.windows import TumblingWindows
from tests.oracles.pecj_loop import PerBucketPECJoin, ReferencePECJoin

WLEN = 10.0


def micro_arrays(seed=5):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=10),
        UniformDelay(5.0),
        1500.0,
        50.0,
        50.0,
        seed=seed,
    )


def run(op, arrays, omega=10.0):
    return run_operator(
        op, arrays, WLEN, omega, t_start=50.0, t_end=1450.0, warmup_windows=30
    )


def record_bytes(result):
    """Every per-window output field, serialised for exact comparison."""
    return json.dumps(
        [
            [
                r.window.start,
                float(r.value),
                float(r.expected),
                float(r.error),
                float(r.cutoff),
                float(r.emit_time),
            ]
            for r in result.records
        ]
    )


def assert_identical(make_op, arrays, omega=10.0):
    fused = run(make_op(PECJoin), arrays, omega=omega)
    reference = run(make_op(ReferencePECJoin), arrays, omega=omega)
    assert record_bytes(fused) == record_bytes(reference)


@pytest.mark.parametrize("backend", ["aema", "svi", "mlp"])
@pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM, AggKind.AVG])
def test_backends_and_aggregations(backend, agg):
    arrays = micro_arrays()
    assert_identical(
        lambda cls: cls(backend=backend, agg=agg),
        arrays,
    )


def test_small_omega_prior_path():
    """omega < |W| leaves later buckets unobservable — the additive
    prior blend must stay identical too."""
    arrays = micro_arrays(seed=7)
    assert_identical(
        lambda cls: cls(backend="aema"),
        arrays,
        omega=7.0,
    )


def test_coarse_and_fine_bucket_grids():
    arrays = micro_arrays(seed=8)
    for bpw in (1, 5, 20):
        assert_identical(
            lambda cls: cls(backend="aema", buckets_per_window=bpw),
            arrays,
        )


def test_under_fault_injection():
    """Chaos rows go through the same estimator loops; the disorder
    burst shifts completeness sharply mid-run."""
    arrays, _ = apply_faults(micro_arrays(seed=9), reference_burst_plan(300.0, 700.0))
    for backend in ("aema", "svi"):
        assert_identical(
            lambda cls, b=backend: cls(backend=b),
            arrays,
        )


def test_sliding_grids_with_nonzero_origins():
    """Phase-shifted tumbling grids exercise nonzero bucket origins."""
    arrays = micro_arrays(seed=10)

    def run_slide(cls):
        return run_sliding_operator(
            lambda origin: cls(backend="aema", origin=origin),
            arrays,
            window_length=20.0,
            slide=5.0,
            omega=20.0,
            t_start=100.0,
            t_end=1100.0,
            warmup_windows=10,
        )

    assert record_bytes(run_slide(PECJoin)) == record_bytes(run_slide(ReferencePECJoin))


def _inexact_grid():
    """``(origin, window_length, edges)`` of a grid where rounding ends
    some bucket away from the next one's start (``edges`` lists each such
    ``(end_b, start_b+1)`` pair over the first 400 windows)."""
    for wlen in (0.7, 1.1, 1.3, 2.9, 3.3):
        blen = wlen / 10
        for origin in (0.1, 0.3, 0.35, 0.7):
            edges = []
            for b in range(4000):
                end = origin + b * blen + blen
                nxt = origin + (b + 1) * blen
                if end != nxt:
                    edges.append((end, nxt))
            if len(edges) >= 20:
                return origin, wlen, edges
    return None


def _edge_arrays(origin, wlen, edges, seed=11):
    """A random stream plus tuples on every inexact bucket edge, on each
    window's end and one ulp either side of both."""
    rng = np.random.default_rng(seed)
    duration = 400 * wlen
    n = 8000
    base = rng.uniform(origin, origin + duration, n)
    window_ends = [origin + w * wlen + wlen for w in range(400)]
    marks = np.array([v for pair in edges for v in pair] + window_ends)
    marks = np.concatenate(
        (marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf))
    )
    event = np.concatenate((base, marks))
    m = len(event)
    arrival = event + rng.uniform(0.0, 0.8 * wlen, m)
    return BatchArrays(
        event, arrival, rng.integers(0, 10, m), rng.uniform(0.0, 1.0, m),
        rng.random(m) < 0.5,
    )


def test_inexact_bucket_edges_and_clipped_window_ends():
    """Byte-identical to the per-bucket loop on a grid whose bucket ends
    miss the next start by an ulp, with tuples on those edges, on the
    clipped window ends and one ulp either side — over a whole run and a
    run split by a mid-run checkpoint."""
    found = _inexact_grid()
    assert found is not None, "no grid with inexact bucket edges"
    origin, wlen, edges = found
    arrays = _edge_arrays(origin, wlen, edges)
    t_start, t_mid, t_end = origin + 20 * wlen, origin + 150 * wlen, origin + 390 * wlen

    def run_grid(cls, t0, t1, resume_state=None):
        op = cls(backend="aema", origin=origin)
        result = run_operator(
            op, arrays, wlen, wlen, t_start=t0, t_end=t1, warmup_windows=0,
            origin=origin, resume_state=resume_state,
        )
        return op, result

    _, reference = run_grid(PerBucketPECJoin, t_start, t_end)
    _, fused = run_grid(PECJoin, t_start, t_end)
    assert record_bytes(fused) == record_bytes(reference)
    assert any(r.value != r.expected for r in fused.records)

    op1, first = run_grid(PECJoin, t_start, t_mid)
    snapshot = json.loads(json.dumps(checkpoint_operator(op1)))
    _, second = run_grid(PECJoin, t_mid, t_end, resume_state=snapshot)
    split = json.loads(record_bytes(first)) + json.loads(record_bytes(second))
    assert split == json.loads(record_bytes(reference))


def _drive_cutoffs(cls, arrays, wlen, origin, steps):
    """Call ``process_window`` by hand for ``(window index, cutoff)``
    steps, returning the outputs and the counted-prefix length after each."""
    apply_pipeline_costs(arrays, "pecj", CostModel(), slack=wlen)
    op = cls(backend="aema", origin=origin)
    op.prepare(arrays, wlen, wlen)
    op.bind_aggregator(arrays.aggregator(wlen, origin))
    windows = TumblingWindows(wlen, origin=origin)
    outputs, cursors = [], []
    for w, cutoff in steps:
        outputs.append(list(op.process_window(arrays, windows.window_at(w), cutoff)))
        outputs[-1].append(op.last_interval)
        cursors.append(op._count_cursor)
    return json.dumps(outputs), cursors


@pytest.mark.parametrize("grid", ["exact", "inexact"])
def test_cutoffs_that_go_back(grid):
    """A ``now`` that steps back by several buckets (as under guard
    widening or PRJ) subtracts the overhang from the drained counts; the
    outputs stay byte-identical to the per-bucket loop."""
    if grid == "exact":
        origin, wlen = 0.0, WLEN
        arrays = micro_arrays(seed=12)
        blen = wlen / 10
        assert all(origin + b * blen + blen == origin + (b + 1) * blen for b in range(2000))
    else:
        origin, wlen, edges = _inexact_grid()
        arrays = _edge_arrays(origin, wlen, edges)
        blen = wlen / 10
    rng = np.random.default_rng(3)
    steps = []
    for w in range(20, 140):
        start = origin + w * wlen
        steps.append((w, start + wlen))
        if w % 3 == 0:
            # Back by 1.5 to 25 buckets, into earlier windows too.
            steps.append((w, start + wlen - rng.uniform(1.5, 25.0) * blen))
    fused, cursors = _drive_cutoffs(PECJoin, arrays, wlen, origin, steps)
    reference, _ = _drive_cutoffs(PerBucketPECJoin, arrays, wlen, origin, steps)
    assert fused == reference
    assert sum(b < a for a, b in zip(cursors, cursors[1:])) >= 30
    assert sum(row[2] is not None for row in json.loads(fused)) > len(steps) // 2
