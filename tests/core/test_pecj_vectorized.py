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

import pytest

from repro.core.pecj import PECJoin
from repro.faults.inject import apply_faults
from repro.faults.plan import reference_burst_plan
from repro.joins.arrays import AggKind
from repro.joins.runner import run_operator
from repro.joins.sliding import run_sliding_operator
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_arrays
from tests.oracles.pecj_loop import ReferencePECJoin

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
