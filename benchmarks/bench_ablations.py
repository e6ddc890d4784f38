"""Ablations of PECJ's design choices (beyond the paper's figures).

DESIGN.md §6 calls out the design decisions worth isolating:

* **Adaptive vs fixed EMA decay** — the paper motivates AEMA by "the
  parameters of the filter should dynamically evolve with the data
  streams, rather than being preset" (Section 5.1).  We pin the
  Trigg-Leach rate to a constant and measure the cost on a stream whose
  level shifts.
* **Delay-shape context on/off** — the learning backend's regime reading
  (what lets it survive Section 6.5's non-stationary disorder).
* **Observation granularity** — sub-window buckets vs one observation per
  window (the PECJ-PRJ vs PECJ-SHJ integration difference, isolated).
"""

import numpy as np

from benchmarks.conftest import bench_scale, emit
from repro.bench.reporting import format_table
from repro.bench.workloads import micro_spec, q1_spec, q3_spec
from repro.core.estimators.aema import AEMAEstimator
from repro.core.estimators.mlp_backend import MLPEstimator
from repro.core.pecj import PECJoin
from repro.joins.runner import run_operator


def _run(spec, operator, omega=None, arrays=None):
    omega = spec.omega_ms if omega is None else omega
    if arrays is None:
        arrays = spec.build()
    return run_operator(
        operator,
        arrays,
        spec.window_ms,
        omega,
        t_start=spec.t_start,
        t_end=spec.t_end,
        warmup_windows=spec.warmup_windows,
    )


def _shifting_rate_spec(scale):
    """A micro workload whose event rate steps 100 -> 160 tuples/ms."""
    from dataclasses import replace

    from repro.streams.datasets import MicroDataset

    class SteppedMicro(MicroDataset):
        def _event_times(self, side, duration_ms, rate, rng):
            first = super()._event_times(side, duration_ms / 2, rate, rng)
            second = super()._event_times(side, duration_ms / 2, rate * 1.6, rng)
            return np.concatenate([first, second + duration_ms / 2])

    spec = micro_spec(rate=100.0, duration_ms=4000.0, warmup_ms=500.0).scaled(scale)
    return replace(spec, dataset=SteppedMicro(num_keys=10), name="micro-step")


def ablation_adaptive_vs_fixed_ema(scale: float) -> list[dict]:
    spec = _shifting_rate_spec(scale)
    arrays = spec.build()
    rows = []
    for label, factory in (
        ("AEMA (adaptive)", lambda: AEMAEstimator()),
        ("EMA (fixed 0.05)", lambda: AEMAEstimator(alpha_min=0.05, alpha_max=0.05)),
        ("EMA (fixed 0.3)", lambda: AEMAEstimator(alpha_min=0.3, alpha_max=0.3)),
    ):
        op = PECJoin(spec.agg, backend="aema", estimator_factory=factory)
        op.name = label
        res = _run(spec, op, arrays=arrays)
        rows.append({"variant": label, "error": res.mean_error})
    return rows


class _ShapeBlindMLP(MLPEstimator):
    """The MLP backend with the delay-shape ratios of its context held at
    the neutral 1.0; it still reads the assumed completeness."""

    def set_context(self, context):
        super().set_context((context[0], 1.0, 1.0, 1.0))


def ablation_delay_context(scale: float) -> list[dict]:
    spec = q3_spec().scaled(scale)
    arrays = spec.build()
    rows = []
    for label, factory in (("with delay context", None), ("without", _ShapeBlindMLP)):
        op = PECJoin(spec.agg, backend="mlp", estimator_factory=factory)
        res = _run(spec, op, arrays=arrays)
        rows.append({"variant": label, "error": res.mean_error})
    return rows


def ablation_bucket_granularity(scale: float) -> list[dict]:
    spec = q1_spec().scaled(scale)
    arrays = spec.build()
    rows = []
    for buckets in (1, 2, 5, 10, 20):
        op = PECJoin(spec.agg, backend="aema", buckets_per_window=buckets)
        res = _run(spec, op, omega=7.0, arrays=arrays)
        rows.append({"buckets_per_window": buckets, "error": res.mean_error})
    return rows


def test_ablation_adaptive_vs_fixed_ema(benchmark):
    rows = benchmark.pedantic(
        ablation_adaptive_vs_fixed_ema, args=(bench_scale(),), rounds=1, iterations=1
    )
    emit("Ablation: adaptive vs fixed EMA on a level-shifting stream",
         format_table(rows))
    errors = {r["variant"]: r["error"] for r in rows}
    # The adaptive filter must not lose to either preset rate.
    assert errors["AEMA (adaptive)"] <= min(
        errors["EMA (fixed 0.05)"], errors["EMA (fixed 0.3)"]
    ) * 1.15


def test_ablation_delay_context(benchmark):
    rows = benchmark.pedantic(
        ablation_delay_context, args=(bench_scale(),), rounds=1, iterations=1
    )
    emit("Ablation: learning backend's delay-shape context (Q3)",
         format_table(rows))
    errors = {r["variant"]: r["error"] for r in rows}
    assert errors["with delay context"] < errors["without"]


def test_ablation_bucket_granularity(benchmark):
    rows = benchmark.pedantic(
        ablation_bucket_granularity, args=(bench_scale(),), rounds=1, iterations=1
    )
    emit("Ablation: observation buckets per window (Q1, omega = 7ms)",
         format_table(rows))
    errors = {r["buckets_per_window"]: r["error"] for r in rows}
    # Sub-window granularity must help relative to window-level obs.
    assert errors[10] <= errors[1]
