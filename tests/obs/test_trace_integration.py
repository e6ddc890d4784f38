"""Integration checks of the instrumented trace sites.

Three properties anchor the tracing layer:

* **equivalence** — running with tracing enabled changes no computed
  value relative to the untraced run;
* **coverage** — the acceptance set of events exists: engine phase
  spans, window lifecycle spans, and PECJ estimator samples for every
  backend;
* **determinism** — executor worker traces merge to byte-identical
  exports regardless of sharding.
"""

import json

import pytest

from repro import obs
from repro.obs import trace
from repro.obs.trace import TraceRecorder
from repro.core.pecj import PECJoin
from repro.engine.simulator import ParallelJoinEngine
from repro.joins.arrays import AggKind
from repro.joins.base import StreamJoinOperator
from repro.joins.baselines import WatermarkJoin
from repro.joins.runner import run_operator
from repro.streaming.kslack import KSlackBuffer
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_arrays
from repro.streams.tuples import Side, StreamTuple
from repro.streams.watermarks import AdaptiveWatermark, suggest_omega


def small_arrays(seed=11):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=50),
        UniformDelay(5.0),
        duration_ms=400.0,
        rate_r=40.0,
        rate_s=40.0,
        seed=seed,
    )


def run_wmj(arrays):
    return run_operator(
        WatermarkJoin(AggKind.COUNT), arrays, 10.0, 12.0,
        t_start=50.0, t_end=380.0,
    )


class TestEquivalence:
    """Tracing must observe, never perturb."""

    def test_runner_values_identical_with_tracing(self):
        off = run_wmj(small_arrays())
        with trace.tracing() as rec:
            on = run_wmj(small_arrays())
        assert rec.events  # the traced run actually recorded
        assert on.mean_error == off.mean_error
        assert on.p95_latency == off.p95_latency
        assert [(r.window.start, r.value, r.expected) for r in on.records] == [
            (r.window.start, r.value, r.expected) for r in off.records
        ]

    def test_engine_values_identical_with_tracing(self):
        def run():
            engine = ParallelJoinEngine(
                "prj", threads=4, agg=AggKind.COUNT, pecj=True, omega=10.0
            )
            return engine.run(small_arrays(), t_start=50.0, t_end=380.0,
                              warmup_windows=5)

        off = run()
        with trace.tracing() as rec:
            on = run()
        assert rec.events
        assert on.mean_error == off.mean_error
        assert [r.value for r in on.records] == [r.value for r in off.records]


class TestRunnerTrace:
    def test_window_lifecycle_spans(self):
        with trace.tracing() as rec:
            res = run_wmj(small_arrays())
        windows = [e for e in rec.events if e.name == "window"]
        total = len(res.records) + len(res.warmup_records)
        assert len(windows) == total
        w = windows[0]
        assert w.cat == "window" and w.track == "runner.WMJ"
        assert {"value", "expected", "error", "contributing", "warmup"} <= set(w.args)
        phases = {e.name for e in rec.events if e.cat == "phase"}
        assert {"observe", "drain"} <= phases

    def test_phase_spans_partition_the_window(self):
        with trace.tracing() as rec:
            run_wmj(small_arrays())
        by_track = [e for e in rec.events if e.track == "runner.WMJ"]
        window = next(e for e in by_track if e.name == "window")
        observe = next(e for e in by_track if e.name == "observe")
        drain = next(e for e in by_track if e.name == "drain")
        assert observe.ts == window.ts
        assert observe.ts + observe.dur == pytest.approx(drain.ts)
        assert drain.ts + drain.dur == pytest.approx(window.ts + window.dur)


class TestEstimatorSamples:
    @pytest.mark.parametrize("backend", ["aema", "svi", "mlp"])
    def test_backend_emits_samples(self, backend):
        op = PECJoin(AggKind.COUNT, backend=backend, learning_inference_ms=0.0)
        with trace.tracing() as rec:
            run_operator(op, small_arrays(), 10.0, 12.0, t_start=50.0, t_end=380.0)
        samples = [e for e in rec.events if e.name == "pecj.sample"]
        assert samples, f"no estimator samples for backend {backend}"
        s = samples[0]
        assert s.track == f"pecj.{backend}"
        expected_keys = {
            "window_start", "r_bar_r", "r_bar_s", "sigma", "alpha",
            "value", "interval_lo", "interval_hi", "interval_rel_width",
            "clamped", "obs_r", "obs_s",
        }
        assert expected_keys <= set(s.args)
        assert s.args["interval_lo"] <= s.args["value"] <= s.args["interval_hi"]
        # Everything must be JSON-clean (no numpy scalars).
        json.dumps(s.args)

    def test_cold_windows_marked(self):
        from repro.streams.windows import Window

        arrays = small_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema")
        op.prepare(arrays, 10.0, 12.0)
        with trace.tracing() as rec:
            # Before any delay has been ingested the estimators are cold
            # and the window answers like WMJ — the trace must say so.
            op.process_window(arrays, Window(0.0, 10.0), 0.5)
        assert [e.name for e in rec.events] == ["pecj.cold"]

    def test_interval_width_gauge_and_histogram(self):
        op = PECJoin(AggKind.COUNT, backend="aema")
        res = run_operator(op, small_arrays(), 10.0, 12.0, t_start=50.0, t_end=380.0)
        assert "pecj.aema.interval_rel_width.last" in res.metrics["gauges"]
        assert res.metrics["histograms"]["pecj.aema.interval_rel_width"]["count"] > 0


class TestEngineTrace:
    def test_prj_phase_spans(self):
        engine = ParallelJoinEngine("prj", threads=4, agg=AggKind.COUNT)
        with trace.tracing() as rec:
            engine.run(small_arrays(), t_start=50.0, t_end=380.0)
        names = {e.name for e in rec.events}
        assert {"prj.batch", "prj.partition", "prj.build_probe", "prj.sync"} <= names
        batch = next(e for e in rec.events if e.name == "prj.batch")
        nested = [
            e for e in rec.events
            if e.name.startswith("prj.") and e.name != "prj.batch"
            and e.ts >= batch.ts and e.ts + e.dur <= batch.ts + batch.dur + 1e-9
        ]
        assert nested, "phase spans nest inside their batch span"

    def test_eager_worker_spans(self):
        engine = ParallelJoinEngine("shj", threads=3, agg=AggKind.COUNT)
        with trace.tracing() as rec:
            engine.run(small_arrays(), t_start=50.0, t_end=380.0)
        tracks = {e.track for e in rec.events if e.name == "worker.busy"}
        assert tracks == {f"engine.SHJ.t{i}" for i in range(3)}

    def test_engine_window_spans(self):
        engine = ParallelJoinEngine("prj", threads=4, agg=AggKind.COUNT, pecj=True)
        with trace.tracing() as rec:
            res = engine.run(small_arrays(), t_start=50.0, t_end=380.0,
                             warmup_windows=5)
        spans = [e for e in rec.events
                 if e.name == "window" and e.track == "engine.PECJ-PRJ"]
        measured = [e for e in spans if not e.args["warmup"]]
        assert len(measured) == len(res.records)


class TestBufferTrace:
    def test_kslack_events(self):
        buf = KSlackBuffer(slack=5.0)

        def t(event, arrival, seq):
            return StreamTuple(1, 1.0, event, arrival, Side.R, seq)

        with trace.tracing() as rec, obs.scoped() as reg:
            buf.push(t(0.0, 1.0, 0))
            buf.push(t(10.0, 11.0, 1))   # releases the first tuple
            buf.push(t(1.0, 12.0, 2))    # asynchronous: behind watermark-K
        names = [e.name for e in rec.events]
        assert "kslack.release" in names
        assert "kslack.async_release" in names
        assert reg.snapshot()["counters"]["kslack.asynchronous_releases"] == 1

    def test_watermark_trace(self):
        wm = AdaptiveWatermark()
        for i in range(20):
            wm.observe(StreamTuple(1, 1.0, float(i), float(i) + 2.0, Side.R, i))
        with trace.tracing() as rec:
            suggest_omega(wm, 10.0)
        names = [e.name for e in rec.events]
        assert names == ["watermark.suggest_omega"]
        omega_event = rec.events[0]
        assert omega_event.args["omega"] >= 10.0


class _NegativeEmitOperator(StreamJoinOperator):
    """Pathological operator: emits before its inputs arrive."""

    name = "NegEmit"
    pipeline_method = "wmj"

    def process_window(self, arrays, window, available_by):
        return 0.0, -1e6  # huge negative extra emission cost


class TestNegativeLatencyRegression:
    def test_negative_samples_surfaced_not_hidden(self):
        res = run_operator(
            _NegativeEmitOperator(AggKind.COUNT), small_arrays(), 10.0, 12.0,
            t_start=50.0, t_end=380.0,
        )
        assert res.latency.negative_samples > 0
        # Clamped in the percentile data...
        assert res.p95_latency >= 0.0
        # ...but surfaced in the summary, the metrics and the report.
        assert res.summary()["negative_latency_samples"] == float(
            res.latency.negative_samples
        )
        counters = res.metrics["counters"]
        assert counters["latency.negative_samples"] == res.latency.negative_samples
        health = obs.summarize_run(res.metrics)
        assert health["latency_negative_samples"] == res.latency.negative_samples

    def test_clean_run_reports_zero(self):
        res = run_wmj(small_arrays())
        assert res.summary()["negative_latency_samples"] == 0.0


class TestTraceSummary:
    def test_summarize_trace_counts(self):
        op = PECJoin(AggKind.COUNT, backend="aema")
        with trace.tracing() as rec:
            run_operator(op, small_arrays(), 10.0, 12.0, t_start=50.0, t_end=380.0)
        summary = obs.summarize_trace(rec.sorted_events())
        assert summary["events"] == len(rec.events)
        assert summary["estimator_samples"]["pecj.aema"] > 0
        assert "runner.PECJ-aema" in summary["spans_by_track"]
