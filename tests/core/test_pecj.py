"""Integration-grade tests for the PECJ operator."""

import numpy as np
import pytest

from repro.core.pecj import PECJoin, make_estimator
from repro.joins.arrays import AggKind
from repro.joins.baselines import WatermarkJoin
from repro.joins.runner import run_operator
from repro.streams.datasets import make_dataset
from repro.streams.disorder import NoDisorder, UniformDelay
from repro.streaming.operators import StreamingPECJ
from repro.streams.sources import make_disordered_arrays, make_disordered_pair

WLEN = 10.0


def micro_arrays(delay=None, seed=5, duration=1500.0, rate=50.0):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=10),
        delay or UniformDelay(5.0),
        duration,
        rate,
        rate,
        seed=seed,
    )


def micro_pair(seed=5, duration=1500.0, rate=50.0):
    merged, _, _ = make_disordered_pair(
        make_dataset("micro", num_keys=10), UniformDelay(5.0), duration, rate, rate, seed=seed
    )
    return merged


def run(op, arrays, omega=10.0, warmup=30):
    return run_operator(
        op, arrays, WLEN, omega, t_start=50.0, t_end=1450.0, warmup_windows=warmup
    )


class TestFactory:
    def test_known_backends(self):
        assert make_estimator("aema") is not None
        assert make_estimator("svi") is not None
        with pytest.raises(ValueError):
            make_estimator("transformer")

    def test_unknown_backend_in_operator(self):
        op = PECJoin(AggKind.COUNT, backend="bogus")
        with pytest.raises(ValueError):
            op.prepare(micro_arrays(), WLEN, 10.0)

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            PECJoin(AggKind.COUNT, buckets_per_window=0)

    def test_learning_inference_defaults(self):
        assert PECJoin(AggKind.COUNT, backend="aema").learning_inference_ms == 0.0
        assert PECJoin(AggKind.COUNT, backend="mlp").learning_inference_ms == 90.0


@pytest.mark.parametrize("backend", ["aema", "svi"])
class TestAnalyticalBackends:
    def test_beats_wmj_under_disorder(self, backend):
        arrays = micro_arrays()
        pecj = run(PECJoin(AggKind.COUNT, backend=backend), arrays)
        wmj = run(WatermarkJoin(AggKind.COUNT), arrays)
        assert pecj.mean_error < 0.5 * wmj.mean_error

    def test_sum_aggregation_also_compensated(self, backend):
        arrays = micro_arrays()
        pecj = run(PECJoin(AggKind.SUM, backend=backend), arrays)
        wmj = run(WatermarkJoin(AggKind.SUM), arrays)
        assert pecj.mean_error < 0.5 * wmj.mean_error

    def test_latency_matches_baseline(self, backend):
        """Compensation must not add meaningful latency (paper Fig. 6a)."""
        arrays = micro_arrays()
        pecj = run(PECJoin(AggKind.COUNT, backend=backend), arrays)
        wmj = run(WatermarkJoin(AggKind.COUNT), arrays)
        assert pecj.p95_latency == pytest.approx(wmj.p95_latency, rel=0.05)


class TestOperatorBehaviour:
    def test_in_order_streams_give_near_exact_answers(self):
        arrays = micro_arrays(delay=NoDisorder())
        res = run(PECJoin(AggKind.COUNT, backend="aema"), arrays)
        assert res.mean_error < 0.02

    def test_avg_aggregation(self):
        arrays = micro_arrays()
        res = run(PECJoin(AggKind.AVG, backend="aema"), arrays)
        assert res.mean_error < 0.1

    def test_debug_records_capture_components(self):
        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema", debug=True)
        run(op, arrays)
        assert op.debug_records
        rec = op.debug_records[-1]
        for key in ("n_r_est", "n_r_true", "sigma_est", "sigma_true", "value"):
            assert key in rec

    def test_estimates_track_truth_componentwise(self):
        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema", debug=True)
        run(op, arrays)
        recs = op.debug_records[50:]
        nr_err = np.mean(
            [abs(r["n_r_est"] - r["n_r_true"]) / r["n_r_true"] for r in recs]
        )
        sg_err = np.mean(
            [
                abs(r["sigma_est"] - r["sigma_true"]) / r["sigma_true"]
                for r in recs
                if r["sigma_true"] > 0
            ]
        )
        assert nr_err < 0.06
        assert sg_err < 0.12

    def test_cold_start_answers_exactly_the_observed_aggregate(self):
        """Without warm estimators PECJ must not fabricate compensation."""
        from repro.streams.windows import Window

        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema")
        op.prepare(arrays, WLEN, 10.0)
        # Availability so early that almost nothing has been ingested:
        # the delay profile stays cold and the operator must answer with
        # the plain observed aggregate.
        value, _ = op.process_window(arrays, Window(0.0, 10.0), 0.3)
        observed = arrays.aggregate(0.0, 10.0, 0.3).value(AggKind.COUNT)
        assert value == observed

    def test_small_omega_relies_on_prior(self):
        """omega < |W|: later buckets are unobservable, prior fills in."""
        arrays = micro_arrays()
        res = run(PECJoin(AggKind.COUNT, backend="aema"), arrays, omega=7.0)
        wmj = run(WatermarkJoin(AggKind.COUNT), arrays, omega=7.0)
        assert res.mean_error < 0.25 * wmj.mean_error

    def test_compensated_values_bounded_by_plausibility(self):
        """Compensation never produces wildly impossible outputs."""
        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema")
        res = run(op, arrays)
        for rec in res.records:
            assert rec.value <= rec.expected * 3.0 + 100.0
            assert rec.value >= 0.0


class TestCredibleIntervals:
    """The compensated output's 95% interval (paper Eq. 10 extended to
    the product) must bracket the truth at roughly the nominal rate."""

    def test_interval_present_after_warmup(self):
        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema")
        run(op, arrays)
        assert op.last_interval is not None
        lo, hi = op.last_interval
        assert lo <= hi
        assert lo >= 0.0

    def test_interval_coverage_near_nominal(self):
        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema")
        covered = []
        original = op.process_window

        def wrapped(arrays_, window, avail):
            value, extra = original(arrays_, window, avail)
            truth = arrays_.aggregate(window.start, window.end, None).value(
                AggKind.COUNT
            )
            if op.last_interval is not None:
                lo, hi = op.last_interval
                covered.append(lo <= truth <= hi)
            return value, extra

        op.process_window = wrapped
        run(op, arrays)
        coverage = float(np.mean(covered[30:]))
        assert coverage > 0.75  # loose lower bound for a 95% interval

    def test_cold_operator_has_no_interval(self):
        from repro.streams.windows import Window

        arrays = micro_arrays()
        op = PECJoin(AggKind.COUNT, backend="aema")
        op.prepare(arrays, WLEN, 10.0)
        op.process_window(arrays, Window(0.0, 10.0), 0.3)
        assert op.last_interval is None


class TestDelayContext:
    """The delay-shape context is built only for estimators that read it."""

    @pytest.mark.parametrize("backend", ["aema", "svi"])
    def test_analytical_backends_build_no_context(self, backend, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"{backend} built a delay context it discards")

        monkeypatch.setattr(PECJoin, "_delay_context", refuse)
        monkeypatch.setattr(StreamingPECJ, "_delay_context", refuse)
        op = PECJoin(AggKind.COUNT, backend=backend)
        run(op, micro_arrays())
        assert not op._wants_context
        push = StreamingPECJ(WLEN, 10.0, backend=backend)
        for t in micro_pair(duration=600.0).in_arrival_order():
            push.push(t)
        push.finish()
        assert push.scored

    def test_mlp_builds_a_context_up_to_the_last_window(self, monkeypatch):
        built = []
        context = PECJoin._delay_context

        def counting(self, *args):
            built.append(args[1].start)
            return context(self, *args)

        monkeypatch.setattr(PECJoin, "_delay_context", counting)
        op = PECJoin(AggKind.COUNT, backend="mlp")
        result = run(op, micro_arrays(duration=600.0), warmup=5)
        assert op._wants_context
        assert 0 < len(built) <= len(result.warmup_records) + len(result.records)
        assert built[-1] == result.records[-1].window.start
