"""Tests for the push-based streaming operators."""

import collections
import math

import numpy as np
import pytest

from repro.core.estimators.aema import AEMAEstimator
from repro.joins.arrays import AggKind
from repro.streaming.operators import StreamingKSJ, StreamingPECJ, StreamingWMJ
from repro.streams.datasets import make_dataset
from repro.streams.disorder import NoDisorder, UniformDelay
from repro.streams.sources import make_disordered_pair
from repro.streams.tuples import Side, StreamTuple


def arrival_stream(delay=None, seed=5, duration=1200.0, rate=40.0):
    merged, _, _ = make_disordered_pair(
        make_dataset("micro", num_keys=10),
        delay or UniformDelay(5.0),
        duration,
        rate,
        rate,
        seed=seed,
    )
    return merged.in_arrival_order()


def drive(op, tuples):
    emissions = []
    for t in tuples:
        emissions.extend(op.push(t))
    emissions.extend(op.finish())
    return emissions


def steady_error(op, skip=30):
    scored = op.scored[skip:]
    assert scored
    return sum(s.error for s in scored) / len(scored)


class TestClockwork:
    def test_emissions_in_window_order_at_cutoff(self):
        op = StreamingWMJ(10.0, 10.0)
        emissions = drive(op, arrival_stream())
        starts = [e.window_start for e in emissions]
        assert starts == sorted(starts)
        for e in emissions:
            assert e.emit_time == pytest.approx(e.window_start + 10.0)

    def test_rejects_backwards_clock(self):
        op = StreamingWMJ(10.0, 10.0)
        op.push(StreamTuple(0, 1.0, 5.0, 8.0, Side.R))
        with pytest.raises(ValueError, match="backwards"):
            op.push(StreamTuple(0, 1.0, 5.0, 2.0, Side.R))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            StreamingWMJ(0.0, 10.0)
        with pytest.raises(ValueError):
            StreamingWMJ(10.0, -1.0)

    def test_memory_is_bounded_by_eviction(self):
        op = StreamingWMJ(10.0, 10.0)
        peak = 0
        for t in arrival_stream(duration=2000.0):
            op.push(t)
            peak = max(peak, op.live_windows)
        # Horizon ~ Delta + |W|: only a couple of windows stay live.
        assert peak <= 6

    def test_every_emitted_window_is_eventually_scored(self):
        op = StreamingWMJ(10.0, 10.0)
        emissions = drive(op, arrival_stream())
        assert len(op.scored) == len(emissions)

    def test_in_order_stream_is_exact(self):
        op = StreamingWMJ(10.0, 10.0)
        drive(op, arrival_stream(delay=NoDisorder()))
        assert steady_error(op) == pytest.approx(0.0, abs=1e-12)


class TestAccuracy:
    def test_wmj_and_ksj_align(self):
        tuples = arrival_stream()
        wmj = StreamingWMJ(10.0, 10.0)
        ksj = StreamingKSJ(10.0, 10.0)
        drive(wmj, tuples)
        drive(ksj, tuples)
        assert steady_error(ksj) == pytest.approx(steady_error(wmj), rel=0.05)

    def test_pecj_beats_wmj(self):
        tuples = arrival_stream()
        wmj = StreamingWMJ(10.0, 10.0)
        pecj = StreamingPECJ(10.0, 10.0, backend="aema")
        drive(wmj, tuples)
        drive(pecj, tuples)
        assert steady_error(pecj) < 0.35 * steady_error(wmj)

    def test_pecj_sum_aggregation(self):
        tuples = arrival_stream()
        wmj = StreamingWMJ(10.0, 10.0, AggKind.SUM)
        pecj = StreamingPECJ(10.0, 10.0, AggKind.SUM, backend="aema")
        drive(wmj, tuples)
        drive(pecj, tuples)
        assert steady_error(pecj) < 0.35 * steady_error(wmj)

    def test_streaming_matches_batch_pecj(self):
        """Push-based PECJ must land near the batch runner's error on the
        same stream (same estimator machinery, different plumbing)."""
        from repro.core.pecj import PECJoin
        from repro.joins.arrays import BatchArrays
        from repro.joins.runner import run_operator
        from repro.streams.sources import make_disordered_arrays

        arrays = make_disordered_arrays(
            make_dataset("micro", num_keys=10), UniformDelay(5.0), 1200.0, 40.0, 40.0, seed=5
        )
        batch = run_operator(
            PECJoin(AggKind.COUNT, backend="aema"),
            arrays,
            10.0,
            10.0,
            t_start=10.0,
            t_end=1190.0,
            warmup_windows=30,
        )
        pecj = StreamingPECJ(10.0, 10.0, backend="aema")
        drive(pecj, arrival_stream())
        assert steady_error(pecj) == pytest.approx(batch.mean_error, abs=0.03)


class TestLateHandling:
    def test_tuples_for_finalized_windows_are_dropped(self):
        op = StreamingWMJ(10.0, 10.0, horizon_ms=1.0)
        op.push(StreamTuple(0, 1.0, 5.0, 5.0, Side.R))
        op.advance(100.0)  # window [0, 10) emitted and finalized
        op.push(StreamTuple(0, 1.0, 6.0, 100.0, Side.R))
        assert op.dropped_late == 1

    def test_learning_inference_latency_charged(self):
        op = StreamingPECJ(10.0, 10.0, backend="aema", learning_inference_ms=90.0)
        emissions = drive(op, arrival_stream(duration=600.0))
        warm = [e for e in emissions if e.window_start > 200.0]
        for e in warm:
            assert e.emit_time == pytest.approx(e.window_start + 10.0 + 90.0)


class TestDegenerateWindows:
    """Regression: a zero-truth window with a compensated answer used to
    score its raw absolute miss, letting one empty window dominate
    ``mean_error``."""

    def gap_stream(self, gap_start=200.0, gap_end=210.0, duration=300.0, delay=15.0):
        """Single-key 1-tuple/ms-per-side stream, constant 15 ms delay,
        no events inside ``[gap_start, gap_end)``.  With ``omega = 10 <
        delay`` nothing has arrived by any cutoff, so a warm PECJ answers
        every window from its prior — including the truly empty one."""
        tuples = []
        for t in range(int(duration)):
            for offset, side in ((0.0, Side.R), (0.25, Side.S)):
                e = t + offset
                if gap_start <= e < gap_end:
                    continue
                tuples.append(StreamTuple(0, 1.0, e, e + delay, side))
        return sorted(tuples, key=lambda t: t.arrival_time)

    def test_empty_window_cannot_dominate_mean_error(self):
        op = StreamingPECJ(10.0, 10.0, backend="aema")
        drive(op, self.gap_stream())
        gap = next(s for s in op.scored if s.window_start == 200.0)
        assert gap.truth == 0.0
        # Compensation really fired (the prior predicts ~100 matches)...
        assert gap.value > 1.0
        # ...but the empty window scores at most 1.
        assert gap.error <= 1.0
        assert op.mean_error < 1.0


def grid_stream(seed=9, duration=800.0, rate=40.0):
    """Arrivals rounded up to the 1 ms grid: they tie, and they land
    exactly on emission cutoffs and finalization checks."""
    tuples = [t.with_arrival(float(math.ceil(t.arrival_time)))
              for t in arrival_stream(UniformDelay(8.0), seed, duration, rate)]
    return sorted(tuples, key=lambda t: t.arrival_time)


def always_advancing(cls):
    """``cls`` with the old push clockwork: ``advance`` on every push.

    ``push`` calls ``advance`` once ``clock >= _wake``; pinning ``_wake``
    at ``-inf`` makes that every push.
    """

    class AlwaysAdvance(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._wake = -math.inf

        def _rewake(self):
            super()._rewake()
            self._wake = -math.inf

    return AlwaysAdvance


class TestSkippedAdvance:
    """``push`` calls ``advance`` only when it has work; pushes that skip
    it must leave exactly the state an ``advance`` call would have."""

    @pytest.mark.parametrize("stream", [arrival_stream, grid_stream])
    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    @pytest.mark.parametrize("omega", [10.0, 15.0])
    def test_same_outputs_as_advancing_every_push(self, stream, cls, omega):
        fast = cls(10.0, omega)
        slow = always_advancing(cls)(10.0, omega)
        for t in stream(duration=400.0):
            assert fast.push(t) == slow.push(t)
            if cls is StreamingPECJ:
                assert fast.profile.weight == slow.profile.weight
        assert fast.finish() == slow.finish()
        assert fast.scored == slow.scored
        assert fast.dropped_late == slow.dropped_late
        if cls is StreamingPECJ:
            assert np.array_equal(fast.profile._counts, slow.profile._counts)

    def test_stream_start_rewind_moves_the_next_cutoff(self):
        """Before the first emission an older window's tuple rewinds the
        emission cursor (omega > |W|); its earlier cutoff must fire on
        time, not at the next finalization check."""
        tuples = [
            StreamTuple(0, 1.0, 10.0, 12.0, Side.R),  # opens window 1
            StreamTuple(0, 1.0, 5.0, 13.0, Side.S),   # rewinds to window 0
            StreamTuple(0, 1.0, 11.0, 16.0, Side.S),  # past window 0's cutoff
            StreamTuple(0, 1.0, 6.0, 17.0, Side.R),
        ]
        fast = StreamingWMJ(10.0, 15.0)
        slow = always_advancing(StreamingWMJ)(10.0, 15.0)
        out = [fast.push(t) for t in tuples]
        assert out == [slow.push(t) for t in tuples]
        assert [e.window_start for e in out[2]] == [0.0]
        assert out[2][0].observed == 1

    def test_skips_most_pushes(self):
        calls = []

        class Counting(StreamingWMJ):
            def advance(self, now):
                calls.append(now)
                return super().advance(now)

        tuples = arrival_stream()
        drive(Counting(10.0, 10.0), tuples)
        assert len(calls) < len(tuples) / 20


class TestDelayLog:
    class ContextAEMA(AEMAEstimator):
        """AEMA that keeps the delay-shape context it is handed: an
        estimator that reads the context, so the operator builds one."""

        context = None

        def set_context(self, context):
            self.context = context

    class DequeContext(StreamingPECJ):
        """Checks every delay-shape context against the deque it replaced:
        the last 4096 ingested ``(event, max(delay, 0))`` pairs.  Its
        estimators read the context (the default AEMA's do not, and the
        operator builds none for them)."""

        def _reset_core(self, omega, make):
            super()._reset_core(omega, TestDelayLog.ContextAEMA)

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.recent = collections.deque(maxlen=4096)
            self.checked = 0

        def push(self, t):
            # The contexts a push reads cover the tuples before it; the
            # pushed tuple joins the deque unless it was dropped as late.
            late = self.dropped_late
            out = super().push(t)
            if self.dropped_late == late:
                self.recent.append((t.event_time, max(t.delay, 0.0)))
            return out

        def _delay_context(self, start, end, now):
            got = super()._delay_context(start, end, now)
            c_assumed = self.profile.completeness(now - 0.5 * (start + end))
            span_start = start - 4.0 * self.window_length
            delays = [d for e, d in self.recent if span_start <= e < end]
            if len(delays) >= 10 and self.profile.is_warm and c_assumed > 0.02:
                delays = np.asarray(delays)
                want = [c_assumed]
                for q in (0.25, 0.5, 0.75):
                    a_q = self.profile.quantile_age(q * c_assumed)
                    want.append(1.0 if a_q <= 0.0 else
                                min(max(float(np.mean(delays <= a_q)) / q, 0.0), 2.5))
                assert got == tuple(want)
                self.checked += 1
            return got

    def test_context_reads_the_last_4096_delays_across_log_trims(self):
        tuples = arrival_stream(duration=1000.0)
        op = self.DequeContext(10.0, 10.0)
        drive(op, tuples)
        assert op.checked > 50
        assert op.rate_r.context is not None
        # The log was trimmed (it holds far fewer rows than were pushed).
        assert op._log.base > 0
        assert op._log.size < len(tuples) / 2


def test_negative_key_fails_loudly():
    op = StreamingWMJ(10.0, 10.0)
    op.push(StreamTuple(1, 1.0, 1.0, 2.0, Side.R))
    with pytest.raises(ValueError, match="non-negative"):
        op.push(StreamTuple(-1, 1.0, 1.0, 2.0, Side.S))


def push_state(op):
    """Everything a rejected push must leave untouched."""
    log = op._log
    state = [op.clock, op.live_windows, dict(op._first), list(op.scored), op.dropped_late,
             op._next_emit, op._next_final, op._max_widx, op._wake, list(op._pending),
             log.base, log.size, log.event[:log.size].tolist(), log.arrival[:log.size].tolist()]
    if isinstance(op, StreamingKSJ):
        state += [op.buffer.slack, len(op.buffer), op.buffer.watermark]
    if isinstance(op, StreamingPECJ):
        state += [op._flushed, op.profile.weight]
    return state


class TestNonFiniteTimestamps:
    """Regression: a NaN arrival stayed in the PECJ delay log and made
    every later push raise; an infinite arrival moved the clock to inf so
    every later push was "backwards"; a NaN event time raised only after
    the clock had advanced, losing that tick's emissions.  Non-finite
    timestamps are now rejected before any state changes."""

    BAD = {
        "nan-event": (math.nan, None),
        "nan-arrival": (None, math.nan),
        "inf-event": (math.inf, None),
        "inf-arrival": (None, math.inf),
        "neg-inf-event": (-math.inf, None),
        "neg-inf-arrival": (None, -math.inf),
    }

    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("at", [0, 4000])
    def test_rejected_without_touching_state(self, cls, bad, at):
        event, arrival = self.BAD[bad]

        def poison(t):
            return StreamTuple(
                t.key, t.payload,
                t.event_time if event is None else event,
                t.arrival_time if arrival is None else arrival,
                t.side,
            )

        assert_rejected_cleanly(cls, at, poison, "finite")


def assert_rejected_cleanly(cls, at, poison, match, error=ValueError):
    """Push ``poison(t)`` before the ``at``-th tuple ``t``: it must raise
    ``error`` matching ``match`` and leave :func:`push_state` as it was, and
    the rest of the stream must match a run that never saw it."""
    tuples = arrival_stream(duration=300.0)
    clean, probed = cls(10.0, 10.0), cls(10.0, 10.0)
    want, got = [], []
    for i, t in enumerate(tuples):
        if i == at:
            before = push_state(probed)
            with pytest.raises(error, match=match):
                probed.push(poison(t))
            assert push_state(probed) == before
        want.extend(clean.push(t))
        got.extend(probed.push(t))
    want.extend(clean.finish())
    got.extend(probed.finish())
    assert got == want
    assert probed.scored == clean.scored
    assert probed.dropped_late == clean.dropped_late


class TestNegativeKeys:
    """Regression: WMJ and PECJ checked the key only when the tuple reached
    its window, after the push had moved the clock, so a rejected tuple had
    already emitted and finalized windows whose emissions were never
    delivered; KSJ buffered the bad tuple and raised on a later, valid push,
    losing that push's tuple.  The push guard now refuses a negative key
    before any state changes (KSJ's before its reorder buffer)."""

    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    @pytest.mark.parametrize("at", [0, "emitting", 4000])
    def test_rejected_without_touching_state(self, cls, at):
        if at == "emitting":
            # The bad tuple carries the first emitting push's timestamps.
            op = cls(10.0, 10.0)
            at = next(i for i, t in enumerate(arrival_stream(duration=300.0)) if op.push(t))
        assert_rejected_cleanly(
            cls, at, lambda t: StreamTuple(-1, t.payload, t.event_time, t.arrival_time, t.side),
            "non-negative",
        )

    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    @pytest.mark.parametrize("at", [0, 4000])
    def test_non_integer_key_refused_without_touching_state(self, cls, at):
        """A float key cannot index a count table either: the push guard
        refuses it, rather than the later flush of its block."""
        assert_rejected_cleanly(
            cls, at, lambda t: StreamTuple(1.5, t.payload, t.event_time, t.arrival_time, t.side),
            "unsupported operand", TypeError,
        )


class TestUnstorableFields:
    """A pushed tuple waits in the pending block until its flush converts
    every field to a column, so a field the columns cannot hold would make
    every later flush (each advance and finish) raise.  The push guard
    refuses such a tuple before any state changes."""

    BAD = {
        "key-2**63": ({"key": 2**63}, ValueError, "64-bit"),
        "uint64-key-2**63": ({"key": np.uint64(2**63)}, ValueError, "64-bit"),
        "none-payload": ({"payload": None}, TypeError, "NoneType"),
        "str-payload": ({"payload": "1.5"}, TypeError, "str"),
        "complex-payload": ({"payload": 1j}, TypeError, "complex"),
        "str-side": ({"side": "R"}, ValueError, "side"),
        "side-2": ({"side": 2}, ValueError, "side"),
    }

    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    @pytest.mark.parametrize("bad", sorted(BAD))
    @pytest.mark.parametrize("at", [0, 4000])
    def test_rejected_without_touching_state(self, cls, bad, at):
        fields, error, match = self.BAD[bad]

        def poison(t):
            return StreamTuple(
                fields.get("key", t.key), fields.get("payload", t.payload),
                t.event_time, t.arrival_time, fields.get("side", t.side),
            )

        assert_rejected_cleanly(cls, at, poison, match, error)

    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    def test_edge_values_still_accepted(self, cls):
        """Numpy scalars, integer side codes and a NaN payload fit the
        columns and pass the guard."""
        op = cls(10.0, 10.0, AggKind.SUM)
        op.push(StreamTuple(2, math.nan, 1.0, 1.0, Side.R))
        op.push(StreamTuple(np.int64(2), np.float32(2.0), 2.0, 2.0, 1))
        op.push(StreamTuple(np.uint64(2), 3, 3.0, 3.0, 0))
        op.finish()
        # Two R payloads join the one S tuple: NaN + 3.
        assert math.isnan(op.scored[0].truth)
        assert op.scored[0].window_start == 0.0


class TestHugeKeys:
    """Regression: a window fold sized its per-key tables by the largest
    key, so a pushed key of ``2**63 - 1`` made ``finish`` raise
    ``OverflowError`` (and every later ``advance`` again, since the failing
    window was never passed), and a key of ``10**9`` asked for a
    ``10**9``-slot table per window read.  Wide keys now fold over the keys
    present."""

    @pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
    @pytest.mark.parametrize("base", [10**9, 2**63 - 10])
    def test_relabelled_keys_answer_like_small_ones(self, cls, base):
        """Moving every key up by ``base`` changes no COUNT answer (at
        ``base = 2**63 - 10`` the largest shifted key is ``2**63 - 1``)."""
        tuples = arrival_stream(duration=300.0)
        shifted = [
            StreamTuple(base + t.key, t.payload, t.event_time, t.arrival_time, t.side)
            for t in tuples
        ]
        assert max(t.key for t in shifted) == base + 9
        small, huge = cls(10.0, 10.0), cls(10.0, 10.0)
        assert drive(huge, shifted) == drive(small, tuples)
        assert huge.scored == small.scored
        assert huge.live_windows == 0

    @pytest.mark.parametrize("key", [10**9, 2**63 - 1])
    def test_finish_then_advance_with_one_huge_key(self, key):
        op = StreamingPECJ(10.0, 10.0)
        op.push(StreamTuple(key, 1.0, 1.0, 1.0, Side.R))
        op.push(StreamTuple(key, 1.0, 2.0, 2.0, Side.S))
        op.push(StreamTuple(3, 1.0, 3.0, 3.0, Side.S))
        emissions = op.finish()
        assert [e.window_start for e in emissions] == [0.0]
        assert op.scored[0].truth == 1.0
        assert op.advance(100.0) == []


class TestStreamingInterval:
    @pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM, AggKind.AVG])
    def test_warm_emissions_carry_a_covering_interval(self, agg):
        op = StreamingPECJ(10.0, 10.0, agg, backend="aema")
        emissions = drive(op, arrival_stream(duration=600.0))
        warm = [e for e in emissions if e.interval is not None]
        assert len(warm) > len(emissions) / 2
        for e in warm:
            lo, hi = e.interval
            assert lo <= e.value <= hi
        # Cold emissions (before the estimators warm up) carry none.
        assert emissions[0].interval is None

    def test_counts_blends_like_the_batch_operator(self):
        from repro import obs

        op = StreamingPECJ(10.0, 10.0, backend="aema")
        with obs.scoped() as reg:
            emissions = drive(op, arrival_stream(duration=300.0))
        warm = sum(e.interval is not None for e in emissions)
        # Two rate blends per warm window, plus one selectivity blend
        # whenever the window saw both sides.
        blends = reg.snapshot()["counters"]["pecj.aema.blend_calls"]
        assert 2 * warm <= blends <= 3 * warm
