"""Per-tuple push clockwork: the reference for the block-appending operators.

Before the push operators buffered tuples in a pending block and folded
them into one arrival-ordered log, every push walked ``_tick → _ingest →
_state_for → WindowJoinState.add → _on_ingest``: each window owned its own
append-per-tuple columns, and PECJ kept a second event/arrival log for its
delays.  That clockwork survives here only as a test oracle, verbatim apart
from tracing, with the negative-key check moved into the push guard (the
fixed behaviour: a bad key is refused before any state changes).  The
differential suite drives it and the product operators with the same
streams and compares every output after every push.
"""

from __future__ import annotations

import math
from array import array
from math import isfinite

import numpy as np

from repro.core.pecj import PECJCore, make_estimator
from repro.joins.arrays import AggKind, WindowAggregate, aggregate_of, negative_key_error
from repro.metrics.error import bounded_window_error
from repro.streaming.kslack import KSlackBuffer
from repro.streaming.operators import ScoredWindow, WindowEmission
from repro.streams.tuples import Side, StreamTuple

__all__ = ["AppendWindowState", "OracleWMJ", "OracleKSJ", "OraclePECJ"]


class AppendWindowState:
    """One window's tuples, appended per tuple to typed arrays."""

    def __init__(self, start: float, end: float, num_buckets: int = 10):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.start = start
        self.end = end
        self.num_buckets = num_buckets
        self._key = array("q")
        self._payload = array("d")
        self._side = array("b")
        self._event = array("d")
        self._aggregate: WindowAggregate | None = None
        self._buckets: list[list[int]] | None = None

    @property
    def length(self) -> float:
        return self.end - self.start

    def add(self, t: StreamTuple) -> None:
        event = t.event_time
        if not self.start <= event < self.end:
            raise ValueError(f"event {event} outside window [{self.start}, {self.end})")
        self._key.append(t.key)
        self._payload.append(t.payload)
        self._side.append(t.side)
        self._event.append(event)
        self._aggregate = self._buckets = None

    @property
    def aggregate(self) -> WindowAggregate:
        agg = self._aggregate
        if agg is None:
            keys = np.array(self._key, dtype=np.int64)
            num_keys = int(keys.max()) + 1 if len(keys) else 1
            is_r = np.array(self._side, dtype=np.int8) == Side.R
            agg = self._aggregate = aggregate_of(keys, is_r, np.array(self._payload), num_keys)
        return agg

    @property
    def buckets(self) -> list[list[int]]:
        if self._buckets is None:
            nb = self.num_buckets
            event = np.array(self._event)
            bucket = np.minimum(((event - self.start) / self.length * nb).astype(np.int64), nb - 1)
            side = np.array(self._side, dtype=np.int64)
            self._buckets = np.bincount(2 * bucket + side, minlength=2 * nb).reshape(nb, 2).tolist()
        return self._buckets

    @property
    def n_r(self) -> int:
        return self.aggregate.n_r

    @property
    def n_s(self) -> int:
        return self.aggregate.n_s

    def value(self, agg: AggKind) -> float:
        return self.aggregate.value(agg)

    def clone(self) -> "AppendWindowState":
        other = AppendWindowState(self.start, self.end, self.num_buckets)
        other._key = self._key[:]
        other._payload = self._payload[:]
        other._side = self._side[:]
        other._event = self._event[:]
        other._aggregate = self._aggregate
        return other


class _OracleBase:
    def __init__(self, window_length, omega, agg=AggKind.COUNT, horizon_ms=None, num_buckets=10):
        if window_length <= 0 or omega <= 0:
            raise ValueError("window_length and omega must be positive")
        self.window_length = window_length
        self.omega = omega
        self.agg = agg
        self.fixed_horizon = horizon_ms
        self.num_buckets = num_buckets
        self.clock = -math.inf
        self._states: dict[int, AppendWindowState] = {}
        self._emitted: dict[int, WindowEmission] = {}
        self._next_emit: int | None = None
        self._next_final: int | None = None
        self.scored: list[ScoredWindow] = []
        self.dropped_late = 0
        self._max_widx: int | None = None
        self._next_final_check = -math.inf
        self._wake = math.inf

    def _emit_value(self, state, cutoff):
        return state.value(self.agg), None, 0.0

    def _on_ingest(self, t: StreamTuple) -> None:
        pass

    def _on_finalize(self, widx: int, state: AppendWindowState) -> None:
        pass

    def _horizon(self) -> float:
        return self.fixed_horizon if self.fixed_horizon is not None else 0.0

    def _widx(self, event_time: float) -> int:
        return int(math.floor(event_time / self.window_length))

    def _state_for(self, w: int) -> AppendWindowState | None:
        if self._next_final is not None and w < self._next_final:
            untouched = (
                self._next_final == self._next_emit
                and not self._emitted
                and w * self.window_length + self.omega > self.clock
            )
            if untouched:
                self._next_emit = self._next_final = w
                self._rewake()
            else:
                self.dropped_late += 1
                return None
        state = self._states.get(w)
        if state is None:
            start = w * self.window_length
            state = self._states[w] = AppendWindowState(
                start, start + self.window_length, self.num_buckets
            )
            if self._next_emit is None:
                self._next_emit = w
                self._next_final = w
                self._rewake()
        return state

    def _ingest(self, t: StreamTuple) -> None:
        w = math.floor(t.event_time / self.window_length)
        state = self._states.get(w)
        if state is None:
            state = self._state_for(w)
            if state is None:
                return
        state.add(t)
        self._on_ingest(t)
        if self._max_widx is None or w > self._max_widx:
            self._max_widx = w
            self._rewake()

    def _guard(self, t: StreamTuple) -> None:
        if not (isfinite(t.event_time) and isfinite(t.arrival_time)):
            raise ValueError("timestamps must be finite")
        if t.arrival_time < self.clock - 1e-9:
            raise ValueError(f"arrival clock went backwards: {t.arrival_time} < {self.clock}")
        if t.key < 0:
            raise negative_key_error(t.key)

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        self._guard(t)
        emissions = self._tick(t.arrival_time)
        self._ingest(t)
        return emissions

    def _tick(self, now: float) -> list[WindowEmission]:
        if now > self.clock:
            self.clock = now
        return self.advance(now) if self.clock >= self._wake else []

    def _rewake(self) -> None:
        w = self._next_emit
        if w is None:
            self._wake = math.inf
            return
        wake = self._next_final_check
        if self._max_widx is not None and w <= self._max_widx:
            wake = min(wake, w * self.window_length + self.omega)
        self._wake = wake

    def advance(self, now: float) -> list[WindowEmission]:
        emissions = self._advance(now)
        self._rewake()
        return emissions

    def _advance(self, now: float) -> list[WindowEmission]:
        self.clock = max(self.clock, now)
        emissions: list[WindowEmission] = []
        if self._next_emit is None:
            return emissions
        while (
            self._next_emit * self.window_length + self.omega <= self.clock
            and self._max_widx is not None
            and self._next_emit <= self._max_widx
        ):
            w = self._next_emit
            start = w * self.window_length
            state = self._states.get(w) or AppendWindowState(
                start, start + self.window_length, self.num_buckets
            )
            cutoff = start + self.omega
            value, interval, extra = self._emit_value(state, cutoff)
            emission = WindowEmission(
                window_start=start,
                window_end=start + self.window_length,
                value=value,
                emit_time=cutoff + extra,
                observed=state.n_r + state.n_s,
                interval=interval,
            )
            emissions.append(emission)
            self._emitted[w] = emission
            self._next_emit += 1
        if self.clock < self._next_final_check and not emissions:
            return emissions
        self._next_final_check = self.clock + self.window_length
        horizon = self._horizon()
        while (
            self._next_final is not None
            and self._next_final < self._next_emit
            and (self._next_final + 1) * self.window_length + horizon <= self.clock
        ):
            w = self._next_final
            state = self._states.pop(w, None)
            emission = self._emitted.pop(w, None)
            if state is not None:
                self._on_finalize(w, state)
            if emission is not None:
                if state is None:
                    start = w * self.window_length
                    state = AppendWindowState(start, start + self.window_length, self.num_buckets)
                truth = state.value(self.agg)
                err = bounded_window_error(emission.value, truth)
                self.scored.append(ScoredWindow(state.start, emission.value, truth, err))
            self._next_final += 1
        return emissions

    def finish(self) -> list[WindowEmission]:
        return self.advance(self.clock + self.omega + self._horizon() + 2 * self.window_length)

    @property
    def live_windows(self) -> int:
        return len(self._states)


class OracleWMJ(_OracleBase):
    def __init__(self, window_length, omega, agg=AggKind.COUNT, horizon_ms=None):
        super().__init__(window_length, omega, agg, horizon_ms)
        self._max_delay = 0.0

    def _on_ingest(self, t: StreamTuple) -> None:
        self._max_delay = max(self._max_delay, t.delay)

    def _horizon(self) -> float:
        if self.fixed_horizon is not None:
            return self.fixed_horizon
        return self._max_delay * 1.05 + self.window_length


class OracleKSJ(OracleWMJ):
    def __init__(self, window_length, omega, agg=AggKind.COUNT, slack=None, horizon_ms=None):
        super().__init__(window_length, omega, agg, horizon_ms)
        self._adaptive_slack = slack is None
        self.buffer = KSlackBuffer(0.0 if slack is None else slack)

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        self._guard(t)
        if self._adaptive_slack:
            self.buffer.slack = max(self.buffer.slack, t.delay)
        emissions = self._tick(t.arrival_time)
        for released in self.buffer.push(t):
            self._ingest(released)
        return emissions

    def _emit_value(self, state, cutoff):
        pending = self.buffer.peek_range(state.start, state.end)
        if pending:
            state = state.clone()
            for t in pending:
                state.add(t)
        return state.value(self.agg), None, 0.0

    def finish(self) -> list[WindowEmission]:
        for released in self.buffer.flush():
            self._ingest(released)
        return super().finish()


class OraclePECJ(_OracleBase, PECJCore):
    CONTEXT_TUPLES = 4096

    def __init__(self, window_length, omega, agg=AggKind.COUNT, backend="aema",
                 min_completeness=0.05, finalize_quantile=0.995,
                 learning_inference_ms=None, seed=0):
        super().__init__(window_length, omega, agg)
        self.backend = backend
        self.min_completeness = min_completeness
        self.finalize_quantile = finalize_quantile
        if learning_inference_ms is None:
            learning_inference_ms = 90.0 if backend == "mlp" else 0.0
        self.learning_inference_ms = learning_inference_ms
        self._reset_core(omega, lambda: make_estimator(backend, seed))
        self._log_event = array("d")
        self._log_arrival = array("d")
        self._flushed = 0

    def _on_ingest(self, t: StreamTuple) -> None:
        self._log_event.append(t.event_time)
        self._log_arrival.append(t.arrival_time)

    def _log_delays(self, lo: int) -> tuple[np.ndarray, np.ndarray]:
        event = np.array(self._log_event[lo:])
        return event, np.maximum(np.array(self._log_arrival[lo:]) - event, 0.0)

    def _flush_delays(self) -> None:
        n = len(self._log_event)
        if n == self._flushed:
            return
        self.profile.update(self._log_delays(self._flushed)[1])
        self._flushed = n
        if n > 8 * self.CONTEXT_TUPLES:
            drop = n - self.CONTEXT_TUPLES
            del self._log_event[:drop]
            del self._log_arrival[:drop]
            self._flushed -= drop

    def _horizon(self) -> float:
        self._flush_delays()
        return self.profile.horizon(self.finalize_quantile) + self.window_length

    def _delay_context(self, start: float, end: float, now: float):
        def sample() -> np.ndarray:
            lo = max(len(self._log_event) - self.CONTEXT_TUPLES, 0)
            event, delays = self._log_delays(lo)
            return delays[(start - 4.0 * self.window_length <= event) & (event < end)]

        return self._delay_context_at(now - 0.5 * (start + end), sample)

    def _emit_value(self, state, cutoff):
        self._flush_delays()
        extra = self.learning_inference_ms
        if not self._warm():
            return state.value(self.agg), None, extra
        widx = self._widx(state.start)
        self._set_context(self._delay_context(state.start, state.end, cutoff))
        bucket_len = state.length / state.num_buckets
        cs = [
            self.profile.completeness(cutoff - (state.start + (b + 0.5) * bucket_len))
            for b in range(state.num_buckets)
        ]
        buckets = state.buckets
        n_hat_r, n_hat_s, _, _ = self._rate_estimates(
            widx, [b[0] for b in buckets], [b[1] for b in buckets], cs,
            bucket_len, state.length,
        )
        est = self._compensate(widx, n_hat_r, n_hat_s, state.aggregate)[0]
        return est.value, self._output_interval(est, self.window_length), extra

    def _on_finalize(self, widx: int, state: AppendWindowState) -> None:
        bucket_len = state.length / state.num_buckets
        for cnt_r, cnt_s in state.buckets:
            self.rate_r.observe(cnt_r / bucket_len, 1.0)
            self.rate_s.observe(cnt_s / bucket_len, 1.0)
        self._window_feedback(widx, state.aggregate, state.length)
        self.profile.decay_step()
