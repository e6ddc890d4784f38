"""Push-based streaming join operators.

The batch runner replays a finite segment for experiments; these classes
are the deployable form: tuples are **pushed** one at a time in arrival
order, windows emit as the clock passes their cutoff, and state is
finalized and evicted once the delay horizon guarantees completeness.

    op = StreamingPECJ(window_length=10.0, omega=10.0)
    for t in arrival_ordered_tuples:
        for emission in op.push(t):
            handle(emission)          # emitted at cutoff, compensated
    op.finish()
    print(op.scored)                  # per-window error vs finalized truth

Three operators share the machinery:

* :class:`StreamingWMJ` — watermark-style: answers from whatever was
  ingested by the cutoff;
* :class:`StreamingKSJ` — the same, behind a real heap-based k-slack
  reorder buffer (tuples the buffer still holds at the cutoff are missed,
  reproducing KSJ's completeness/latency tradeoff);
* :class:`StreamingPECJ` — proactive compensation: the estimation core
  :class:`~repro.core.pecj.PECJCore` shared with the batch operator,
  fed from window views and the delays of the same log.

All three share one ingest path: ``push`` guards the tuple (finite
timestamps, no backwards clock, a key in ``[0, 2**63)``, a side code, a
real payload) before touching any state, runs ``advance`` only when it has
work and appends the tuple to a pending block, folded into the columnar
log every :data:`BLOCK` tuples and before any read.  A tuple whose window
is not live takes a slow path that may open, rewind or miss a window;
k-slack sends every pushed tuple through its reorder buffer first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import floor, inf, isfinite  # bound once: push uses them per tuple

import numpy as np

from repro.obs import trace
from repro.core.pecj import PECJCore, make_estimator
from repro.joins.arrays import AggKind, negative_key_error
from repro.metrics.error import bounded_window_error
from repro.streaming.kslack import KSlackBuffer
from repro.streaming.state import ArrivalLog, WindowJoinState
from repro.streams.tuples import Side, StreamTuple

__all__ = [
    "BLOCK",
    "WindowEmission",
    "ScoredWindow",
    "StreamingWMJ",
    "StreamingKSJ",
    "StreamingPECJ",
]

#: Pushed tuples buffered before they are folded into the log in one go.
BLOCK = 256

# What the log's columns can hold: side codes and the int64 key range.
_SIDES = (Side.R, Side.S)
_KEY_END = 1 << 63


@dataclass(frozen=True, slots=True)
class WindowEmission:
    """One window's output, released at its cutoff."""

    window_start: float
    window_end: float
    value: float
    emit_time: float
    observed: int
    #: 95% credible interval (PECJ only; None otherwise).
    interval: tuple[float, float] | None = None


@dataclass(frozen=True, slots=True)
class ScoredWindow:
    """An emission scored against the finalized (complete) window."""

    window_start: float
    value: float
    truth: float
    error: float


class _StreamingBase:
    """Shared clockwork: the tuple log, emission, finalization, eviction.

    Args:
        window_length: ``|W|`` in ms.
        omega: Emission cutoff from each window's start.
        agg: Output aggregation.
        horizon_ms: Age at which a window is treated as complete and
            evicted; ``None`` derives it from the observed delays.
        num_buckets: Sub-interval resolution of the per-window state.
    """

    name = "streaming-base"

    def __init__(
        self,
        window_length: float,
        omega: float,
        agg: AggKind = AggKind.COUNT,
        horizon_ms: float | None = None,
        num_buckets: int = 10,
    ):
        if window_length <= 0 or omega <= 0:
            raise ValueError("window_length and omega must be positive")
        self.window_length = window_length
        self.omega = omega
        self.agg = agg
        self.fixed_horizon = horizon_ms
        self.num_buckets = num_buckets
        self.clock = -math.inf
        # Accepted tuples in ingest order: the log, then the pending block.
        self._log = ArrivalLog()
        self._pending: list[StreamTuple] = []
        # Live windows -> absolute log index of their first tuple.
        self._first: dict[int, int] = {}
        # Windows a push appends to without the slow path: every live one.
        self._direct = self._first
        self._emitted: dict[int, WindowEmission] = {}
        self._next_emit: int | None = None
        self._next_final: int | None = None
        #: Emissions scored against finalized windows, in window order.
        self.scored: list[ScoredWindow] = []
        #: Tuples that arrived after their window was already finalized.
        self.dropped_late = 0
        self._max_widx: int | None = None
        # Finalization involves the delay horizon, which can be costly to
        # recompute; check at most once per window of clock progress.
        self._next_final_check = -math.inf
        # Clock reading from which advance() has work again (see _rewake).
        self._wake = math.inf

    # -- hooks -------------------------------------------------------------

    def _emit_value(
        self, state: WindowJoinState, cutoff: float
    ) -> tuple[float, tuple[float, float] | None, float]:
        """Return (value, credible interval, extra emission delay)."""
        return state.value(self.agg), None, 0.0

    def _on_finalize(self, widx: int, state: WindowJoinState) -> None:
        """Called when a window is complete, before eviction."""

    def _horizon(self) -> float:
        return self.fixed_horizon if self.fixed_horizon is not None else 0.0

    def _log_keep(self) -> int:
        """Absolute index of the oldest log row that must survive a trim."""
        return min(self._first.values(), default=self._log.end)

    # -- ingestion -----------------------------------------------------------

    def _admit(self, t: StreamTuple) -> None:
        """Append a tuple to its window, first opening the window, rewinding
        the cursors to it or dropping the tuple as late if it is not live
        (push's slow path; KSJ's releases all come here)."""
        w = floor(t.event_time / self.window_length)
        if w not in self._first:
            if self._next_final is not None and w < self._next_final:
                # Before anything has been emitted the cursors may still move
                # back (stream start under disorder: an older window's tuple
                # can show up after a newer window opened).  After the first
                # emission the grid is locked and older tuples are late.
                if (
                    self._next_final == self._next_emit
                    and not self._emitted
                    and w * self.window_length + self.omega > self.clock
                ):
                    self._next_emit = self._next_final = w
                else:
                    self.dropped_late += 1
                    return
            elif self._next_emit is None:
                self._next_emit = self._next_final = w
            self._first[w] = self._log.end + len(self._pending)
            if self._max_widx is None or w > self._max_widx:
                self._max_widx = w
            self._rewake()
        self._pending.append(t)
        if len(self._pending) >= BLOCK:
            self._flush()

    def _flush(self) -> None:
        """Fold the pending block into the log, then trim the log.

        Windows are finalized inside ``advance``, so the trim they allow
        falls to a later, full-block flush rather than the emitting push.
        """
        if self._pending:
            self._log.extend(self._pending)
            self._pending = []
            self._log.trim(self._log_keep())

    def _reject(self, t: StreamTuple) -> None:
        """Raise for a tuple that would corrupt the clock, the log or a
        count table.

        Pushes call this before touching any state, so a rejected tuple
        leaves the operator exactly as it was.
        """
        if not (isfinite(t.event_time) and isfinite(t.arrival_time)):
            raise ValueError(
                f"timestamps must be finite: event_time={t.event_time}, "
                f"arrival_time={t.arrival_time}"
            )
        if t.arrival_time < self.clock - 1e-9:
            raise ValueError(f"arrival clock went backwards: {t.arrival_time} < {self.clock}")
        if t.key < 0:
            raise negative_key_error(t.key)
        if t.side not in _SIDES:
            raise ValueError(f"side must be Side.R or Side.S, got {t.side!r}")
        raise ValueError(f"join key {t.key} does not fit in a signed 64-bit integer")

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        """Ingest one tuple (arrival order) and return due emissions."""
        arrival = t.arrival_time
        # The guard covers every field the block's later flush converts.
        # ``key | 0`` raises TypeError for a non-integer key and ``>`` for a
        # payload that is not a real number (None, str, complex); no real
        # payload, NaN included, exceeds inf.
        if not (arrival >= self.clock - 1e-9 and isfinite(arrival) and isfinite(t.event_time)
                and 0 <= (t.key | 0) < _KEY_END and t.side in _SIDES
                and not t.payload > inf):
            self._reject(t)
        if arrival > self.clock:
            self.clock = arrival
        emissions = self.advance(arrival) if self.clock >= self._wake else []
        if floor(t.event_time / self.window_length) in self._direct:
            pending = self._pending
            pending.append(t)
            if len(pending) >= BLOCK:
                self._flush()
        else:
            self._admit(t)
        return emissions

    # -- clockwork -------------------------------------------------------------

    def _rewake(self) -> None:
        """Recompute ``_wake``, the clock reading from which advance has work.

        ``advance`` does observable work only once the next window's
        cutoff has passed (and that window is not past the newest one
        holding data) or the throttled finalization check is due — the
        check flushes delays into the PECJ profile and decays it.  Before
        that it would only move the clock, so pushes skip it.  Called
        whenever an input of the test changes.
        """
        w = self._next_emit
        if w is None:
            self._wake = math.inf
            return
        wake = self._next_final_check
        if self._max_widx is not None and w <= self._max_widx:
            wake = min(wake, w * self.window_length + self.omega)
        self._wake = wake

    def advance(self, now: float) -> list[WindowEmission]:
        """Advance the virtual clock, emitting and finalizing due windows."""
        self._flush()
        emissions = self._advance(now)
        self._rewake()
        return emissions

    def _window(self, w: int) -> WindowJoinState:
        """Window ``w``'s view: its rows of the log, masked from its first."""
        start = w * self.window_length
        first = self._first.get(w)
        columns = () if first is None else self._log.select(first, w, self.window_length)
        return WindowJoinState(start, start + self.window_length, self.num_buckets, *columns)

    def _advance(self, now: float) -> list[WindowEmission]:
        self.clock = max(self.clock, now)
        emissions: list[WindowEmission] = []
        if self._next_emit is None:
            return emissions
        # Emit windows whose cutoff has passed.  Never emit past the last
        # window that received data: the stream may simply have ended, and
        # fabricating outputs for windows after its end is meaningless.
        while (
            self._next_emit * self.window_length + self.omega <= self.clock
            and self._max_widx is not None
            and self._next_emit <= self._max_widx
        ):
            w = self._next_emit
            state = self._window(w)
            start = state.start
            cutoff = start + self.omega
            value, interval, extra = self._emit_value(state, cutoff)
            emission = WindowEmission(
                window_start=start,
                window_end=state.end,
                value=value,
                emit_time=cutoff + extra,
                observed=state.n_r + state.n_s,
                interval=interval,
            )
            emissions.append(emission)
            self._emitted[w] = emission
            if trace.is_tracing():
                trace.instant(
                    "streaming.emit", emission.emit_time,
                    cat="window", track=f"streaming.{self.name}",
                    args={
                        "window_start": float(start),
                        "value": float(value),
                        "observed": int(emission.observed),
                    },
                )
            self._next_emit += 1
        # Finalize windows older than the delay horizon.  The horizon
        # recomputation is throttled: eviction may lag by one window,
        # which only delays scoring, never correctness.
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
            state = self._window(w)
            emission = self._emitted.pop(w, None)
            if self._first.pop(w, None) is not None:
                self._on_finalize(w, state)
            if emission is not None:
                truth = state.value(self.agg)
                # Shared degenerate-window semantics: a zero-truth window
                # with a nonzero (compensated) answer scores at most 1.
                err = bounded_window_error(emission.value, truth)
                self.scored.append(
                    ScoredWindow(state.start, emission.value, truth, err)
                )
            self._next_final += 1
        return emissions

    def finish(self) -> list[WindowEmission]:
        """Flush: emit and finalize everything still pending."""
        return self.advance(self.clock + self.omega + self._horizon() + 2 * self.window_length)

    @property
    def live_windows(self) -> int:
        """Number of windows currently held (memory bound).

        Exact without a flush: a pending tuple never opens a window.
        """
        return len(self._first)

    @property
    def mean_error(self) -> float:
        if not self.scored:
            return 0.0
        return sum(s.error for s in self.scored) / len(self.scored)


class StreamingWMJ(_StreamingBase):
    """Watermark-join: answers from everything ingested by the cutoff."""

    name = "StreamingWMJ"

    def __init__(self, window_length: float, omega: float, agg: AggKind = AggKind.COUNT,
                 horizon_ms: float | None = None):
        super().__init__(window_length, omega, agg, horizon_ms)
        self._max_delay = 0.0

    def _flush(self) -> None:
        lo = self._log.end
        super()._flush()
        if self._log.end > lo:
            # The trim kept the new rows (their windows are live), and
            # clamping at 0 cannot change a maximum that starts at 0.
            self._max_delay = max(self._max_delay, float(self._log.delays(lo)[1].max()))

    def _horizon(self) -> float:
        if self.fixed_horizon is not None:
            return self.fixed_horizon
        return self._max_delay * 1.05 + self.window_length


class StreamingKSJ(StreamingWMJ):
    """K-slack join: a reorder buffer precedes the tuple log.

    Tuples still held by the buffer at a window's cutoff are missed —
    exactly the k-slack accuracy/latency tradeoff.  ``slack`` defaults to
    ``omega`` (the paper ties the tuning knob to the buffer's control).
    """

    name = "StreamingKSJ"

    def __init__(
        self,
        window_length: float,
        omega: float,
        agg: AggKind = AggKind.COUNT,
        slack: float | None = None,
        horizon_ms: float | None = None,
    ):
        super().__init__(window_length, omega, agg, horizon_ms)
        self._adaptive_slack = slack is None
        self.buffer = KSlackBuffer(0.0 if slack is None else slack)
        # No window takes a pushed tuple directly: push hands each one to
        # _admit below, which buffers it.
        self._direct = {}

    def _admit(self, t: StreamTuple) -> None:
        """Feed one pushed tuple to the reorder buffer; join what it releases."""
        if self._adaptive_slack:
            # Adaptive k-slack (Ji et al.): K tracks the largest disorder
            # seen so far.
            self.buffer.slack = max(self.buffer.slack, t.delay)
        for released in self.buffer.push(t):
            super()._admit(released)

    def _emit_value(self, state: WindowJoinState, cutoff: float):
        # The join consults the reorder buffer at emission: tuples that
        # have arrived but are still being ordered join the answer (this
        # is what keeps KSJ's completeness aligned with WMJ's at equal
        # omega, per the paper's Section 6.3 observation).
        pending = self.buffer.peek_range(state.start, state.end)
        if pending:
            state = state.extended(pending)
        return state.value(self.agg), None, 0.0

    def finish(self) -> list[WindowEmission]:
        """Flush the reorder buffer and join the stragglers (end of stream)."""
        for released in self.buffer.flush():
            super()._admit(released)
        return super().finish()


class StreamingPECJ(_StreamingBase, PECJCore):
    """Push-based PECJ: the shared estimation core on columnar window state.

    The estimation steps — Eq. 9 / additive rate blends, the
    selectivity/payload blend, delay-shape context, the credible interval
    and delayed ground-truth feedback — are
    :class:`~repro.core.pecj.PECJCore`'s, the same as
    :class:`~repro.core.pecj.PECJoin`'s.  This class decides only what a
    window has seen and when it is final: pushed tuples land in the log,
    whose delays also feed the online profile; bucket
    completeness is read at each bucket's age at the cutoff; a window is
    final once ``horizon + |W|`` has passed, and only then are its bucket
    rates observed (with ``z = 1``).  Warm emissions carry the 95%
    credible interval.
    """

    name = "StreamingPECJ"

    def __init__(
        self,
        window_length: float,
        omega: float,
        agg: AggKind = AggKind.COUNT,
        backend: str = "aema",
        min_completeness: float = 0.05,
        finalize_quantile: float = 0.995,
        learning_inference_ms: float | None = None,
        seed: int = 0,
    ):
        super().__init__(window_length, omega, agg)
        self.backend = backend
        self.min_completeness = min_completeness
        self.finalize_quantile = finalize_quantile
        if learning_inference_ms is None:
            learning_inference_ms = 90.0 if backend == "mlp" else 0.0
        self.learning_inference_ms = learning_inference_ms
        self._reset_core(omega, lambda: make_estimator(backend, seed))
        # The profile absorbs the delays of the log rows from absolute index
        # _flushed on in one batch before it is queried (per-push updates
        # would allocate an array per tuple); the delay-shape context reads
        # the newest CONTEXT_TUPLES rows.
        self._flushed = 0

    #: Newest ingested tuples whose delays form the delay-shape context.
    CONTEXT_TUPLES = 4096

    # -- observation machinery ----------------------------------------------

    def _flush_delays(self) -> None:
        end = self._log.end
        if end != self._flushed:
            self.profile.update(self._log.delays(self._flushed)[1])
            self._flushed = end

    def _log_keep(self) -> int:
        # Unabsorbed delays and the context's tail must survive a trim too.
        return min(super()._log_keep(), self._flushed, self._log.end - self.CONTEXT_TUPLES)

    def _horizon(self) -> float:
        self._flush_delays()
        return self.profile.horizon(self.finalize_quantile) + self.window_length

    def _delay_context(self, start: float, end: float, now: float):
        def sample() -> np.ndarray:
            log = self._log
            event, delays = log.delays(max(log.end - self.CONTEXT_TUPLES, log.base))
            return delays[(start - 4.0 * self.window_length <= event) & (event < end)]

        return self._delay_context_at(now - 0.5 * (start + end), sample)

    def _emit_value(self, state: WindowJoinState, cutoff: float):
        self._flush_delays()
        extra = self.learning_inference_ms
        if not self._warm():
            return state.value(self.agg), None, extra
        widx = math.floor(state.start / self.window_length)
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

    def _on_finalize(self, widx: int, state: WindowJoinState) -> None:
        bucket_len = state.length / state.num_buckets
        for cnt_r, cnt_s in state.buckets:
            self.rate_r.observe(cnt_r / bucket_len, 1.0)
            self.rate_s.observe(cnt_s / bucket_len, 1.0)
        self._window_feedback(widx, state.aggregate, state.length)
        self.profile.decay_step()
