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
* :class:`StreamingPECJ` — proactive compensation: the full PECJ
  estimation flow (delay profile, Eq. 9 / additive blends, delay-shape
  context, delayed ground-truth feedback) on columnar window state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from repro.obs import trace
from repro.core.compensation import compensate
from repro.core.delay_profile import DelayProfile
from repro.core.pecj import make_estimator
from repro.joins.arrays import AggKind
from repro.metrics.error import bounded_window_error
from repro.streaming.kslack import KSlackBuffer
from repro.streaming.state import WindowJoinState
from repro.streams.tuples import StreamTuple

__all__ = [
    "WindowEmission",
    "ScoredWindow",
    "StreamingWMJ",
    "StreamingKSJ",
    "StreamingPECJ",
]


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
    """Shared clockwork: window states, emission, finalization, eviction.

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
        self._states: dict[int, WindowJoinState] = {}
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

    def _on_ingest(self, t: StreamTuple) -> None:
        """Called for every tuple accepted into a window."""

    def _on_finalize(self, widx: int, state: WindowJoinState) -> None:
        """Called when a window is complete, before eviction."""

    def _horizon(self) -> float:
        return self.fixed_horizon if self.fixed_horizon is not None else 0.0

    # -- ingestion -----------------------------------------------------------

    def _widx(self, event_time: float) -> int:
        return int(math.floor(event_time / self.window_length))

    def _state_for(self, w: int) -> WindowJoinState | None:
        if self._next_final is not None and w < self._next_final:
            # Before anything has been emitted the cursors may still move
            # back (stream start under disorder: an older window's tuple
            # can show up after a newer window opened).  After the first
            # emission the grid is locked and older tuples are late.
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
            state = self._states[w] = WindowJoinState(
                start, start + self.window_length, self.num_buckets
            )
            if self._next_emit is None:
                self._next_emit = w
                self._next_final = w
                self._rewake()
        return state

    def _ingest(self, t: StreamTuple) -> None:
        w = math.floor(t.event_time / self.window_length)
        # A live state is never behind the finalization cursor, so
        # _state_for would return it unchanged: look it up directly.
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

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        """Ingest one tuple (arrival order) and return due emissions."""
        if t.arrival_time < self.clock - 1e-9:
            raise ValueError(
                f"arrival clock went backwards: {t.arrival_time} < {self.clock}"
            )
        emissions = self._tick(t.arrival_time)
        self._ingest(t)
        return emissions

    def _tick(self, now: float) -> list[WindowEmission]:
        """Move the clock to ``now``, calling :meth:`advance` only if due."""
        if now > self.clock:
            self.clock = now
        return self.advance(now) if self.clock >= self._wake else []

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
        emissions = self._advance(now)
        self._rewake()
        return emissions

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
            start = w * self.window_length
            state = self._states.get(w) or WindowJoinState(
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
            state = self._states.pop(w, None)
            emission = self._emitted.pop(w, None)
            if state is not None:
                self._on_finalize(w, state)
            if emission is not None:
                if state is None:
                    # The window never received a tuple: truth is empty.
                    start = w * self.window_length
                    state = WindowJoinState(
                        start, start + self.window_length, self.num_buckets
                    )
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
        """Number of window states currently held (memory bound)."""
        return len(self._states)

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

    def _on_ingest(self, t: StreamTuple) -> None:
        self._max_delay = max(self._max_delay, t.delay)

    def _horizon(self) -> float:
        if self.fixed_horizon is not None:
            return self.fixed_horizon
        return self._max_delay * 1.05 + self.window_length


class StreamingKSJ(StreamingWMJ):
    """K-slack join: a reorder buffer precedes the window states.

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

    def push(self, t: StreamTuple) -> list[WindowEmission]:
        """Feed one arriving tuple; join and emit whatever it releases."""
        if t.arrival_time < self.clock - 1e-9:
            raise ValueError(
                f"arrival clock went backwards: {t.arrival_time} < {self.clock}"
            )
        if self._adaptive_slack:
            # Adaptive k-slack (Ji et al.): K tracks the largest disorder
            # seen so far.
            self.buffer.slack = max(self.buffer.slack, t.delay)
        emissions = self._tick(t.arrival_time)
        for released in self.buffer.push(t):
            self._ingest(released)
        return emissions

    def _emit_value(self, state: WindowJoinState, cutoff: float):
        # The join consults the reorder buffer at emission: tuples that
        # have arrived but are still being ordered join the answer (this
        # is what keeps KSJ's completeness aligned with WMJ's at equal
        # omega, per the paper's Section 6.3 observation).
        pending = self.buffer.peek_range(state.start, state.end)
        if pending:
            state = state.clone()
            for t in pending:
                state.add(t)
        return state.value(self.agg), None, 0.0

    def finish(self) -> list[WindowEmission]:
        """Flush the reorder buffer and join the stragglers (end of stream)."""
        for released in self.buffer.flush():
            self._ingest(released)
        return super().finish()


class StreamingPECJ(_StreamingBase):
    """Push-based PECJ: the full estimation flow on columnar window state.

    Mirrors :class:`repro.core.pecj.PECJoin` — online delay profile,
    per-bucket rate observations with distortion corrections, weighted
    selectivity/payload blending, delay-shape context and delayed
    ground-truth feedback for learning backends — but consumes pushed
    tuples instead of a materialised batch.
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
        self.profile = DelayProfile(initial_span=max(8.0, omega))
        self.rate_r = make_estimator(backend, seed)
        self.rate_s = make_estimator(backend, seed)
        self.sigma = make_estimator(backend, seed)
        self.alpha = make_estimator(backend, seed)
        self._matches_ema = 0.0
        self._m_ema: float | None = None
        self._m_rel_var = 0.04
        #: (obs_r, obs_s, c_bar, m_hat) snapshots for completeness feedback.
        self._emit_obs: dict[int, tuple[int, int, float, float]] = {}
        # Event and arrival times of ingested tuples, in ingest order.  The
        # profile absorbs the entries from _flushed on in one batch before
        # it is queried (per-push updates would allocate an array per
        # tuple); the delay-shape context reads the newest CONTEXT_TUPLES.
        self._log_event = array("d")
        self._log_arrival = array("d")
        self._flushed = 0

    #: Newest ingested tuples whose delays form the delay-shape context.
    CONTEXT_TUPLES = 4096

    # -- observation machinery ----------------------------------------------

    def _on_ingest(self, t: StreamTuple) -> None:
        self._log_event.append(t.event_time)
        self._log_arrival.append(t.arrival_time)

    def _log_delays(self, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Event times and clamped delays of the log entries from ``lo``."""
        event = np.array(self._log_event[lo:])
        return event, np.maximum(np.array(self._log_arrival[lo:]) - event, 0.0)

    def _flush_delays(self) -> None:
        n = len(self._log_event)
        if n == self._flushed:
            return
        self.profile.update(self._log_delays(self._flushed)[1])
        self._flushed = n
        # Everything is absorbed; only the context's tail must survive.
        # Trimming in large steps keeps the memmove amortised.
        if n > 8 * self.CONTEXT_TUPLES:
            drop = n - self.CONTEXT_TUPLES
            del self._log_event[:drop]
            del self._log_arrival[:drop]
            self._flushed -= drop

    def _horizon(self) -> float:
        self._flush_delays()
        return self.profile.horizon(self.finalize_quantile) + self.window_length

    def _delay_context(self, start: float, end: float, now: float):
        age = now - 0.5 * (start + end)
        c_assumed = self.profile.completeness(age)
        neutral = (c_assumed, 1.0, 1.0, 1.0)
        if not self.profile.is_warm or c_assumed <= 0.02:
            return neutral
        span_start = start - 4.0 * self.window_length
        event, delays = self._log_delays(max(len(self._log_event) - self.CONTEXT_TUPLES, 0))
        delays = delays[(span_start <= event) & (event < end)]
        if len(delays) < 10:
            return neutral
        ratios = []
        for q in (0.25, 0.5, 0.75):
            a_q = self.profile.quantile_age(q * c_assumed)
            if a_q <= 0.0:
                ratios.append(1.0)
                continue
            ratios.append(min(max(float(np.mean(delays <= a_q)) / q, 0.0), 2.5))
        return (c_assumed, *ratios)

    def _emit_value(self, state: WindowJoinState, cutoff: float):
        self._flush_delays()
        extra = self.learning_inference_ms
        if not (self.profile.is_warm and self.rate_r.is_warm and self.rate_s.is_warm):
            return state.value(self.agg), None, extra
        now = cutoff
        widx = self._widx(state.start)
        context = self._delay_context(state.start, state.end, now)
        for est in (self.rate_r, self.rate_s, self.sigma, self.alpha):
            est.set_context(context)

        n_hat_r, n_hat_s = self._rate_estimates(state, now, widx)

        if state.n_r > 0 and state.n_s > 0:
            if self._matches_ema > 0.0:
                w_sigma = 60.0 * min(state.matches / self._matches_ema, 1.2)
            else:
                w_sigma = 1.0
            sigma_hat = self.sigma.blend(
                [state.selectivity], [1.0], tag=widx, weights=[max(w_sigma, 0.2)]
            )
        else:
            sigma_hat = self.sigma.estimate()

        alpha_hat = 0.0
        if self.agg is not AggKind.COUNT:
            if state.matches > 0:
                w_alpha = max(min(state.matches**0.5, 40.0), 0.2)
                alpha_hat = self.alpha.blend(
                    [state.alpha_r], [1.0], tag=widx, weights=[w_alpha]
                )
            else:
                alpha_hat = self.alpha.estimate()

        est = compensate(self.agg, n_hat_r, n_hat_s, sigma_hat, alpha_hat)
        return est.value, None, extra

    def _rate_estimates(self, state: WindowJoinState, now: float, widx: int):
        bucket_len = state.length / state.num_buckets
        ages = [
            now - (state.start + (b + 0.5) * bucket_len)
            for b in range(state.num_buckets)
        ]
        completeness = [self.profile.completeness(a) for a in ages]

        if self.rate_r.completeness_factor() is not None:
            # Learning path: additive fill at an inverse-variance rate.
            mu_r = max(self.rate_r.blend([], [], tag=widx), 0.0)
            mu_s = max(self.rate_s.blend([], [], tag=widx), 0.0)
            m_r = self.rate_r.completeness_factor() or 1.0
            m_s = self.rate_s.completeness_factor() or 1.0
            m_hat = 0.5 * (m_r + m_s)
            if self._m_ema is not None:
                m_hat = 0.5 * self._m_ema + 0.5 * m_hat
            self._m_ema = m_hat
            missing = sum(
                (1.0 - min(max(m_hat * c, 0.0), 1.0)) * bucket_len
                for c in completeness
            )
            c_bar = sum(completeness) / len(completeness)
            self._emit_obs[widx] = (state.n_r, state.n_s, c_bar, m_hat)
            c_hat_bar = 1.0 - missing / state.length
            out = []
            for n_obs, mu, est in (
                (state.n_r, mu_r, self.rate_r),
                (state.n_s, mu_s, self.rate_s),
            ):
                fill = mu
                if c_hat_bar >= 0.05:
                    est1 = n_obs / (c_hat_bar * state.length)
                    rel_var1 = (1.0 - c_hat_bar) / (c_hat_bar * max(n_obs, 1.0))
                    rel_var1 += self._m_rel_var
                    sd2 = getattr(est, "residual_std", lambda: 0.0)()
                    rel_var2 = (sd2 / mu) ** 2 if mu > 0 else 1.0
                    rel_var2 = min(max(rel_var2, 1e-4), 1.0)
                    w1 = rel_var2 / (rel_var1 + rel_var2)
                    fill = w1 * est1 + (1.0 - w1) * mu
                out.append(n_obs + fill * missing)
            return out[0], out[1]

        # Analytical path: Eq. 9 blend over bucket observations.
        xs_r, xs_s, zs = [], [], []
        for (cnt_r, cnt_s), c in zip(state.buckets, completeness):
            if c < self.min_completeness:
                continue
            xs_r.append(cnt_r / bucket_len)
            xs_s.append(cnt_s / bucket_len)
            zs.append(1.0 / c)
        mu_r = self.rate_r.blend(xs_r, zs, tag=widx)
        mu_s = self.rate_s.blend(xs_s, zs, tag=widx)
        n_hat_r = max(mu_r * state.length, float(state.n_r))
        n_hat_s = max(mu_s * state.length, float(state.n_s))
        return n_hat_r, n_hat_s

    def _on_finalize(self, widx: int, state: WindowJoinState) -> None:
        bucket_len = state.length / state.num_buckets
        for cnt_r, cnt_s in state.buckets:
            self.rate_r.observe(cnt_r / bucket_len, 1.0)
            self.rate_s.observe(cnt_s / bucket_len, 1.0)
        if state.n_r > 0 and state.n_s > 0:
            self.sigma.observe(state.selectivity, 1.0)
            self.sigma.feedback(widx, state.selectivity)
        if state.matches > 0:
            self.alpha.observe(state.alpha_r, 1.0)
            self.alpha.feedback(widx, state.alpha_r)
            if self._matches_ema <= 0.0:
                self._matches_ema = state.matches
            else:
                self._matches_ema = 0.95 * self._matches_ema + 0.05 * state.matches
        self.rate_r.feedback(widx, state.n_r / state.length)
        self.rate_s.feedback(widx, state.n_s / state.length)
        emitted = self._emit_obs.pop(widx, None)
        if emitted is not None:
            obs_r, obs_s, c_bar, m_hat = emitted
            if c_bar > 0.0:
                if state.n_r > 0:
                    m_true = (obs_r / state.n_r) / c_bar
                    self.rate_r.feedback_completeness(widx, m_true)
                    if m_hat > 0.0:
                        rel = (m_true - m_hat) / m_hat
                        self._m_rel_var = 0.97 * self._m_rel_var + 0.03 * rel * rel
                if state.n_s > 0:
                    self.rate_s.feedback_completeness(
                        widx, (obs_s / state.n_s) / c_bar
                    )
        self.profile.decay_step()
