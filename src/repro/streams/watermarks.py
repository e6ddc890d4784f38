"""Watermark generators: deciding the assumed completeness point.

The buffering baselines — and PECJ itself — need some time point
``omega`` at which to stop waiting (paper Section 2.2).  The paper treats
the automatic determination of ``omega`` as orthogonal and tunes it by
hand; this module supplies the standard mechanisms so the knob can also
be set automatically:

* :class:`PeriodicWatermark` — a fixed lag behind the maximum event time
  seen (Flink-style bounded-out-of-orderness);
* :class:`HeuristicWatermark` — lag tracks the maximum delay observed so
  far (never regresses, converges to ``Delta``);
* :class:`AdaptiveWatermark` — lag tracks a quantile of *recent* delays
  with exponential forgetting, following the adaptive-watermark idea of
  Awad et al. [8]: the watermark advances faster in calm periods and
  backs off under congestion.

A watermark at lag ``ell`` corresponds to emitting a window ``[s, s+L)``
at ``s + L + ell`` — i.e. ``omega = L + ell`` in the paper's notation —
which :func:`suggest_omega` makes explicit.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from repro import obs
from repro.obs import trace
from repro.streams.tuples import StreamTuple

__all__ = [
    "WatermarkGenerator",
    "PeriodicWatermark",
    "HeuristicWatermark",
    "AdaptiveWatermark",
    "suggest_omega",
]


class WatermarkGenerator:
    """Base class: observes arriving tuples, exposes the watermark.

    The watermark is the event time ``T`` such that the generator believes
    all tuples with ``tau_event < T`` have arrived.
    """

    def __init__(self) -> None:
        self._max_event = -math.inf

    def observe(self, t: StreamTuple) -> None:
        """Account for one arriving tuple (call in arrival order)."""
        self._max_event = max(self._max_event, t.event_time)

    @property
    def max_event_seen(self) -> float:
        """Largest event time observed so far."""
        return self._max_event

    @property
    def lag(self) -> float:
        """Current watermark lag behind the newest event, in ms."""
        raise NotImplementedError

    @property
    def watermark(self) -> float:
        """Event time below which the stream is assumed complete."""
        if math.isinf(self._max_event):
            return -math.inf
        return self._max_event - self.lag


class PeriodicWatermark(WatermarkGenerator):
    """Fixed-lag watermark (bounded out-of-orderness)."""

    def __init__(self, lag_ms: float):
        super().__init__()
        if lag_ms < 0:
            raise ValueError("lag must be non-negative")
        self._lag = lag_ms

    @property
    def lag(self) -> float:
        """The configured fixed lag."""
        return self._lag


class HeuristicWatermark(WatermarkGenerator):
    """Lag tracks the largest delay observed so far (plus a margin).

    Conservative: the watermark is late-proof for any disorder already
    seen, at the cost of never tightening after a single extreme
    straggler.
    """

    def __init__(self, margin: float = 1.05):
        super().__init__()
        if margin < 1.0:
            raise ValueError("margin must be >= 1")
        self.margin = margin
        self._max_delay = 0.0

    def observe(self, t: StreamTuple) -> None:
        """Track the maximum delay alongside the base accounting."""
        super().observe(t)
        self._max_delay = max(self._max_delay, t.delay)

    @property
    def lag(self) -> float:
        """Maximum observed delay scaled by the margin."""
        return self._max_delay * self.margin


class AdaptiveWatermark(WatermarkGenerator):
    """Lag tracks a delay quantile over a sliding sample (Awad et al.).

    The lag follows the ``quantile`` of the most recent ``sample_size``
    delays, so it relaxes after congestion clears instead of staying
    pinned at the historical maximum.  ``safety`` scales the quantile to
    trade lateness against waiting.

    While fewer than 8 delay samples have arrived the quantile is too
    noisy to use; the generator warms up on the maximum delay observed so
    far (the :class:`HeuristicWatermark` rule), so the watermark never
    sits at ``max_event_seen`` during cold start flagging ordinary
    disordered tuples as late.

    A sliding sample alone reacts to a delay-distribution *shift* only
    after the stale regime ages out of the deque — at a burst boundary
    the quantile stays pinned to the calm regime for up to
    ``sample_size`` tuples, flagging the whole burst front as late.  The
    generator therefore watches the median of the most recent
    ``max(16, sample_size // 8)`` delays against the full-sample median;
    when they disagree by more than ``shift_ratio`` (either direction)
    the quantile is taken over the recent slice only, so the lag jumps
    with the burst and relaxes as soon as it clears.
    """

    def __init__(
        self,
        quantile: float = 0.99,
        sample_size: int = 2048,
        safety: float = 1.1,
        shift_ratio: float = 3.0,
    ):
        super().__init__()
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if sample_size < 8:
            raise ValueError("sample_size must be >= 8")
        if shift_ratio <= 1.0:
            raise ValueError("shift_ratio must be > 1")
        self.quantile = quantile
        self.safety = safety
        self.shift_ratio = shift_ratio
        self._recent_size = max(16, sample_size // 8)
        self._delays: collections.deque[float] = collections.deque(maxlen=sample_size)
        self._max_delay = 0.0

    def observe(self, t: StreamTuple) -> None:
        """Record the tuple's delay in the sliding sample."""
        super().observe(t)
        delay = max(t.delay, 0.0)
        self._delays.append(delay)
        self._max_delay = max(self._max_delay, delay)

    def _shift_detected(self, full: np.ndarray) -> bool:
        """Whether the recent delay regime disagrees with the full sample."""
        if len(full) < 2 * self._recent_size:
            return False
        recent_med = float(np.median(full[-self._recent_size:]))
        full_med = float(np.median(full))
        floor = 1e-9
        if recent_med > max(full_med, floor) * self.shift_ratio:
            return True
        return full_med > max(recent_med, floor) * self.shift_ratio

    @property
    def lag(self) -> float:
        """Delay quantile over the (shift-aware) sliding sample, scaled."""
        if len(self._delays) < 8:
            # Cold start: fall back to the max-delay heuristic until the
            # quantile sample is usable.
            return self._max_delay * self.safety
        full = np.asarray(self._delays)
        if self._shift_detected(full):
            obs.counter("watermark.shift_detected").inc()
            full = full[-self._recent_size:]
        return float(np.quantile(full, self.quantile)) * self.safety


def suggest_omega(generator: WatermarkGenerator, window_length: float) -> float:
    """The emission cutoff a watermark implies for tumbling windows.

    A window ``[s, s + L)`` is complete when the watermark passes
    ``s + L``, i.e. at event-time progress ``s + L + lag``; relative to
    the window start that is ``omega = L + lag``.
    """
    if window_length <= 0:
        raise ValueError("window_length must be positive")
    omega = window_length + max(generator.lag, 0.0)
    if trace.is_tracing():
        trace.instant(
            "watermark.suggest_omega", max(generator.max_event_seen, 0.0),
            cat="buffer", track=f"watermark.{type(generator).__name__}",
            args={"omega": float(omega), "lag": float(generator.lag),
                  "window_length": float(window_length)},
        )
    return omega
