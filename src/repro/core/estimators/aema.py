"""Adaptive Exponential Moving Average (AEMA) — PECJ's default backend.

Section 5.1: "a variant of the EMA ... the decay parameter is not fixed
but continuously updated based on rule-based learning from the data
streams".  We use the classic Trigg–Leach adaptive-response rule: the
smoothing rate follows the *tracking signal* ``|smoothed error| /
smoothed |error|`` — near 0 on a stable stream (long memory), near 1 when
the stream level shifts (fast re-tracking).

Although rule-based, the state maps onto the Eq. 9 posterior: the running
mean plays ``mu0``, and its adaptivity determines the prior pseudo-count
``tau0 ~ 1/alpha`` used when blending in the current window's corrected
observations.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

from repro.core.estimators.base import PosteriorEstimator, check_blend_args

__all__ = ["AEMAEstimator"]


class AEMAEstimator(PosteriorEstimator):
    """Adaptive-EMA posterior tracker.

    Args:
        signal_decay: Smoothing of the tracking-signal statistics
            (Trigg–Leach's ``gamma``).
        alpha_min, alpha_max: Bounds on the adaptive smoothing rate.
        max_prior_weight: Cap on the Eq. 9 pseudo-count so the blend never
            ignores the current window entirely.
    """

    def __init__(
        self,
        signal_decay: float = 0.9,
        alpha_min: float = 0.02,
        alpha_max: float = 0.5,
        max_prior_weight: float = 100.0,
    ):
        if not 0.0 < signal_decay < 1.0:
            raise ValueError("signal_decay must be in (0, 1)")
        if not 0.0 < alpha_min <= alpha_max <= 1.0:
            raise ValueError("need 0 < alpha_min <= alpha_max <= 1")
        self.signal_decay = signal_decay
        self.alpha_min = alpha_min
        self.alpha_max = alpha_max
        self.max_prior_weight = max_prior_weight
        self.reset()

    def reset(self) -> None:
        """Forget all history (fresh run)."""
        self._mean: float | None = None
        self._var = 0.0
        self._smoothed_err = 0.0
        self._smoothed_abs_err = 1e-12
        self._alpha = self.alpha_max
        self._count = 0

    # -- continual learning ------------------------------------------------

    def observe(self, x: float, z_mean: float = 1.0) -> None:
        """Fold one observed per-window rate into the adaptive EMA."""
        corrected = x * z_mean
        self._count += 1
        if self._mean is None:
            self._mean = corrected
            return
        err = corrected - self._mean
        g = self.signal_decay
        self._smoothed_err = g * self._smoothed_err + (1.0 - g) * err
        self._smoothed_abs_err = g * self._smoothed_abs_err + (1.0 - g) * abs(err)
        # Trigg-Leach: adapt the rate to the tracking signal.
        if self._smoothed_abs_err > 0.0:
            signal = abs(self._smoothed_err) / self._smoothed_abs_err
        else:
            signal = 0.0
        self._alpha = min(max(signal, self.alpha_min), self.alpha_max)
        self._mean += self._alpha * err
        self._var = (1.0 - self._alpha) * self._var + self._alpha * err * err

    # -- estimation ----------------------------------------------------------

    def estimate(self) -> float:
        """Current posterior-mean rate estimate."""
        return self._mean if self._mean is not None else 0.0

    @property
    def confidence_weight(self) -> float:
        """``tau ~ 1/alpha``: stable stream => heavy prior, drift => light."""
        if self._mean is None or self._count < 2:
            return 0.0
        return min(1.0 / self._alpha, self.max_prior_weight)

    def blend(
        self,
        xs: Sequence[float],
        z_means: Sequence[float],
        tag: Hashable | None = None,
        weights: Sequence[float] | None = None,
    ) -> float:
        """Blend observed values with the EMA prior (pseudo-count weighting)."""
        check_blend_args(xs, z_means, weights)
        if weights is None:
            weights = [1.0] * len(xs)
        corrected = [x * z for x, z in zip(xs, z_means)]
        n = sum(weights)
        tau = self.confidence_weight
        if n <= 0.0:
            return self.estimate()
        weighted = sum(w * c for w, c in zip(weights, corrected))
        if tau <= 0.0:
            return weighted / n
        return (tau * self.estimate() + weighted) / (tau + n)

    def credible_interval(self, quantile_z: float = 1.96) -> tuple[float, float]:
        """Interval from the EWMA variance of the mean estimate.

        The variance of an EWMA with rate ``alpha`` over i.i.d. noise of
        variance ``v`` is ``v * alpha / (2 - alpha)``.
        """
        mean = self.estimate()
        a = self._alpha
        sd = math.sqrt(max(self._var, 0.0) * a / (2.0 - a))
        return (mean - quantile_z * sd, mean + quantile_z * sd)

    @property
    def is_warm(self) -> bool:
        """Whether at least one observation has been folded in."""
        return self._count >= 3
