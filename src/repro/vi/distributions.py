"""Variational distribution families.

The analytical instantiation (paper Section 5.1) works in the conjugate
mean-field family: Gaussians for the window-average ``mu_w`` and for each
latent distortion ``z_i``, and a Gamma for the precision ``phi_w``.  These
classes carry the handful of operations VI needs — moments, log-density,
entropy, KL divergence and conjugate updates — in (mean, precision) /
(shape, rate) parameterisations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.vi.special import digamma, gammaln

__all__ = ["Gaussian", "Gamma"]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
class Gaussian:
    """A univariate Gaussian in (mean, precision) form.

    ``precision = 1 / variance``; the (mean, precision) form is what the
    conjugate updates of Section 5.1 manipulate directly.
    """

    mean: float
    precision: float

    def __post_init__(self) -> None:
        if self.precision <= 0.0 or not math.isfinite(self.precision):
            raise ValueError(f"precision must be positive and finite, got {self.precision}")
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")

    @property
    def variance(self) -> float:
        """``1 / precision``."""
        return 1.0 / self.precision

    @property
    def std(self) -> float:
        """Standard deviation."""
        return math.sqrt(self.variance)

    def second_moment(self) -> float:
        """``E[x^2] = mean^2 + variance``."""
        return self.mean * self.mean + self.variance

    def logpdf(self, x: float) -> float:
        """Log density at ``x``."""
        return 0.5 * (math.log(self.precision) - _LOG_2PI) - 0.5 * self.precision * (
            x - self.mean
        ) ** 2

    def entropy(self) -> float:
        """Differential entropy in nats."""
        return 0.5 * (_LOG_2PI + 1.0 - math.log(self.precision))

    def kl_to(self, other: "Gaussian") -> float:
        """``KL(self || other)`` in nats."""
        var_ratio = other.precision / self.precision
        mean_term = other.precision * (self.mean - other.mean) ** 2
        return 0.5 * (var_ratio + mean_term - 1.0 - math.log(var_ratio))

    def interval(self, quantile_z: float) -> tuple[float, float]:
        """Symmetric credible interval ``mean +- z * std`` (paper Eq. 10)."""
        half = quantile_z * self.std
        return (self.mean - half, self.mean + half)

    def posterior_with_known_precision(
        self, observations: list[float] | tuple[float, ...], obs_precision: float
    ) -> "Gaussian":
        """Conjugate update for Gaussian observations of known precision.

        Treating ``self`` as the prior over the mean of a Gaussian with
        known precision ``obs_precision``, returns the exact posterior after
        seeing ``observations``.  This is the classic normal-normal update
        that Eq. 8/9 of the paper specialises.
        """
        n = len(observations)
        if n == 0:
            return self
        total = sum(observations)
        post_precision = self.precision + n * obs_precision
        post_mean = (self.precision * self.mean + obs_precision * total) / post_precision
        return Gaussian(post_mean, post_precision)


@dataclass(frozen=True, slots=True)
class Gamma:
    """A Gamma distribution in (shape, rate) form.

    Used as the conjugate prior/posterior of the precision ``phi_w``.
    """

    shape: float
    rate: float

    def __post_init__(self) -> None:
        if self.shape <= 0.0 or self.rate <= 0.0:
            raise ValueError(f"shape and rate must be positive, got ({self.shape}, {self.rate})")

    @property
    def mean(self) -> float:
        """``shape / rate``."""
        return self.shape / self.rate

    @property
    def variance(self) -> float:
        """``shape / rate**2``."""
        return self.shape / (self.rate * self.rate)

    def mean_log(self) -> float:
        """``E[log x] = digamma(shape) - log(rate)``."""
        return digamma(self.shape) - math.log(self.rate)

    def logpdf(self, x: float) -> float:
        """Log density at ``x``."""
        if x <= 0.0:
            return -math.inf
        return (
            self.shape * math.log(self.rate)
            - gammaln(self.shape)
            + (self.shape - 1.0) * math.log(x)
            - self.rate * x
        )

    def entropy(self) -> float:
        """Differential entropy in nats."""
        return (
            self.shape
            - math.log(self.rate)
            + gammaln(self.shape)
            + (1.0 - self.shape) * digamma(self.shape)
        )

    def kl_to(self, other: "Gamma") -> float:
        """``KL(self || other)`` in nats."""
        return (
            (self.shape - other.shape) * digamma(self.shape)
            - gammaln(self.shape)
            + gammaln(other.shape)
            + other.shape * (math.log(self.rate) - math.log(other.rate))
            + self.shape * (other.rate - self.rate) / self.rate
        )
