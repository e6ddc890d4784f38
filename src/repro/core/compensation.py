"""Proactive error compensation formulas (paper Section 3.2).

Once the posterior means of the window-averaged statistics are available,
the compensated join output is closed-form:

* ``JOIN-COUNT():    O = sigma * n_S * n_R``
* ``JOIN-SUM(R.v):   O = sigma * n_S * n_R * alpha_R``
* ``JOIN-AVG(R.v):   O = alpha_R``

with ``n = r_bar * |W|`` converting window-averaged rates into counts.
A first-order (delta-method) credible interval for the product is also
provided, propagating each factor's posterior standard deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.joins.arrays import AggKind

__all__ = ["CompensatedEstimate", "compensate", "compensated_value", "product_interval"]


@dataclass(frozen=True, slots=True)
class CompensatedEstimate:
    """A compensated output with the estimates that produced it."""

    value: float
    n_r: float
    n_s: float
    sigma: float
    alpha_r: float

def compensate(
    agg: AggKind,
    n_r: float,
    n_s: float,
    sigma: float,
    alpha_r: float = 0.0,
) -> CompensatedEstimate:
    """Compute the compensated output ``O`` from posterior means.

    Negative estimates (possible transiently from noisy posteriors) are
    clamped at zero — counts, selectivities and match counts cannot be
    negative.
    """
    n_r = max(0.0, n_r)
    n_s = max(0.0, n_s)
    sigma = max(0.0, sigma)
    value = compensated_value(agg, n_r, n_s, sigma, alpha_r)
    return CompensatedEstimate(value, n_r, n_s, sigma, alpha_r)


def compensated_value(
    agg: AggKind,
    n_r: float,
    n_s: float,
    sigma: float,
    alpha_r: float = 0.0,
) -> float:
    """The output ``O`` of :func:`compensate` alone, same clamping.

    For callers that need only the answer (the serving shard's
    per-query path), without building the estimate record.
    """
    count = max(0.0, sigma) * max(0.0, n_r) * max(0.0, n_s)
    if agg is AggKind.COUNT:
        return count
    if agg is AggKind.SUM:
        return count * alpha_r
    if agg is AggKind.AVG:
        return alpha_r
    raise ValueError(f"unknown aggregation {agg!r}")


def product_interval(
    means: list[float],
    stds: list[float],
    quantile_z: float = 1.96,
) -> tuple[float, float]:
    """Delta-method credible interval for a product of independent factors.

    For ``P = prod_i X_i`` with independent factors, the relative variance
    is approximately the sum of relative variances:
    ``(sd_P / P)^2 ~ sum_i (sd_i / mean_i)^2``.  Factors with mean zero
    make the product zero; the interval collapses accordingly.
    """
    if len(means) != len(stds):
        raise ValueError("means and stds must align")
    product = 1.0
    rel_var = 0.0
    for m, s in zip(means, stds):
        product *= m
        if m != 0.0:
            ratio = s / m
            # ratio * ratio saturates to inf per IEEE instead of raising
            # OverflowError the way ``ratio ** 2`` does; an unbounded
            # relative variance honestly yields an infinite interval.
            rel_var += ratio * ratio
    if product == 0.0:
        return (0.0, 0.0)
    sd = abs(product) * math.sqrt(rel_var)
    return (product - quantile_z * sd, product + quantile_z * sd)
