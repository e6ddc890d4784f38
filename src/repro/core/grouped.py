"""Per-key (grouped) proactive compensation.

The paper's output ``O`` is a scalar aggregate, but its motivating OLDA
scenario extracts *per-key* features (short-term behaviour of each user /
symbol / device).  This module extends PECJ's compensation to grouped
outputs: for every key, the join count (or joined payload sum) of the
window is estimated as if the in-flight tuples had arrived.

Per-key counts are small, so plugging each key into the global machinery
would drown in noise.  Instead the grouped estimator is hierarchical:

* the **completeness** ``c`` of the window is shared across keys (delays
  do not depend on the key), read from the same online delay profile the
  scalar operator uses;
* each side's **per-key rate** gets a Gamma-Poisson shrinkage estimate:
  with a key's in-window count ``n_k ~ Poisson(lambda_k * |W|)`` observed
  through a ``c``-thinning, and ``lambda_k ~ Gamma(alpha, beta)`` fit to
  the stream's historical per-key counts by moment matching, the
  posterior mean rate is ``(alpha + obs_k) / (beta + c * |W|)`` — hot
  keys are driven by their own observations, cold keys shrink toward the
  population;
* the unseen remainder ``(1 - c) * lambda_k * |W|`` tops up the observed
  count, and per-key outputs multiply R and S estimates as in the scalar
  formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.delay_profile import DelayProfile
from repro.joins.arrays import AggKind, BatchArrays
from repro.streams.windows import TumblingWindows

__all__ = ["GroupedEstimate", "GroupedPECJoin", "run_grouped", "GroupedRunResult"]


@dataclass(frozen=True, slots=True)
class GroupedEstimate:
    """Compensated per-key outputs for one window."""

    window_start: float
    #: key -> compensated output (join count, or joined R payload sum).
    values: dict[int, float]
    #: key -> uncompensated (observed-only) output.
    observed: dict[int, float]


class _SideRatePrior:
    """Moment-matched Gamma prior over per-key rates for one stream side."""

    def __init__(self, decay: float = 0.95):
        self.decay = decay
        self._mean = 0.0
        self._second = 0.0
        self._weight = 0.0

    def update(self, per_key_counts: np.ndarray, window_len: float) -> None:
        """Absorb one finalized window's per-key counts."""
        rates = per_key_counts / window_len
        self._absorb(float(rates.mean()), float((rates**2).mean()))

    def update_one(self, count: float, window_len: float) -> None:
        """:meth:`update` for a single key's count, without the array."""
        rate = count / window_len
        self._absorb(rate, rate * rate)

    def _absorb(self, mean: float, second: float) -> None:
        self._mean = self.decay * self._mean + (1 - self.decay) * mean
        self._second = self.decay * self._second + (1 - self.decay) * second
        self._weight = self.decay * self._weight + (1 - self.decay)

    @property
    def is_warm(self) -> bool:
        return self._weight > 0.3

    def gamma_params(self) -> tuple[float, float]:
        """(alpha, beta) with mean alpha/beta, var alpha/beta^2."""
        if not self.is_warm or self._mean <= 0.0:
            return (1.0, 1.0)
        mean = self._mean / self._weight
        second = self._second / self._weight
        var = max(second - mean * mean, mean * 1e-6)
        beta = mean / var
        alpha = mean * beta
        return (max(alpha, 1e-3), max(beta, 1e-3))

    def filled_count(self, obs, c: float, window_len: float):
        """Observed count plus the Gamma-Poisson fill of the unseen part.

        With ``obs`` seen through a ``c``-thinning of a ``window_len``
        window, the posterior mean rate is ``(alpha + obs) / (beta + c *
        |W|)`` and the unseen remainder adds ``(1 - c)`` of it over the
        window.  ``obs`` may be a scalar or an array of per-key counts.
        """
        alpha, beta = self.gamma_params()
        lam_hat = (alpha + obs) / (beta + c * window_len)
        return obs + (1.0 - c) * lam_hat * window_len


class GroupedPECJoin:
    """Per-key compensated intra-window join.

    Args:
        num_keys: Size of the key domain (group-by cardinality).
        agg: COUNT (per-key pair counts) or SUM (per-key joined R payload).
        window_length: ``|W|`` in ms.
        buckets_per_window: Completeness resolution within the window.
    """

    name = "GroupedPECJ"
    pipeline_method = "pecj"

    def __init__(
        self,
        num_keys: int,
        agg: AggKind = AggKind.COUNT,
        window_length: float = 10.0,
        buckets_per_window: int = 10,
    ):
        if agg not in (AggKind.COUNT, AggKind.SUM):
            raise ValueError("grouped outputs support COUNT and SUM")
        self.num_keys = num_keys
        self.agg = agg
        self.window_length = window_length
        self.buckets_per_window = buckets_per_window
        self.profile = DelayProfile()
        self.prior_r = _SideRatePrior()
        self.prior_s = _SideRatePrior()
        #: Per-key EMA of the mean R payload (for SUM outputs).
        self._payload_ema = np.zeros(num_keys)
        self._payload_weight = np.zeros(num_keys)
        self._ingest_cursor = 0
        self._next_final = 0
        self._comp_order: np.ndarray | None = None
        self._comp_sorted: np.ndarray | None = None

    # -- shared observation machinery (mirrors the scalar operator) --------

    def prepare(self, arrays: BatchArrays) -> None:
        """Partition the batch by key group and prepare one core per group."""
        self._comp_order = arrays.completion_order()
        self._comp_sorted = arrays.completion[self._comp_order]
        self._ingest_cursor = 0
        t0 = float(arrays.event.min()) if len(arrays) else 0.0
        self._next_final = int(math.floor(t0 / self.window_length))

    def _ingest_delays(self, arrays: BatchArrays, now: float) -> None:
        hi = int(np.searchsorted(self._comp_sorted, now, side="right"))
        if hi <= self._ingest_cursor:
            return
        idx = self._comp_order[self._ingest_cursor : hi]
        self.profile.update(np.maximum(arrays.arrival[idx] - arrays.event[idx], 0.0))
        self._ingest_cursor = hi

    def _key_counts(
        self, arrays: BatchArrays, start: float, end: float, now: float | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sl = arrays.window_slice(start, end)
        keys = arrays.key[sl]
        is_r = arrays.is_r[sl]
        payload = arrays.payload[sl]
        if now is not None:
            avail = arrays.completion[sl] <= now
            keys, is_r, payload = keys[avail], is_r[avail], payload[avail]
        c_r = np.bincount(keys[is_r], minlength=self.num_keys).astype(float)
        c_s = np.bincount(keys[~is_r], minlength=self.num_keys).astype(float)
        sum_rv = np.bincount(
            keys[is_r], weights=payload[is_r], minlength=self.num_keys
        )
        return c_r, c_s, sum_rv

    def _finalize(self, arrays: BatchArrays, now: float) -> None:
        horizon = self.profile.horizon(0.995) + self.window_length
        while (self._next_final + 1) * self.window_length + horizon <= now:
            start = self._next_final * self.window_length
            c_r, c_s, sum_rv = self._key_counts(
                arrays, start, start + self.window_length, now
            )
            self.prior_r.update(c_r, self.window_length)
            self.prior_s.update(c_s, self.window_length)
            has = c_r > 0
            self._payload_ema[has] = 0.9 * self._payload_ema[has] + 0.1 * (
                sum_rv[has] / c_r[has]
            )
            fresh = has & (self._payload_weight == 0)
            self._payload_ema[fresh] = (sum_rv[fresh] / c_r[fresh])
            self._payload_weight[has] = np.minimum(self._payload_weight[has] + 1, 50)
            self._next_final += 1

    def _window_completeness(self, start: float, now: float) -> float:
        bucket_len = self.window_length / self.buckets_per_window
        ages = now - (start + (np.arange(self.buckets_per_window) + 0.5) * bucket_len)
        return self.profile.mean_completeness(ages.tolist())

    # -- estimation ----------------------------------------------------------

    def process_window(
        self, arrays: BatchArrays, start: float, available_by: float
    ) -> GroupedEstimate:
        """Compensated per-key outputs for the window at ``start``."""
        now = available_by
        self._ingest_delays(arrays, now)
        self._finalize(arrays, now)
        end = start + self.window_length
        obs_r, obs_s, sum_rv = self._key_counts(arrays, start, end, now)

        observed = self._outputs(obs_r, obs_s, sum_rv, obs_r)
        if not (self.profile.is_warm and self.prior_r.is_warm and self.prior_s.is_warm):
            return GroupedEstimate(start, dict(observed), dict(observed))

        c = max(self._window_completeness(start, now), 1e-3)
        n_hat_r = self.prior_r.filled_count(obs_r, c, self.window_length)
        n_hat_s = self.prior_s.filled_count(obs_s, c, self.window_length)
        values = self._outputs(n_hat_r, n_hat_s, sum_rv, obs_r)
        return GroupedEstimate(start, values, dict(observed))

    def _outputs(
        self,
        n_r: np.ndarray,
        n_s: np.ndarray,
        sum_rv: np.ndarray,
        obs_r: np.ndarray,
    ) -> dict[int, float]:
        counts = n_r * n_s
        if self.agg is AggKind.COUNT:
            vals = counts
        else:
            # Per-key mean R payload: this window's observation when
            # available, the historical EMA otherwise.
            alpha = np.where(obs_r > 0, sum_rv / np.maximum(obs_r, 1), self._payload_ema)
            vals = counts * alpha
        keys = np.nonzero(vals > 0)[0]
        return {int(k): float(vals[k]) for k in keys}


@dataclass
class GroupedRunResult:
    """Per-window grouped errors for compensated vs observed outputs."""

    estimates: list[GroupedEstimate] = field(default_factory=list)
    compensated_errors: list[float] = field(default_factory=list)
    observed_errors: list[float] = field(default_factory=list)

    @property
    def mean_compensated_error(self) -> float:
        """Mean bounded window error of the compensated answers."""
        e = self.compensated_errors
        return sum(e) / len(e) if e else 0.0

    @property
    def mean_observed_error(self) -> float:
        """Mean bounded window error of the uncompensated answers."""
        e = self.observed_errors
        return sum(e) / len(e) if e else 0.0


def _grouped_l1(estimate: dict[int, float], truth: dict[int, float]) -> float:
    """Relative L1 distance between grouped outputs."""
    total = sum(truth.values())
    if total == 0:
        return 0.0 if not estimate else 1.0
    keys = set(estimate) | set(truth)
    miss = sum(abs(estimate.get(k, 0.0) - truth.get(k, 0.0)) for k in keys)
    return miss / total


def run_grouped(
    operator: GroupedPECJoin,
    arrays: BatchArrays,
    omega: float,
    t_start: float,
    t_end: float,
    warmup_windows: int = 0,
) -> GroupedRunResult:
    """Drive a grouped operator over every window and score both outputs.

    Uses the same completion-time semantics as the scalar runner (apply a
    cost profile to ``arrays`` first if queueing matters; by default
    completion == arrival).
    """
    from repro.joins.pipeline import CostModel, apply_pipeline_costs

    apply_pipeline_costs(arrays, operator.pipeline_method, CostModel(), slack=omega)
    operator.prepare(arrays)
    windows = TumblingWindows(operator.window_length)
    first = windows.window_index(t_start)
    if windows.window_at(first).start < t_start:
        first += 1

    result = GroupedRunResult()
    idx = first
    while True:
        window = windows.window_at(idx)
        if window.end > t_end:
            break
        est = operator.process_window(arrays, window.start, window.start + omega)
        truth_r, truth_s, truth_sum = operator._key_counts(
            arrays, window.start, window.end, None
        )
        truth = operator._outputs(truth_r, truth_s, truth_sum, truth_r)
        if idx - first >= warmup_windows:
            result.estimates.append(est)
            result.compensated_errors.append(_grouped_l1(est.values, truth))
            result.observed_errors.append(_grouped_l1(est.observed, truth))
        idx += 1
    return result
