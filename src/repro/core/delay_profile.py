"""Online empirical delay distribution ("how late do tuples run?").

PECJ's proactive compensation needs to know, for a sub-interval of age
``a`` (time elapsed since its events occurred), what fraction of its tuples
have already arrived — the *completeness* ``c(a) = P(delta <= a)``.  The
reciprocal ``1/c(a)`` is exactly the expected reverse-linear distortion
``E[z_i]`` of the paper's Eq. 6: an interval observed at age ``a`` shows
``x_i ~ mu_w * c(a)``, so ``z_i ~ 1/c(a)`` restores it.

The profile is learned continually from the delays of tuples as the
operator processes them (delays are observable in hindsight: every arrived
tuple carries both timestamps), with exponential forgetting so the profile
tracks drifting network conditions.  It is intentionally a *time-averaged*
view — under regime-switching delays this average is wrong for any single
regime, which is precisely the bias that breaks the analytical
instantiation in the paper's Section 6.5 and that the learning-based
backend can overcome.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["DelayProfile"]


def _pairwise_sum(vals: list[float]) -> float:
    """``float(np.add.reduce(vals))`` for a list of floats, bit for bit.

    Mirrors the reduction numpy runs on a contiguous float64 array
    (:func:`_pairwise`), added to the reduction's identity ``0.0`` the
    way numpy seeds it (which turns an all ``-0.0`` sum into ``0.0``),
    without building an array.
    """
    return 0.0 + _pairwise(vals, 0, len(vals))


def _pairwise(vals: list[float], lo: int, n: int) -> float:
    """``vals[lo:lo + n]`` summed in numpy's pairwise order.

    Below eight values one left-to-right sum from ``0.0``; up to 128
    values eight strided accumulators combined as a balanced tree, then
    the remainder added in order; beyond that the two halves (split at a
    multiple of eight), recursively.
    """
    if n < 8:
        res = 0.0
        for i in range(lo, lo + n):
            res += vals[i]
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = vals[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += vals[i]
            r1 += vals[i + 1]
            r2 += vals[i + 2]
            r3 += vals[i + 3]
            r4 += vals[i + 4]
            r5 += vals[i + 5]
            r6 += vals[i + 6]
            r7 += vals[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += vals[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(vals, lo, half) + _pairwise(vals, lo + half, n - half)


class DelayProfile:
    """Histogram estimate of the tuple-delay CDF with forgetting.

    Args:
        num_bins: Histogram resolution.
        initial_span: Starting delay range covered (ms); the range doubles
            automatically when larger delays appear.
        decay: Multiplicative forgetting applied per :meth:`decay_step`
            (the operator calls it once per emitted window).
        min_weight: Below this total weight the profile declines to answer
            (completeness falls back to 1: no compensation while cold).
    """

    def __init__(
        self,
        num_bins: int = 128,
        initial_span: float = 8.0,
        decay: float = 0.999,
        min_weight: float = 50.0,
    ):
        if num_bins < 8:
            raise ValueError("need at least 8 bins")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.num_bins = num_bins
        self.decay = decay
        self.min_weight = min_weight
        self._span = float(initial_span)
        self._counts = np.zeros(num_bins)
        self._total = 0.0
        self._max_seen = 0.0
        # Memoized (cumsum(counts), counts.sum()) pair; every query needs
        # it and the counts only change on update/grow/decay, so caching
        # turns the per-bucket CDF rebuild into an O(1) lookup.  The
        # cached values are exactly what the queries used to recompute,
        # so answers are bit-identical.
        self._cdf_cache: tuple[np.ndarray, float] | None = None
        # Python-list copies of the cached CDF and of the counts, for the
        # scalar :meth:`mean_completeness`; the first entry is the
        # ``_cdf_cache`` tuple they were copied under, so any reset of
        # the cache (update, grow, decay, restore, a poisoning write)
        # invalidates them too.
        self._cdf_lists: tuple[tuple[np.ndarray, float], list, list] | None = None
        # Bin edges of the current span, the ones ``np.histogram`` would
        # build for ``range=(0, span)``; keyed by span so a grow (or a
        # restore that writes ``_span`` directly) rebuilds them.
        self._edges: tuple[float, np.ndarray] | None = None

    # -- learning ---------------------------------------------------------

    def update(self, delays: np.ndarray) -> None:
        """Absorb a batch of observed delays (ms, finite and >= 0).

        The whole batch is validated — and rejected with ``ValueError``
        without mutating any state — before a single count is absorbed.
        Every delay must be non-negative: checking only the maximum used
        to let a mixed-sign batch through, leaving the profile's weight
        ahead of its histogram mass and biasing every arrived-fraction
        answer low.  Callers that observe raw ``arrival - event`` gaps
        (which clock skew can drive below zero) clamp to zero first — a
        tuple that arrived *early* has simply arrived.  Every delay must
        also be finite: an infinite one would double the span forever,
        and a NaN would count in the weight but land in no bin.

        Each delay goes to the bin whose ``np.histogram`` edges
        (``linspace(0, span, num_bins + 1)``) bracket it, found by one
        ``searchsorted`` and counted by one ``np.bincount``.  numpy's
        uniform-bin path scales each delay to an index and then moves
        it by one bin where rounding broke ``edges[i] <= d <
        edges[i + 1]`` against the same edges, so the counts equal
        ``np.histogram(delays, bins=num_bins, range=(0, span))``'s
        without its per-call set-up.
        """
        delays = np.asarray(delays, dtype=float)
        if delays.size == 0:
            return
        dmin = float(delays.min())
        dmax = float(delays.max())
        if not (math.isfinite(dmin) and math.isfinite(dmax)):
            raise ValueError("delays must be finite")
        if dmin < 0:
            raise ValueError("delays must be non-negative")
        self._absorb(delays, dmax)

    def _absorb(self, delays: np.ndarray, dmax: float) -> None:
        """:meth:`update`'s body, for a non-empty float batch its caller has
        already checked to be finite and non-negative (``dmax`` is its
        maximum)."""
        self._max_seen = max(self._max_seen, dmax)
        while dmax >= self._span:
            self._grow()
        if self._edges is None or self._edges[0] != self._span:
            self._edges = (
                self._span, np.linspace(0.0, self._span, self.num_bins + 1)
            )
        bins = self._edges[1].searchsorted(delays, side="right") - 1
        self._counts += np.bincount(bins, minlength=self.num_bins)
        self._total += float(delays.size)
        self._cdf_cache = None

    def _grow(self) -> None:
        """Double the covered span, merging bin pairs."""
        merged = self._counts.reshape(-1, 2).sum(axis=1)
        self._counts = np.concatenate([merged, np.zeros(self.num_bins // 2)])
        self._span *= 2.0
        self._cdf_cache = None

    def decay_step(self) -> None:
        """Apply one step of exponential forgetting."""
        self._counts *= self.decay
        self._total *= self.decay
        self._cdf_cache = None

    def _cdf(self) -> tuple[np.ndarray, float]:
        """Cached ``(cumsum(counts), counts.sum())`` of the histogram."""
        if self._cdf_cache is None:
            self._cdf_cache = (np.cumsum(self._counts), float(self._counts.sum()))
        return self._cdf_cache

    # -- queries ----------------------------------------------------------

    @property
    def weight(self) -> float:
        """Effective number of delays currently remembered."""
        return self._total

    @property
    def is_warm(self) -> bool:
        """Whether enough delay samples have arrived to trust the profile."""
        return self._total >= self.min_weight

    def completeness(self, age: float) -> float:
        """``P(delay <= age)`` — expected fraction arrived by ``age`` ms.

        Cold profiles answer 1.0 (assume in-order until taught otherwise,
        i.e. no compensation).  Interpolates within the hit bin.
        """
        if not self.is_warm:
            return 1.0
        if age <= 0.0:
            return 0.0
        if age >= self._span:
            return 1.0
        cdf, total = self._cdf()
        if total <= 0.0:
            return 1.0
        bin_width = self._span / self.num_bins
        pos = age / bin_width
        idx = int(pos)
        below = cdf[idx - 1] if idx > 0 else 0.0
        frac = pos - idx
        inside = self._counts[idx] * frac if idx < self.num_bins else 0.0
        return float(min(1.0, (below + inside) / total))

    def completeness_many(self, ages: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`completeness` over an array of ages.

        Bit-identical to calling :meth:`completeness` per element — every
        expression mirrors the scalar path op for op, which is what lets
        the fused PECJ estimator loops batch their per-bucket
        completeness lookups without perturbing any output.
        """
        ages = np.asarray(ages, dtype=float)
        if not self.is_warm:
            return np.ones_like(ages)
        cdf, total = self._cdf()
        if total <= 0.0:
            return np.ones_like(ages)
        bin_width = self._span / self.num_bins
        pos = ages / bin_width
        # Truncation matches the scalar int(pos); out-of-range ages are
        # masked below, the clip only keeps the gathers in bounds.
        idx = np.clip(pos.astype(np.int64), 0, self.num_bins)
        below = np.where(idx > 0, cdf[np.maximum(idx, 1) - 1], 0.0)
        inside = np.where(
            idx < self.num_bins,
            self._counts[np.minimum(idx, self.num_bins - 1)] * (pos - idx),
            0.0,
        )
        vals = np.minimum(1.0, (below + inside) / total)
        return np.where(ages <= 0.0, 0.0, np.where(ages >= self._span, 1.0, vals))

    def mean_completeness(self, ages: Sequence[float]) -> float:
        """Mean of the clipped completeness over non-empty ``ages``.

        Bit-identical to ``float(np.mean(np.clip(self.completeness_many(
        ages), 0.0, 1.0)))`` — the per-window compensation idiom — but
        computed with Python scalars on list copies of the cached CDF
        and counts, which is several times cheaper on the handful of
        bucket ages a window query averages.  Each age follows
        :meth:`completeness_many`'s expressions, the clip keeps numpy's
        NaN propagation (a poisoned profile must answer NaN, not the 1.0
        the scalar :meth:`completeness` would give), and the values are
        summed in numpy's pairwise order (:func:`_pairwise_sum`) so the
        rounding matches ``np.mean``.  Pass a list: iterating an array
        gives the same answer, only slower.
        """
        if self._total < self.min_weight:  # cold: no compensation
            return 1.0
        cache = self._cdf_cache or self._cdf()
        total = cache[1]
        if total <= 0.0:
            return 1.0
        lists = self._cdf_lists
        if lists is None or lists[0] is not cache:
            lists = self._cdf_lists = (cache, cache[0].tolist(), self._counts.tolist())
        _, cdf, counts = lists
        nb = self.num_bins
        span = self._span
        bin_width = span / nb
        vals = []
        append = vals.append
        for age in ages:
            if age <= 0.0:
                append(0.0)
            elif age >= span:
                append(1.0)
            elif age != age:
                append(math.nan)
            else:
                pos = age / bin_width
                # 0 < age < span keeps int(pos) <= nb, so this is
                # completeness_many's clipped index.
                idx = int(pos)
                below = cdf[idx - 1] if idx > 0 else 0.0
                inside = counts[idx] * (pos - idx) if idx < nb else 0.0
                v = (below + inside) / total
                # np.minimum(1.0, v) then np.clip(v, 0.0, 1.0); NaN and
                # -0.0 pass through both unchanged.
                if v > 1.0:
                    v = 1.0
                elif v < 0.0:
                    v = 0.0
                append(v)
        return _pairwise_sum(vals) / len(vals)

    def quantile_age(self, p: float) -> float:
        """Inverse CDF: the age by which a fraction ``p`` has arrived.

        Used to build the truncated-quantile ages against which the
        learning backend compares a window's *observed* delay shape.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if not self.is_warm:
            return 0.0
        raw_cdf, total = self._cdf()
        if total <= 0.0:
            return 0.0
        bin_width = self._span / self.num_bins
        cdf = raw_cdf / total
        idx = int(np.searchsorted(cdf, p, side="left"))
        if idx >= self.num_bins:
            return self._span
        prev = cdf[idx - 1] if idx > 0 else 0.0
        width = cdf[idx] - prev
        frac = (p - prev) / width if width > 0 else 1.0
        return (idx + frac) * bin_width

    def horizon(self, quantile: float = 0.999) -> float:
        """Age by which a ``quantile`` fraction of tuples has arrived.

        Used to decide when a past interval can be *finalized* (treated as
        complete).  Cold profiles report the max delay seen so far.
        """
        if not 0.0 < quantile <= 1.0:
            raise ValueError("quantile must be in (0, 1]")
        if not self.is_warm:
            return self._max_seen
        raw_cdf, total = self._cdf()
        if total <= 0.0:
            return self._max_seen
        cdf = raw_cdf / total
        idx = int(np.searchsorted(cdf, quantile, side="left"))
        bin_width = self._span / self.num_bins
        return min((idx + 1) * bin_width, self._span)
