"""The PECJ operator: stream window join with proactive error compensation.

Flow per emitted window (paper Sections 3-5):

1. **Observe** — as virtual time advances, ingest the delays of every
   newly processed tuple into the online :class:`DelayProfile` (the
   learned stream-dynamics knowledge behind ``E[z_i]``).
2. **Finalize** — sub-intervals ("buckets") and whole windows older than
   the profile's delay horizon are complete; their now-unbiased statistics
   feed the estimators' continual learning (Eq. 5's rolling prior).
3. **Estimate** — the current window's buckets are observed *distorted*
   (a bucket of age ``a`` has only seen a ``c(a)`` fraction of its
   tuples); Eq. 9 blends the prior with the distortion-corrected
   observations to produce posterior means for ``r_bar_R``, ``r_bar_S``,
   ``sigma`` and ``alpha_R``.
4. **Compensate** — closed forms from Section 3.2 produce the output
   ``O`` *as if the unobserved tuples had arrived*.

Steps 3-4 and the learning half of step 2 live in :class:`PECJCore`,
shared by the batch :class:`PECJoin` and the push-based
:class:`~repro.streaming.StreamingPECJ`; each operator only decides which
tuples a window has seen and when a window is final.

The estimator backend is pluggable: ``aema`` (default analytical), ``svi``
(gradient-based analytical) or ``mlp`` (learning-based, Section 5.2).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro import obs
from repro.obs import trace
from repro.core.compensation import CompensatedEstimate, compensate, product_interval
from repro.core.delay_profile import DelayProfile
from repro.core.estimators.base import PosteriorEstimator
from repro.joins.arrays import AggKind, BatchArrays, WindowAggregate
from repro.joins.base import StreamJoinOperator
from repro.streams.windows import Window

__all__ = ["PECJCore", "PECJoin", "make_estimator"]


def make_estimator(backend: str, seed: int = 0) -> PosteriorEstimator:
    """Instantiate an estimator backend by name."""
    if backend == "aema":
        from repro.core.estimators.aema import AEMAEstimator

        return AEMAEstimator()
    if backend == "svi":
        from repro.core.estimators.svi_backend import SVIEstimator

        return SVIEstimator()
    if backend == "mlp":
        from repro.core.estimators.mlp_backend import MLPEstimator

        return MLPEstimator(seed=seed)
    raise ValueError(f"unknown PECJ backend {backend!r}")


class PECJCore:
    """PECJ's learned state and estimation steps, shared by both operators.

    A host operator sets ``agg``, ``backend`` and ``min_completeness``,
    calls :meth:`_reset_core` to build the learned state, and feeds the
    steps what it has seen of a window:

    * :meth:`_delay_context_at` — the delay-shape context from a delay
      sample around the window, built only while :attr:`_wants_context`
      (an estimator overrides ``set_context``);
    * :meth:`_rate_estimates` — window counts from per-bucket
      ``(n_r, n_s, c)`` observations (Eq. 9 for analytical backends, the
      additive inverse-variance fill for learning backends);
    * :meth:`_compensate` — the selectivity/payload blend of the window's
      own readings, then Section 3.2's closed form;
    * :meth:`_output_interval` — the delta-method credible interval;
    * :meth:`_window_feedback` — a finalized window's ground truth for
      the estimators (including the learned completeness factor).
    """

    agg: AggKind
    backend: str
    min_completeness: float

    def _reset_core(self, omega: float, make: Callable[[], PosteriorEstimator]) -> None:
        """(Re)build the delay profile, the four estimators and the EMAs."""
        self.profile = DelayProfile(initial_span=max(8.0, omega))
        self.rate_r = make()
        self.rate_s = make()
        self.sigma = make()
        self.alpha = make()
        # Whether any estimator reads the delay-shape context: the base
        # set_context discards it, so hosts build it only when this holds.
        self._wants_context = any(
            type(est).set_context is not PosteriorEstimator.set_context
            for est in (self.rate_r, self.rate_s, self.sigma, self.alpha)
        )
        self._matches_ema = 0.0
        self._m_ema: float | None = None
        # Relative variance of the learned completeness factor, tracked
        # from delayed ground truth (drives the inverse-variance fill).
        self._m_rel_var = 0.04
        # Emission-time observation snapshots, kept until window
        # finalization so learning backends can be told the realised
        # completeness factor: window idx -> (obs_r, obs_s, c_bar, m_hat).
        self._fill_snapshots: dict[int, tuple[int, int, float, float]] = {}
        # Whether the most recent rate estimate hit a clamp (observation
        # floor / negative prior), surfaced per window in trace samples.
        self._last_clamped = False

    def _warm(self) -> bool:
        """Whether there is compensation knowledge yet (else answer like WMJ)."""
        return self.profile.is_warm and self.rate_r.is_warm and self.rate_s.is_warm

    def _delay_context_at(
        self, age: float, sample: Callable[[], np.ndarray]
    ) -> tuple[float, float, float, float]:
        """Delay-shape reading of a window whose midpoint is ``age`` old.

        Compares the empirical CDF of the delays ``sample()`` returns (those
        observed around the window) against the long-run profile at three
        truncated quantiles.  Ratios near 1 mean the window matches the
        long-run dynamics; deviations reveal the current regime.  ``sample``
        is only called once the profile is warm.  Only learning backends
        consume it, so hosts call this only while :attr:`_wants_context`.
        """
        c_assumed = self.profile.completeness(age)
        neutral = (c_assumed, 1.0, 1.0, 1.0)
        if not self.profile.is_warm or c_assumed <= 0.02:
            return neutral
        delays = sample()
        if len(delays) < 10:
            return neutral
        ratios = []
        for q in (0.25, 0.5, 0.75):
            a_q = self.profile.quantile_age(q * c_assumed)
            if a_q <= 0.0:
                ratios.append(1.0)
                continue
            f_q = float(np.mean(delays <= a_q))
            ratios.append(min(max(f_q / q, 0.0), 2.5))
        return (c_assumed, ratios[0], ratios[1], ratios[2])

    def _set_context(self, context: tuple[float, float, float, float]) -> None:
        """Hand the window's delay-shape context to all four estimators."""
        for est in (self.rate_r, self.rate_s, self.sigma, self.alpha):
            est.set_context(context)

    def _rate_estimates(
        self,
        widx: int,
        n_rs: list[int],
        n_ss: list[int],
        cs: list[float],
        bucket_len: float,
        length: float,
    ) -> tuple[float, float, int, int]:
        """``(n_hat_r, n_hat_s, obs_r, obs_s)`` for window ``widx``.

        ``n_rs``/``n_ss`` are each bucket's available tuple counts and
        ``cs`` its expected completeness.  Analytical backends blend the
        buckets' distortion-corrected rates into the prior (Eq. 9);
        learning backends take :meth:`_additive_rate_estimates`.
        """
        if self.rate_r.completeness_factor() is not None:
            return self._additive_rate_estimates(widx, n_rs, n_ss, cs, bucket_len, length)
        xs_r: list[float] = []
        xs_s: list[float] = []
        zs: list[float] = []
        for n_r, n_s, c in zip(n_rs, n_ss, cs):
            if c < self.min_completeness:
                continue
            xs_r.append(n_r / bucket_len)
            xs_s.append(n_s / bucket_len)
            zs.append(1.0 / c)
        obs_r = sum(n_rs)
        obs_s = sum(n_ss)
        mu_r = self.rate_r.blend(xs_r, zs, tag=widx)
        mu_s = self.rate_s.blend(xs_s, zs, tag=widx)
        obs.counter(f"pecj.{self.backend}.blend_calls").inc(2)
        self._last_clamped = float(obs_r) > mu_r * length or float(obs_s) > mu_s * length
        if self._last_clamped:
            # The posterior rate undershoots what was already observed;
            # the observation floor wins (a sign the prior lags the
            # stream, worth watching per backend).
            obs.counter(f"pecj.{self.backend}.clamp.rate_floor").inc()
        n_hat_r = max(mu_r * length, float(obs_r))
        n_hat_s = max(mu_s * length, float(obs_s))
        return n_hat_r, n_hat_s, obs_r, obs_s

    def _additive_rate_estimates(
        self,
        widx: int,
        n_rs: list[int],
        n_ss: list[int],
        cs: list[float],
        bucket_len: float,
        length: float,
    ) -> tuple[float, float, int, int]:
        """Learning-backend path: ``n_hat = n_obs + (1 - c_hat) * mu * len``.

        The network supplies (a) a history-trained prior rate ``mu`` and
        (b) a regime factor ``m_hat`` correcting the stationary profile's
        completeness; the unseen remainder of each bucket is filled from
        the prior.  This additive form keeps the observed tuples exact and
        only estimates what is actually missing, unlike the Eq. 9 blend
        which re-estimates the whole window.
        """
        raw_mu_r = self.rate_r.blend([], [], tag=widx)
        raw_mu_s = self.rate_s.blend([], [], tag=widx)
        obs.counter(f"pecj.{self.backend}.blend_calls").inc(2)
        self._last_clamped = raw_mu_r < 0.0 or raw_mu_s < 0.0
        if self._last_clamped:
            obs.counter(f"pecj.{self.backend}.clamp.negative_rate").inc()
        mu_r = max(raw_mu_r, 0.0)
        mu_s = max(raw_mu_s, 0.0)
        m_r = self.rate_r.completeness_factor() or 1.0
        m_s = self.rate_s.completeness_factor() or 1.0
        m_hat = 0.5 * (m_r + m_s)
        # Short EMA over consecutive windows: regimes persist, so averaging
        # two windows halves the factor's noise at a one-window lag cost.
        if self._m_ema is not None:
            m_hat = 0.5 * self._m_ema + 0.5 * m_hat
        self._m_ema = m_hat

        obs_r = sum(n_rs)
        obs_s = sum(n_ss)
        missing_time = 0.0
        for c_b in cs:
            c_hat = min(max(m_hat * c_b, 0.0), 1.0)
            missing_time += (1.0 - c_hat) * bucket_len
        c_bar = sum(cs) / len(cs)
        c_hat_bar = 1.0 - missing_time / length
        self._fill_snapshots[widx] = (obs_r, obs_s, c_bar, m_hat)

        # Fill the unseen remainder at a rate that combines two estimates
        # by inverse variance: (1) the current window's own observations
        # extrapolated through the learned completeness — exact "now" but
        # noisy through 1/c_hat; (2) the history-trained prior — smooth
        # but lagging a full delay horizon behind the stream.  Both
        # variances are tracked online from delayed ground truth.
        n_hat = []
        for n_obs, mu, est in ((obs_r, mu_r, self.rate_r), (obs_s, mu_s, self.rate_s)):
            fill = mu
            if c_hat_bar >= 0.05:
                est1 = n_obs / (c_hat_bar * length)
                rel_var1 = (1.0 - c_hat_bar) / (c_hat_bar * max(n_obs, 1.0))
                rel_var1 += self._m_rel_var
                sd2 = getattr(est, "residual_std", lambda: 0.0)()
                rel_var2 = (sd2 / mu) ** 2 if mu > 0 else 1.0
                rel_var2 = min(max(rel_var2, 1e-4), 1.0)
                w1 = rel_var2 / (rel_var1 + rel_var2)
                fill = w1 * est1 + (1.0 - w1) * mu
            n_hat.append(n_obs + fill * missing_time)

        self._last_m_hat = m_hat
        self._last_c_bar = c_bar
        self._last_mu_r = mu_r
        self._last_mu_s = mu_s
        self._last_missing = missing_time
        return n_hat[0], n_hat[1], obs_r, obs_s

    def _compensate(
        self, widx: int, n_hat_r: float, n_hat_s: float, observed: WindowAggregate
    ) -> tuple[CompensatedEstimate, float, float, float | None]:
        """Blend ``sigma``/``alpha`` with the window's readings, then compensate.

        Returns the compensated estimate, the posterior ``sigma`` and
        ``alpha`` before clamping, and the weight of the window's own
        selectivity reading (``None`` when it had none).
        """
        w_sigma = None
        if observed.n_r > 0 and observed.n_s > 0:
            # Weight the window's own selectivity reading by how much of
            # the expected join evidence it carries.
            if self._matches_ema > 0.0:
                w_sigma = 60.0 * min(observed.matches / self._matches_ema, 1.2)
            else:
                w_sigma = 1.0
            sigma_hat = self.sigma.blend(
                [observed.selectivity], [1.0], tag=widx, weights=[max(w_sigma, 0.2)]
            )
            obs.counter(f"pecj.{self.backend}.blend_calls").inc()
        else:
            sigma_hat = self.sigma.estimate()

        alpha_hat = 0.0
        if self.agg is not AggKind.COUNT:
            if observed.matches > 0:
                w_alpha = max(min(observed.matches ** 0.5, 40.0), 0.2)
                alpha_hat = self.alpha.blend(
                    [observed.alpha_r], [1.0], tag=widx, weights=[w_alpha]
                )
                obs.counter(f"pecj.{self.backend}.blend_calls").inc()
            else:
                alpha_hat = self.alpha.estimate()

        est = compensate(self.agg, n_hat_r, n_hat_s, sigma_hat, alpha_hat)
        return est, sigma_hat, alpha_hat, w_sigma

    def _output_interval(self, est: CompensatedEstimate, length: float) -> tuple[float, float]:
        """Delta-method credible interval for the compensated output.

        Propagates each factor's posterior standard deviation (paper
        Eq. 10 gives the per-statistic intervals; the product interval
        follows by summing relative variances).  ``length`` converts the
        rate deviations into count deviations.
        """

        def sd_of(estimator) -> float:
            lo, hi = estimator.credible_interval(1.96)
            return max(hi - lo, 0.0) / (2 * 1.96)

        factors = [
            (est.sigma, sd_of(self.sigma)),
            (est.n_r, sd_of(self.rate_r) * length),
            (est.n_s, sd_of(self.rate_s) * length),
        ]
        if self.agg is AggKind.SUM:
            factors.append((est.alpha_r, sd_of(self.alpha)))
        elif self.agg is AggKind.AVG:
            factors = [(est.alpha_r, sd_of(self.alpha))]
        means = [m for m, _ in factors]
        stds = [s for _, s in factors]
        lo, hi = product_interval(means, stds)
        return (max(lo, 0.0) if self.agg is not AggKind.AVG else lo, hi)

    def _window_feedback(self, widx: int, truth: WindowAggregate, length: float) -> None:
        """Feed finalized window ``widx``'s ground truth to the estimators.

        ``sigma``/``alpha`` observe the window's selectivity and payload
        mean, every estimator gets delayed feedback on the tag it blended
        under, and learning backends are told the completeness factor the
        window realised against its emission snapshot.
        """
        if truth.n_r > 0 and truth.n_s > 0:
            self.sigma.observe(truth.selectivity, 1.0)
            self.sigma.feedback(widx, truth.selectivity)
        if truth.matches > 0:
            self.alpha.observe(truth.alpha_r, 1.0)
            self.alpha.feedback(widx, truth.alpha_r)
            if self._matches_ema <= 0.0:
                self._matches_ema = truth.matches
            else:
                self._matches_ema = 0.95 * self._matches_ema + 0.05 * truth.matches
        self.rate_r.feedback(widx, truth.n_r / length)
        self.rate_s.feedback(widx, truth.n_s / length)
        snapshot = self._fill_snapshots.pop(widx, None)
        if snapshot is not None:
            obs_r, obs_s, c_bar, m_hat = snapshot
            if c_bar > 0.0:
                if truth.n_r > 0:
                    m_true_r = (obs_r / truth.n_r) / c_bar
                    self.rate_r.feedback_completeness(widx, m_true_r)
                    if m_hat > 0.0:
                        rel = (m_true_r - m_hat) / m_hat
                        self._m_rel_var = 0.97 * self._m_rel_var + 0.03 * rel * rel
                if truth.n_s > 0:
                    self.rate_s.feedback_completeness(widx, (obs_s / truth.n_s) / c_bar)


class PECJoin(StreamJoinOperator, PECJCore):
    """Proactive Error Compensation Join.

    Args:
        agg: The aggregation of the join output (COUNT / SUM / AVG).
        backend: Estimator backend — ``aema`` (default), ``svi`` or
            ``mlp``.
        buckets_per_window: Sub-interval resolution for rate observations.
        min_completeness: Buckets whose expected completeness is below
            this are too distorted to observe; the prior covers them.
        finalize_quantile: Delay-CDF quantile treated as "everything has
            arrived" when finalizing past intervals.
        learning_inference_ms: Per-emission inference latency charged when
            the backend is a neural network (the paper measures ~90ms for
            its MLP, Fig. 7a).  ``None`` picks 90 for ``mlp``, 0 otherwise.
        origin: Event-time offset of the window grid this operator
            serves.  Tumbling joins leave it at 0; the sliding-window
            adapter runs one PECJ instance per slide phase, each with its
            own origin (see :mod:`repro.joins.sliding`).
        estimator_factory: Override backend construction (ablations).
        seed: Seed forwarded to learned backends.

    The per-window delay-shape context is built only for backends whose
    estimators read it (``mlp``); ``aema`` and ``svi`` skip it.
    Per-bucket available counts are advanced by one ``bincount`` per
    drain along the completion order and read off by the window sweeps,
    and each finalization batch reaches the estimators in one
    :meth:`~repro.core.estimators.base.PosteriorEstimator.observe_many`
    call; ``tests/oracles/pecj_loop.py`` keeps the per-bucket reference
    loop these must match bit for bit.
    """

    name = "PECJ"
    pipeline_method = "pecj"

    def __init__(
        self,
        agg: AggKind = AggKind.COUNT,
        backend: str = "aema",
        buckets_per_window: int = 10,
        min_completeness: float = 0.05,
        finalize_quantile: float = 0.995,
        learning_inference_ms: float | None = None,
        origin: float = 0.0,
        estimator_factory: Callable[[], PosteriorEstimator] | None = None,
        seed: int = 0,
        debug: bool = False,
    ):
        super().__init__(agg)
        if buckets_per_window < 1:
            raise ValueError("buckets_per_window must be >= 1")
        self.backend = backend
        self.origin = origin
        self.buckets_per_window = buckets_per_window
        self.min_completeness = min_completeness
        self.finalize_quantile = finalize_quantile
        self.seed = seed
        self._factory = estimator_factory or (lambda: make_estimator(backend, seed))
        if learning_inference_ms is None:
            learning_inference_ms = 90.0 if backend == "mlp" else 0.0
        self.learning_inference_ms = learning_inference_ms
        self.name = f"PECJ-{backend}"
        self.debug = debug
        self.debug_records: list[dict[str, float]] = []
        #: 95% credible interval of the most recent compensated output
        #: (None while cold).
        self.last_interval: tuple[float, float] | None = None

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, arrays: BatchArrays, window_length: float, omega: float) -> None:
        """Precompute batch orderings and rate priors; reset runtime cursors."""
        self._wlen = window_length
        self._omega = omega
        self._bucket_len = window_length / self.buckets_per_window
        self._reset_core(omega, self._factory)
        # Delay-ingest cursor over completion-ordered tuples (the order and
        # the sorted completions are cached on the batch per completion
        # version), with their clamped delays computed once: each drain
        # absorbs a slice.
        order = self._comp_order = arrays.completion_order()
        self._comp_sorted = arrays.sorted_completion()
        delays = arrays.arrival[order]
        delays -= arrays.event[order]
        self._comp_delays = np.maximum(delays, 0.0, out=delays)
        self._ingest_cursor = 0
        # Finalization cursors (bucket / window indices on the event axis);
        # the event column is sorted.
        t0, t1 = (float(arrays.event[0]), float(arrays.event[-1])) if len(arrays) else (0.0, 0.0)
        self._next_bucket = int(np.floor((t0 - self.origin) / self._bucket_len))
        self._next_window = int(np.floor((t0 - self.origin) / self._wlen))
        # Per-bucket available counts over a grid with two buckets of
        # margin on each side of the batch, and the completion-order
        # prefix they count.
        self._avail_counts = None
        self._count_cursor = 0
        self._build_bucket_grid(
            self._next_bucket - 2,
            int(np.floor((t1 - self.origin) / self._bucket_len)) + 2,
        )

    # -- observation machinery ----------------------------------------------

    def _ingest_delays(self, arrays: BatchArrays, now: float) -> None:
        hi = int(self._comp_sorted.searchsorted(now, side="right"))
        if hi != self._count_cursor:
            self._drain_counts(arrays, hi)
        if hi <= self._ingest_cursor:
            return
        self.profile.update(self._comp_delays[self._ingest_cursor : hi])
        self._ingest_cursor = hi

    def _build_bucket_grid(self, lo: int, hi: int) -> None:
        """(Re)build the per-bucket arrays over buckets ``[lo, hi)``,
        keeping the counts drained so far.

        Bucket ``b`` covers ``[origin + b * bucket_len, start +
        bucket_len)``, the float edges the per-bucket reference reads;
        ``_bucket_starts`` has one entry more, the start of bucket ``hi``.
        """
        starts = self.origin + np.arange(lo, hi + 1) * self._bucket_len
        ends = starts + self._bucket_len
        counts = np.zeros((hi - lo, 2), dtype=np.int64)
        if self._avail_counts is not None:
            at = self._bucket_base - lo
            counts[at : at + len(self._avail_counts)] = self._avail_counts
        self._bucket_base = lo
        self._bucket_starts = starts
        self._bucket_ends = ends[:-1]
        self._bucket_mids = 0.5 * (starts[:-1] + ends[:-1])
        #: Row ``i``: available S and R tuples of bucket ``lo + i``.
        self._avail_counts = counts

    def _bucket_rows(self, first: int, stop: int) -> slice:
        """Rows of the per-bucket arrays for buckets ``[first, stop)``,
        widening the grid when a run reads past the batch."""
        lo = first - self._bucket_base
        hi = stop - self._bucket_base
        if lo < 0 or hi > len(self._avail_counts):
            self._build_bucket_grid(
                min(first, self._bucket_base),
                max(stop, self._bucket_base + len(self._avail_counts)),
            )
            return self._bucket_rows(first, stop)
        return slice(lo, hi)

    def _drain_counts(self, arrays: BatchArrays, hi: int) -> None:
        """Move the counted completion-order prefix to ``[0, hi)``.

        The tuples between the old and the new cursor are binned and
        added with one ``bincount`` (subtracted when ``now`` went back),
        so each bucket's counts are its tuples with ``completion <=
        now``.  A tuple's bucket is numpy's histogram index against the
        bucket starts: a scaled guess, moved by one where rounding put
        it on the wrong side of an edge.
        """
        lo, sign = self._count_cursor, 1
        self._count_cursor = hi
        if hi < lo:
            lo, hi, sign = hi, lo, -1
        idx = self._comp_order[lo:hi]
        events = arrays.event[idx]
        starts = self._bucket_starts
        k = ((events - starts[0]) / self._bucket_len).astype(np.intp)
        k -= events < starts[k]
        k += events >= starts[k + 1]
        codes = k + k
        codes += arrays.is_r[idx]
        # Rounding can end a bucket an ulp before or after the next one
        # starts, so a tuple counts in its bucket only before that
        # bucket's end, and also in the previous bucket while that one
        # has not ended (the grid's margin keeps k >= 1).
        ends = self._bucket_ends
        codes = np.concatenate((codes[events < ends[k]], codes[events < ends[k - 1]] - 2))
        if not len(codes):
            return
        base = int(codes.min())
        n = np.bincount(codes - base)
        flat = self._avail_counts.reshape(-1)[base : base + len(n)]
        if sign > 0:
            flat += n
        else:
            flat -= n

    def _finalize_buckets(self, arrays: BatchArrays, first: int, now: float) -> None:
        """Feed the due buckets ``[first, self._next_bucket)`` to the rate estimators.

        Their counts are read off the drained per-bucket counts and the
        estimators absorb them in one :meth:`observe_many` call per
        stream side.  ``rate_r`` and ``rate_s`` are independent
        estimators, so feeding each its whole batch preserves the
        per-estimator observation order of a per-bucket loop.
        """
        rows = self._bucket_rows(first, self._next_bucket)
        counts = self._avail_counts[rows] / self._bucket_len
        cs = self.profile.completeness_list((now - self._bucket_mids[rows]).tolist())
        zs = [1.0 / c if c > 0.0 else 1.0 for c in cs]
        self.rate_r.observe_many(counts[:, 1].tolist(), zs)
        self.rate_s.observe_many(counts[:, 0].tolist(), zs)

    def _finalize(self, arrays: BatchArrays, now: float) -> None:
        horizon = self.profile.horizon(self.finalize_quantile)
        # Finalize rate buckets.
        first = self._next_bucket
        while self.origin + (self._next_bucket + 1) * self._bucket_len + horizon <= now:
            self._next_bucket += 1
        if self._next_bucket > first:
            self._finalize_buckets(arrays, first, now)
        # Finalize whole windows: ground truth for sigma/alpha (+feedback).
        while self.origin + (self._next_window + 1) * self._wlen + horizon <= now:
            w = self._next_window
            start = self.origin + w * self._wlen
            end = start + self._wlen
            self._window_feedback(w, self.window_aggregate(arrays, start, end, now), self._wlen)
            self._next_window += 1

    # -- estimation ----------------------------------------------------------

    def _delay_context(
        self, arrays: BatchArrays, window: Window, now: float
    ) -> tuple[float, float, float, float]:
        """Delay-shape reading of the current window (see :meth:`_delay_context_at`)."""

        def sample() -> np.ndarray:
            # Sample delays over several recent windows: regimes persist
            # much longer than one window, and a wider sample cuts the
            # quantile ratios' measurement noise (which multiplies
            # straight into the learned regime factor).  The age mix adds
            # a stable offset that the downstream learner absorbs.
            sl = arrays.window_slice(window.start - 4.0 * window.length, window.end)
            avail = arrays.completion[sl] <= now
            return (arrays.arrival[sl] - arrays.event[sl])[avail]

        return self._delay_context_at(now - 0.5 * (window.start + window.end), sample)

    def _window_bucket_sweep(
        self, arrays: BatchArrays, window: Window, now: float
    ) -> tuple[list[int], list[int], list[float]]:
        """``(n_rs, n_ss, cs)``: per-bucket counts and completeness of ``window``.

        Counts are taken over ``[start, min(start + bucket_len,
        window.end))`` and the completeness ``c`` at the age of the
        *unclipped* bucket midpoint.  The counts are read off the drained
        per-bucket counts, minus what lies past the window's end when a
        bucket ends after it, and the completenesses come from one
        :meth:`~repro.core.delay_profile.DelayProfile.completeness_list`
        call.
        """
        first = int(round((window.start - self.origin) / self._bucket_len))
        rows = self._bucket_rows(first, first + self.buckets_per_window)
        counts = self._avail_counts[rows]
        n_rs = counts[:, 1].tolist()
        n_ss = counts[:, 0].tolist()
        i = rows.stop - 1
        while i >= rows.start and self._bucket_ends[i] > window.end:
            cut = arrays.window_slice(
                max(self._bucket_starts[i], window.end), self._bucket_ends[i]
            )
            avail = arrays.completion[cut] <= now
            n_r = int((arrays.is_r[cut] & avail).sum())
            n_rs[i - rows.start] -= n_r
            n_ss[i - rows.start] -= int(avail.sum()) - n_r
            i -= 1
        cs = self.profile.completeness_list((now - self._bucket_mids[rows]).tolist())
        return n_rs, n_ss, cs

    def process_window(
        self, arrays: BatchArrays, window: Window, available_by: float
    ) -> tuple[float, float]:
        """Emit the window's compensated aggregate at its cutoff (Section 4)."""
        now = available_by
        self._ingest_delays(arrays, now)
        self._finalize(arrays, now)
        self.profile.decay_step()

        observed = self.window_aggregate(arrays, window.start, window.end, now)
        extra = self.learning_inference_ms

        # Cold start: no compensation knowledge yet — answer like WMJ.
        if not self._warm():
            self.last_interval = None
            obs.counter(f"pecj.{self.backend}.cold_windows").inc()
            trace.instant(
                "pecj.cold", now, cat="estimator", track=f"pecj.{self.backend}",
                args={"window_start": float(window.start)},
            )
            return observed.value(self.agg), extra
        obs.counter(f"pecj.{self.backend}.compensated_windows").inc()

        if self._wants_context:
            self._set_context(self._delay_context(arrays, window, now))
        widx = int(round((window.start - self.origin) / self._wlen))
        n_rs, n_ss, cs = self._window_bucket_sweep(arrays, window, now)
        n_hat_r, n_hat_s, obs_r, obs_s = self._rate_estimates(
            widx, n_rs, n_ss, cs, self._bucket_len, window.length
        )
        est, sigma_hat, alpha_hat, w_sigma = self._compensate(widx, n_hat_r, n_hat_s, observed)
        self.last_interval = self._output_interval(est, self._wlen)
        lo, hi = self.last_interval
        # Posterior health: relative width of the output credible interval
        # (wide = the estimators are uncertain about this regime).
        rel_width = (hi - lo) / max(abs(est.value), 1e-9)
        obs.gauge(f"pecj.{self.backend}.interval_rel_width.last").set(rel_width)
        obs.observe(f"pecj.{self.backend}.interval_rel_width", rel_width)
        if trace.is_tracing():
            sample = {
                "window_start": float(window.start),
                "r_bar_r": float(n_hat_r / window.length),
                "r_bar_s": float(n_hat_s / window.length),
                "n_hat_r": float(n_hat_r),
                "n_hat_s": float(n_hat_s),
                "obs_r": int(obs_r),
                "obs_s": int(obs_s),
                "sigma": float(sigma_hat),
                "alpha": float(alpha_hat),
                "value": float(est.value),
                "interval_lo": float(lo),
                "interval_hi": float(hi),
                "interval_rel_width": float(rel_width),
                "clamped": bool(self._last_clamped),
            }
            if w_sigma is not None:
                sample["w_sigma"] = float(w_sigma)
            trace.instant(
                "pecj.sample", now, cat="estimator",
                track=f"pecj.{self.backend}", args=sample,
            )
        if self.debug:
            truth = self.window_aggregate(arrays, window.start, window.end, None)
            self.debug_records.append(
                {
                    "window_start": window.start,
                    "n_r_est": n_hat_r,
                    "n_r_obs": float(obs_r),
                    "n_r_true": float(truth.n_r),
                    "n_s_est": n_hat_s,
                    "n_s_true": float(truth.n_s),
                    "sigma_est": sigma_hat,
                    "sigma_true": truth.selectivity,
                    "alpha_est": alpha_hat,
                    "alpha_true": truth.alpha_r,
                    "value": est.value,
                    "expected": truth.value(self.agg),
                    "m_hat": getattr(self, "_last_m_hat", float("nan")),
                    "c_bar": getattr(self, "_last_c_bar", float("nan")),
                    "mu_r": getattr(self, "_last_mu_r", float("nan")),
                    "mu_s": getattr(self, "_last_mu_s", float("nan")),
                    "missing": getattr(self, "_last_missing", float("nan")),
                }
            )
        return est.value, extra
