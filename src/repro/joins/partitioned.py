"""Partition-adaptive skew handling: PanJoin-style hot-key partitions.

PECJ's scalar machinery treats the key domain uniformly, but real
serving traffic is Zipfian: a handful of viral keys carry most of the
join mass while a long cold tail contributes noise.  Following *PanJoin:
A Partition-based Adaptive Stream Join* (PAPERS.md), this module
dedicates partitions to hot keys — each with its own posterior state —
while the cold tail shares one:

* :class:`SpaceSavingSketch` tracks per-key frequency on the virtual
  clock in ``O(capacity)`` memory with the classic Metwally et al.
  guarantee ``true <= count <= true + error``, so promotion decisions
  can use conservative lower-bound shares;
* :class:`PartitionMap` promotes the top-K keys whose lower-bound share
  clears a hysteresis band into dedicated hot partitions and demotes
  them when their upper-bound share falls out of it, re-partitioning at
  window barriers; a shift detector shaped like
  :class:`~repro.streams.watermarks.AdaptiveWatermark`'s (recent-slice
  median vs full-sample median of the hottest key's share) forces an
  immediate re-partition when skew drifts mid-stream, bypassing the
  periodic cadence;
* :class:`PartitionedPECJoin` rides the whole :class:`~repro.core.pecj.
  PECJoin` machinery unchanged (delay ingest, bucket finalization, the
  global rate/sigma/alpha estimators) and — only when the hot set is
  non-empty and warm — replaces the emitted value with a partitioned
  sum: hot keys get per-key Gamma-Poisson posteriors (each key's own
  :class:`_SideRatePrior` per side, plus its own
  :class:`~repro.core.delay_profile.DelayProfile`), the cold tail is
  compensated as one aggregate through the shared profile.  With an
  empty hot set the operator *is* PECJ — outputs are bit-for-bit
  identical, which the uniform-stream property tests pin.

Equi-join identity making the decomposition exact: partitions are
key-disjoint, so ``matches = sum_k n_r[k] * n_s[k]`` splits additively
into hot and cold terms with no cross-partition interaction, and the
observed integer accounting ``hot + cold == total`` holds per window by
construction (the churn tests assert it under forced promote/demote).

Observability: ``partition.promotions``, ``partition.demotions``,
``partition.hot_windows``, ``partition.migration_bytes``,
``partition.shift_repartitions``, the ``partition.hot_hit_rate.last``
gauge, and ``partition.repartition`` trace instants.
"""

from __future__ import annotations

import collections
import heapq

import numpy as np

from repro import obs
from repro.obs import trace
from repro.core.compensation import compensate
from repro.core.delay_profile import DelayProfile
from repro.core.pecj import PECJoin
from repro.joins.arrays import AggKind, BatchArrays
from repro.streams.windows import Window

__all__ = ["SpaceSavingSketch", "PartitionMap", "PartitionedPECJoin", "HotKeyState"]


class SpaceSavingSketch:
    """Space-saving heavy-hitter sketch (Metwally et al.).

    Maintains at most ``capacity`` ``(key -> count, error)`` counters.
    A new key replaces the minimum counter, inheriting its count as the
    new key's ``error`` bound, which yields the standard guarantees for
    any tracked key: ``count - error <= true_frequency <= count`` and
    every key with true frequency above ``total / capacity`` is tracked.
    :meth:`decay` scales all counters (and the total) so the sketch
    follows the *recent* key distribution instead of the lifetime one —
    the property the drift detector needs.

    The victim is the minimum count, and among equal counts the counter
    inserted earliest (an increment keeps a key's insertion sequence
    number; an eviction gives the new key a fresh one).  It is found in
    ``O(log capacity)`` through a heap of ``(count, seq, key)`` entries:
    every change pushes one entry, and an entry is live only while its
    ``(seq, count)`` still match the key's state — stale ones are
    discarded when they surface, and the heap is rebuilt from the
    counters once it holds :attr:`HEAP_SLACK` entries per counter.
    """

    #: Heap entries per counter before the heap is rebuilt.
    HEAP_SLACK = 4

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[int, float] = {}
        self._errors: dict[int, float] = {}
        self._seqs: dict[int, int] = {}
        self._heap: list[tuple[float, int, int]] = []
        self._next_seq = 0
        #: Total weight offered (decays with the counters).
        self.total = 0.0

    def offer(self, key: int, weight: float = 1.0) -> None:
        """Account ``weight`` occurrences of ``key``."""
        self._offer_all(((key, weight),))

    def offer_batch(self, keys: np.ndarray) -> None:
        """Account a batch of keys (grouped through one ``unique`` pass,
        offered in ascending key order)."""
        if len(keys) == 0:
            return
        uniq, cnt = np.unique(keys, return_counts=True)
        self._offer_all(
            zip(uniq.astype(np.int64, copy=False).tolist(), cnt.astype(float).tolist())
        )

    def _offer_all(self, pairs) -> None:
        """:meth:`offer` for each ``(key, weight)`` pair, in order."""
        counts, errors, seqs, heap = self._counts, self._errors, self._seqs, self._heap
        capacity = self.capacity
        limit = self.HEAP_SLACK * capacity
        total, next_seq, size = self.total, self._next_seq, len(counts)
        for key, weight in pairs:
            total += weight
            if key in counts:
                count = counts[key] = counts[key] + weight
                heapq.heappush(heap, (count, seqs[key], key))
            elif size < capacity:
                size += 1
                counts[key], errors[key], seqs[key] = weight, 0.0, next_seq
                heapq.heappush(heap, (weight, next_seq, key))
                next_seq += 1
            else:
                # Stale entries surface first; the first live one is the
                # victim, and the new key's entry replaces it in place.
                floor, seq, victim = heap[0]
                while seqs.get(victim) != seq or counts[victim] != floor:
                    heapq.heappop(heap)
                    floor, seq, victim = heap[0]
                del counts[victim], errors[victim], seqs[victim]
                count = counts[key] = floor + weight
                errors[key], seqs[key] = floor, next_seq
                heapq.heapreplace(heap, (count, next_seq, key))
                next_seq += 1
                continue
            if len(heap) > limit:
                self._rebuild_heap()
        self.total, self._next_seq = total, next_seq

    def _rebuild_heap(self) -> None:
        """One live entry per counter (drops every stale entry); in place,
        because :meth:`_offer_all` holds the list while it runs."""
        seqs = self._seqs
        self._heap[:] = [(c, seqs[k], k) for k, c in self._counts.items()]
        heapq.heapify(self._heap)

    def decay(self, factor: float) -> None:
        """Scale every counter (exponential forgetting of old regimes).

        Scaling can round distinct counts to equal ones, so the heap is
        rebuilt from the scaled counters.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        if factor == 1.0:
            return
        for k in self._counts:
            self._counts[k] *= factor
            self._errors[k] *= factor
        self.total *= factor
        self._rebuild_heap()

    def estimate(self, key: int) -> tuple[float, float]:
        """``(count, error)`` for ``key`` (``(0, 0)`` when untracked)."""
        return self._counts.get(key, 0.0), self._errors.get(key, 0.0)

    def top(self, k: int) -> list[tuple[int, float, float]]:
        """The ``k`` largest counters as ``(key, count, error)``, sorted.

        Ties break on the key so the ordering — and everything downstream
        of a promotion decision — is deterministic.
        """
        items = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[: max(k, 0)]
        return [(key, cnt, self._errors[key]) for key, cnt in items]

    def __len__(self) -> int:
        """Number of tracked keys."""
        return len(self._counts)


class _SideRatePrior:
    """Gamma prior over one key's rate on one side, moment-matched to
    exponentially decayed moments of its finalized windows' rates."""

    def __init__(self, decay: float = 0.95):
        self.decay = decay
        self._mean = 0.0
        self._second = 0.0
        self._weight = 0.0

    def update_one(self, count: float, window_len: float) -> None:
        """Absorb one finalized window's count."""
        rate = count / window_len
        self._mean = self.decay * self._mean + (1 - self.decay) * rate
        self._second = self.decay * self._second + (1 - self.decay) * (rate * rate)
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

    def filled_count(self, obs: float, c: float, window_len: float) -> float:
        """Observed count plus the Gamma-Poisson fill of the unseen part.

        With ``obs`` seen through a ``c``-thinning of a ``window_len``
        window, the posterior mean rate is ``(alpha + obs) / (beta + c *
        |W|)`` and the unseen remainder adds ``(1 - c)`` of it over the
        window.
        """
        alpha, beta = self.gamma_params()
        lam_hat = (alpha + obs) / (beta + c * window_len)
        return obs + (1.0 - c) * lam_hat * window_len


class HotKeyState:
    """Dedicated partition state of one promoted hot key.

    Per side a :class:`_SideRatePrior` moment-matches a Gamma prior to
    the key's *own* finalized window rates (cold keys share the tail's
    aggregate; a hot key has enough mass to earn its own posterior), and
    the key keeps its own :class:`~repro.core.delay_profile.DelayProfile`
    — per-key delay dynamics (one slow producer) stop polluting the
    shared completeness curve.  The payload EMA (updated under SUM only)
    stands in for the key's mean R payload in windows where none of its
    R tuples has been observed yet.
    """

    #: Approximate serialized size of the seeded scalar state, used for
    #: migration-byte accounting (8 bytes per tracked float).
    STATE_BYTES = 8 * 8

    def __init__(self, key: int, promoted_at: int):
        self.key = key
        #: Window index of the promotion barrier (for demotion hygiene).
        self.promoted_at = promoted_at
        self.prior_r = _SideRatePrior()
        self.prior_s = _SideRatePrior()
        self.profile = DelayProfile()
        self.payload_ema = 0.0
        self.payload_weight = 0.0
        #: Lifetime tuples observed while hot (accounting identity data).
        self.observed = 0

    #: Pseudo-count of shared-profile evidence in the completeness
    #: blend.  A per-key profile sees only its key's share of the delay
    #: samples, so its CDF is intrinsically noisier than the shared one;
    #: shrinking toward the shared estimate by this many virtual samples
    #: keeps the per-key signal (a genuinely slow producer still bends
    #: the blend) without letting small-sample noise degrade bursty
    #: regimes where completeness drives the whole compensation.
    PROFILE_SHRINK = 256.0

    def completeness(self, c_shared: float, ages: list[float]) -> float:
        """Mean completeness over bucket ages, blending key and shared.

        ``c_shared`` is the shared profile's ``mean_completeness(ages)``.

        Falls back to the shared profile entirely until the per-key
        profile is warm, so a freshly promoted key compensates exactly
        as it did the window before promotion — migration changes
        bookkeeping, not answers, until the key has earned its own delay
        knowledge.  Once warm, the two estimates are combined with the
        per-key profile weighted by its effective sample count against
        :data:`PROFILE_SHRINK` virtual shared samples.
        """
        if not self.profile.is_warm:
            return c_shared
        c_own = self.profile.mean_completeness(ages)
        w = self.profile.weight
        return (w * c_own + self.PROFILE_SHRINK * c_shared) / (w + self.PROFILE_SHRINK)

    def update_payload(self, mean_payload: float) -> None:
        """Absorb one finalized window's mean R payload for this key."""
        if self.payload_weight == 0.0:
            self.payload_ema = mean_payload
        else:
            self.payload_ema = 0.9 * self.payload_ema + 0.1 * mean_payload
        self.payload_weight = min(self.payload_weight + 1.0, 50.0)


class PartitionMap:
    """Hot-set membership on a space-saving sketch with drift detection.

    Promotion uses the sketch's conservative lower bound
    ``(count - error) / total`` against ``enter_share`` *and* a
    ``boost``-multiple of the uniform share ``1 / num_keys`` — so a
    uniform stream (where every share sits at ``1 / num_keys``) never
    promotes and the partitioned operator stays bit-identical to the
    unpartitioned one.  Demotion uses the upper bound ``count / total``
    against ``exit_fraction * enter`` — the hysteresis band that keeps a
    key from thrashing across the boundary (the
    :class:`~repro.faults.degrade.DegradationController` pattern).

    Re-partitioning runs at window barriers: every
    ``repartition_interval`` windows on the periodic cadence, or
    immediately when the drift detector fires.  The detector is the
    :class:`~repro.streams.watermarks.AdaptiveWatermark` shift rule
    transplanted from delays to skew: it compares the median hottest-key
    share over the recent ``max(4, history // 8)`` barriers against the
    full-history median and flags a shift when they disagree by more
    than ``shift_ratio`` in either direction.

    Args:
        num_keys: Key-domain size (sets the uniform-share floor).
        max_hot: Hard cap on simultaneous hot partitions (K).
        enter_share: Minimum lower-bound share to promote.
        boost: Promotion also requires ``boost / num_keys`` share, so
            small domains don't promote uniform keys (``>= 0``; ``0``
            leaves ``enter_share`` as the only floor).
        exit_fraction: Demotion threshold as a fraction of the
            effective enter threshold (hysteresis).
        repartition_interval: Window barriers between periodic
            re-partitions.
        shift_ratio: Median disagreement ratio that forces an immediate
            re-partition.
        sketch_capacity: Space-saving counter budget, at least
            ``max_hot`` (the sketch tracks the hot-set candidates).
        decay: Per-barrier sketch decay (1.0 disables forgetting).
        shift_flush: Extra one-shot sketch decay applied when the drift
            detector fires — the old regime's counters are flushed so
            new-regime arrivals dominate within a few barriers.
    """

    def __init__(
        self,
        num_keys: int,
        max_hot: int = 8,
        enter_share: float = 0.05,
        boost: float = 8.0,
        exit_fraction: float = 0.5,
        repartition_interval: int = 4,
        shift_ratio: float = 3.0,
        sketch_capacity: int = 64,
        decay: float = 0.995,
        history: int = 64,
        shift_flush: float = 0.25,
    ):
        if num_keys < 1:
            raise ValueError("num_keys must be positive")
        if max_hot < 0:
            raise ValueError("max_hot must be >= 0")
        if sketch_capacity < max_hot:
            # The sketch tracks at most its capacity, so a smaller one
            # would cap the hot set below max_hot without a word.
            raise ValueError("sketch_capacity must be >= max_hot")
        if not 0.0 < enter_share <= 1.0:
            raise ValueError("enter_share must be in (0, 1]")
        if boost < 0.0:
            raise ValueError("boost must be >= 0")
        if not 0.0 < exit_fraction <= 1.0:
            raise ValueError("exit_fraction must be in (0, 1]")
        if repartition_interval < 1:
            raise ValueError("repartition_interval must be >= 1")
        if shift_ratio <= 1.0:
            raise ValueError("shift_ratio must be > 1")
        self.num_keys = num_keys
        self.max_hot = max_hot
        self.enter_share = enter_share
        self.boost = boost
        self.exit_fraction = exit_fraction
        self.repartition_interval = repartition_interval
        self.shift_ratio = shift_ratio
        self.decay_factor = decay
        if not 0.0 < shift_flush <= 1.0:
            raise ValueError("shift_flush must be in (0, 1]")
        self.shift_flush = shift_flush
        self.sketch = SpaceSavingSketch(sketch_capacity)
        self.hot: set[int] = set()
        self._barriers = 0
        self._share_history: collections.deque[float] = collections.deque(
            maxlen=history
        )
        #: Per-barrier hot-partition hit rates — the second drift signal.
        #: A key-identity flip at constant skew leaves the hottest-key
        #: *share* untouched (the first signal is blind to it) but
        #: collapses the fraction of traffic landing in the current hot
        #: set, which this history sees immediately.
        self._hit_history: collections.deque[float] = collections.deque(
            maxlen=history
        )
        self._recent = max(4, history // 8)
        self._barrier_observed = 0
        self._barrier_hits = 0
        self.promotions = 0
        self.demotions = 0
        self.shift_repartitions = 0
        #: Tuples observed total / landing in a hot partition (hit rate).
        self.observed = 0
        self.hot_hits = 0

    @property
    def enter_threshold(self) -> float:
        """Effective promotion share: the configured floor or the boost."""
        return max(self.enter_share, self.boost / self.num_keys)

    @property
    def hot_hit_rate(self) -> float:
        """Fraction of observed tuples that landed in a hot partition."""
        return self.hot_hits / self.observed if self.observed else 0.0

    def observe(self, keys: np.ndarray, hot_hits: int) -> None:
        """Feed newly arrived keys (the caller counts hot hits)."""
        self.sketch.offer_batch(keys)
        self.observed += len(keys)
        self.hot_hits += hot_hits
        self._barrier_observed += len(keys)
        self._barrier_hits += hot_hits

    @staticmethod
    def _medians_disagree(hist, recent: int, ratio: float) -> bool:
        """AdaptiveWatermark's median-ratio rule over one history."""
        if len(hist) < 2 * recent:
            return False
        full = np.asarray(hist)
        recent_med = float(np.median(full[-recent:]))
        full_med = float(np.median(full))
        floor = 1e-9
        if recent_med > max(full_med, floor) * ratio:
            return True
        return full_med > max(recent_med, floor) * ratio

    def _shift_detected(self) -> bool:
        """Either drift signal: hottest-key share or hot hit rate.

        The share history catches skew-level changes (a uniform stream
        turning Zipfian, or back); the hit-rate history catches key
        *identity* flips at constant skew, where the share stays put but
        traffic abandons the promoted partitions.
        """
        return self._medians_disagree(
            self._share_history, self._recent, self.shift_ratio
        ) or self._medians_disagree(
            self._hit_history, self._recent, self.shift_ratio
        )

    def _desired_hot(self) -> set[int]:
        """The hot set the sketch currently supports, with hysteresis."""
        total = self.sketch.total
        if total <= 0.0:
            return set()
        enter = self.enter_threshold
        exit_share = enter * self.exit_fraction
        desired: list[int] = []
        for key, count, error in self.sketch.top(self.max_hot * 2):
            lower = (count - error) / total
            upper = count / total
            if key in self.hot:
                if upper >= exit_share:
                    desired.append(key)
            elif lower >= enter:
                desired.append(key)
            if len(desired) >= self.max_hot:
                break
        return set(desired)

    def barrier(self, window_index: int) -> tuple[set[int], set[int]]:
        """One window barrier: returns ``(promoted, demoted)`` key sets.

        The sketch decays, the hottest share is recorded for the drift
        detector, and — on the periodic cadence or a detected shift —
        the hot set is recomputed.  Callers apply the returned deltas to
        their partition state (state migration is theirs; membership is
        ours).
        """
        self._barriers += 1
        self.sketch.decay(self.decay_factor)
        top = self.sketch.top(1)
        if top and self.sketch.total > 0.0:
            self._share_history.append(top[0][1] / self.sketch.total)
        if self.hot and self._barrier_observed > 0:
            self._hit_history.append(self._barrier_hits / self._barrier_observed)
        self._barrier_observed = 0
        self._barrier_hits = 0
        shifted = self._shift_detected()
        periodic = self._barriers % self.repartition_interval == 0
        if not (periodic or shifted):
            return set(), set()
        if shifted:
            self.shift_repartitions += 1
            obs.counter("partition.shift_repartitions").inc()
            # The old regime's counters are now misleading: flush them
            # hard so the new regime's arrivals dominate within a few
            # barriers (the AdaptiveWatermark history reset, on skew),
            # and restart the detector history so one flip doesn't
            # re-trigger off its own transition.
            self.sketch.decay(self.shift_flush)
            self._share_history.clear()
            self._hit_history.clear()
        desired = self._desired_hot()
        promoted = desired - self.hot
        demoted = self.hot - desired
        if promoted:
            self.promotions += len(promoted)
            obs.counter("partition.promotions").inc(len(promoted))
        if demoted:
            self.demotions += len(demoted)
            obs.counter("partition.demotions").inc(len(demoted))
        self.hot = desired
        return promoted, demoted

    def summary(self) -> dict[str, float]:
        """Accounting snapshot for benchmark rows."""
        return {
            "partition_hot_keys": float(len(self.hot)),
            "partition_promotions": float(self.promotions),
            "partition_demotions": float(self.demotions),
            "partition_shift_repartitions": float(self.shift_repartitions),
            "partition_hot_hit_rate": self.hot_hit_rate,
        }


class PartitionedPECJoin(PECJoin):
    """PECJ with PanJoin-style adaptive hot-key partitions.

    The operator *is* a :class:`~repro.core.pecj.PECJoin`: every piece
    of the parent machinery (delay ingest, bucket/window finalization,
    the global rate/sigma/alpha estimators) runs unchanged, so with an
    empty hot set the emitted values are bit-for-bit the parent's.  On
    top of it, a :class:`PartitionMap` watches per-key frequency and at
    window barriers promotes heavy hitters into :class:`HotKeyState`
    partitions; once the hot set is non-empty (and the operator is past
    cold start) the emitted value becomes::

        sum_k  n_hat_r[k] * n_hat_s[k] * (alpha_k if SUM else 1)   # hot
        + compensate(agg, n_hat_r_cold, n_hat_s_cold, sigma_cold, alpha_cold)

    with per-hot-key ``n_hat = obs + (1 - c_k) * lambda_hat * |W|``
    (Gamma-Poisson shrinkage on the key's own prior, completeness from
    the key's own delay profile once warm) and the cold tail compensated
    as a single aggregate through the shared profile: per-key state only
    where it pays.  ``hot_series`` records the per-key values.  With
    ``max_hot`` and ``sketch_capacity`` at the key-domain size,
    ``enter_share=1e-4`` and ``boost=0.0``, the cap never binds: every
    key whose share reaches 1e-4 gets a partition, and ``hot_series`` is
    the per-key answer (the per-key configuration); a rarer key gets none.

    Only COUNT and SUM are supported: AVG does not decompose additively
    over key-disjoint partitions.

    Args:
        agg: COUNT or SUM.
        backend: Estimator backend for the inherited global machinery.
        max_hot: Hot-partition cap (K).
        enter_share: Promotion lower-bound share threshold.
        boost: Uniform-share multiple also required to promote.
        repartition_interval: Barriers between periodic re-partitions.
        shift_ratio: Drift-detector disagreement ratio.
        sketch_capacity: Space-saving counter budget.
        blend: Weight of the partitioned decomposition in the emitted
            value; the remaining ``1 - blend`` stays on the parent's
            global estimate.  The two estimators err independently — the
            decomposition knows per-key rates, the global backend knows
            the disorder dynamics — so averaging dominates either alone;
            ``1.0`` emits the pure partitioned sum.
        **kwargs: Forwarded to :class:`~repro.core.pecj.PECJoin`.
    """

    pipeline_method = "pecj"

    def __init__(
        self,
        agg: AggKind = AggKind.COUNT,
        backend: str = "aema",
        max_hot: int = 8,
        enter_share: float = 0.05,
        boost: float = 8.0,
        exit_fraction: float = 0.5,
        repartition_interval: int = 4,
        shift_ratio: float = 3.0,
        sketch_capacity: int = 64,
        sketch_decay: float = 0.995,
        blend: float = 0.5,
        **kwargs,
    ):
        if agg not in (AggKind.COUNT, AggKind.SUM):
            raise ValueError("partitioned outputs support COUNT and SUM")
        super().__init__(agg, backend=backend, **kwargs)
        self.name = f"PECJ-part-{backend}"
        self.max_hot = max_hot
        self.enter_share = enter_share
        self.boost = boost
        self.exit_fraction = exit_fraction
        self.repartition_interval = repartition_interval
        self.shift_ratio = shift_ratio
        self.sketch_capacity = sketch_capacity
        self.sketch_decay = sketch_decay
        if not 0.0 <= blend <= 1.0:
            raise ValueError("blend must be in [0, 1]")
        self.blend = blend
        self.partitions: PartitionMap | None = None
        self.hot_state: dict[int, HotKeyState] = {}
        self.migration_bytes = 0
        #: Per-window integer accounting, appended whenever the hot path
        #: emits: ``(window_start, hot_r, hot_s, cold_r, cold_s, total_r,
        #: total_s)`` — the churn tests assert ``hot + cold == total``.
        self.accounting: list[tuple[float, int, int, int, int, int, int]] = []
        #: ``(window_start, {key: value}, cold_value)`` per hot emission —
        #: the PanJoin-style per-key answer for the promoted keys.
        self.hot_series: list[tuple[float, dict[int, float], float]] = []
        #: Per key, its position in ``hot_state`` (``-1``: cold).
        self._hot_slot = np.full(0, -1, dtype=np.int8)

    # -- lifecycle ---------------------------------------------------------

    def prepare(self, arrays: BatchArrays, window_length: float, omega: float) -> None:
        """Reset the parent machinery plus the partition state."""
        super().prepare(arrays, window_length, omega)
        num_keys = int(arrays.key.max()) + 1 if len(arrays) else 1
        self.partitions = PartitionMap(
            num_keys,
            max_hot=self.max_hot,
            enter_share=self.enter_share,
            boost=self.boost,
            exit_fraction=self.exit_fraction,
            repartition_interval=self.repartition_interval,
            shift_ratio=self.shift_ratio,
            sketch_capacity=self.sketch_capacity,
            decay=self.sketch_decay,
        )
        self.hot_state = {}
        self.migration_bytes = 0
        self.accounting = []
        self.hot_series = []
        # 8-bit slots at the usual caps: a stable sort of them is a radix sort.
        slot_dtype = np.int8 if self.max_hot <= 128 else np.int32
        self._hot_slot = np.full(num_keys, -1, dtype=slot_dtype)
        # Cold-tail shared posteriors: aggregate rate/selectivity/payload
        # EMAs over the cold remainder, refreshed at finalization.
        self._cold_rate_r = _DecayedMean()
        self._cold_rate_s = _DecayedMean()
        self._cold_sigma = _DecayedMean()
        self._cold_alpha = _DecayedMean()
        #: Whether the last finalized window had no cold tuple on either side.
        self._cold_empty = False
        t0 = float(arrays.event.min()) if len(arrays) else 0.0
        self._part_next_final = int(np.floor((t0 - self.origin) / window_length))

    # -- observation --------------------------------------------------------

    def _ingest_delays(self, arrays: BatchArrays, now: float) -> None:
        """Parent delay ingest, plus sketch and hot-profile updates."""
        lo = self._ingest_cursor
        super()._ingest_delays(arrays, now)
        hi = self._ingest_cursor
        if hi <= lo or self.partitions is None:
            return
        keys = arrays.key[self._comp_order[lo:hi]]
        if not self.hot_state:
            self.partitions.observe(keys, 0)
            return
        slots = self._hot_slot[keys]
        hot = slots >= 0
        delays = self._comp_delays[lo:hi][hot]
        self.partitions.observe(keys, len(delays))
        if len(delays):
            counts, delays = _group_by_slot(slots[hot], len(self.hot_state), delays)
            at = 0
            for state, n in zip(self.hot_state.values(), counts):
                if n:
                    state.profile.update(delays[at : at + n])
                    state.observed += n
                    at += n

    def _hot_window_counts(
        self, arrays: BatchArrays, start: float, end: float, now: float | None
    ) -> tuple[dict[int, tuple[int, int, float]], int, int]:
        """Per-hot-key ``(n_r, n_s, sum_rv)`` (in ``hot_state`` order) plus
        window totals.

        One slice + availability mask, then ``O(K)`` bincounts over the
        hot tuples' slots — never an ``O(num_keys)`` one, which is the
        whole throughput point of partitioning at large key domains.
        ``sum_rv`` is read only under SUM and stays ``0.0`` under COUNT;
        under SUM it is each key's R payloads summed by ``ndarray.sum`` in
        window order (numpy's pairwise sum, which a weighted bincount's
        sequential one would not match bit for bit).
        """
        sl = arrays.window_slice(start, end)
        keys = arrays.key[sl]
        is_r = arrays.is_r[sl]
        if now is not None:
            avail = arrays.completion[sl] <= now
            keys, is_r = keys[avail], is_r[avail]
        total_r = int(np.count_nonzero(is_r))
        total_s = len(keys) - total_r
        k = len(self.hot_state)
        if not k:
            return {}, total_r, total_s
        slots = self._hot_slot[keys]
        hot = slots >= 0
        slots, is_r = slots[hot], is_r[hot]
        n_all = np.bincount(slots, minlength=k).tolist()
        sums = [0.0] * k
        if self.agg is AggKind.SUM:
            payload = arrays.payload[sl]
            if now is not None:
                payload = payload[avail]
            n_rs, r_payload = _group_by_slot(slots[is_r], k, payload[hot][is_r])
            at = 0
            for slot, n_r in enumerate(n_rs):
                if n_r:
                    sums[slot] = float(r_payload[at : at + n_r].sum())
                    at += n_r
        else:
            n_rs = np.bincount(slots[is_r], minlength=k).tolist()
        per_key = {
            key: (n_r, n - n_r, sum_rv)
            for key, n, n_r, sum_rv in zip(self.hot_state, n_all, n_rs, sums)
        }
        return per_key, total_r, total_s

    def _partition_finalize(self, arrays: BatchArrays, now: float) -> None:
        """Absorb finalized windows into hot priors and cold-tail EMAs.

        Mirrors the parent's window finalization cadence (one extra
        window of slack so per-key counts are settled) on an independent
        cursor, so the parent's estimator observation order is untouched.
        """
        horizon = self.profile.horizon(self.finalize_quantile) + self._wlen
        wlen = self._wlen
        while self.origin + (self._part_next_final + 1) * wlen + horizon <= now:
            start = self.origin + self._part_next_final * wlen
            per_key, total_r, total_s = self._hot_window_counts(
                arrays, start, start + wlen, now
            )
            hot_r = hot_s = 0
            hot_matches = 0.0
            for key, (n_r, n_s, sum_rv) in per_key.items():
                state = self.hot_state[key]
                state.prior_r.update_one(n_r, wlen)
                state.prior_s.update_one(n_s, wlen)
                if n_r and self.agg is AggKind.SUM:
                    state.update_payload(sum_rv / n_r)
                hot_r += n_r
                hot_s += n_s
                hot_matches += float(n_r) * float(n_s)
            cold_r = total_r - hot_r
            cold_s = total_s - hot_s
            self._cold_empty = cold_r == 0 and cold_s == 0
            self._cold_rate_r.update(cold_r / wlen)
            self._cold_rate_s.update(cold_s / wlen)
            if cold_r > 0 and cold_s > 0:
                agg = self.window_aggregate(arrays, start, start + wlen, now)
                cold_matches = max(float(agg.matches) - hot_matches, 0.0)
                self._cold_sigma.update(cold_matches / (cold_r * cold_s))
                if self.agg is AggKind.SUM and agg.matches > hot_matches:
                    hot_sum = sum(
                        (sum_rv / n_r) * n_r * n_s
                        for n_r, n_s, sum_rv in per_key.values()
                        if n_r > 0
                    )
                    cold_sum = max(float(agg.sum_r) - hot_sum, 0.0)
                    self._cold_alpha.update(cold_sum / cold_matches)
            self._part_next_final += 1

    # -- membership migration ------------------------------------------------

    def _apply_repartition(self, promoted: set[int], demoted: set[int], widx: int, now: float) -> None:
        """Migrate state for a membership change, preserving accounting.

        Promotion seeds a fresh :class:`HotKeyState` (priors cold, so the
        key keeps compensating through the shared path until its own
        posterior warms — answers never jump at the barrier); demotion
        folds the key's rate back into the cold-tail EMAs before the
        state is dropped.  Both directions count migrated bytes.
        """
        for key in sorted(demoted):
            state = self.hot_state.pop(key)
            self._hot_slot[key] = -1
            # Fold the key's learned rate back into the cold aggregate so
            # the cold prior doesn't under-shoot the tuples it just
            # re-absorbed (the no-lost-accounting half of the protocol).
            if state.prior_r.is_warm:
                alpha, beta = state.prior_r.gamma_params()
                self._cold_rate_r.nudge(alpha / beta)
            if state.prior_s.is_warm:
                alpha, beta = state.prior_s.gamma_params()
                self._cold_rate_s.nudge(alpha / beta)
            moved = HotKeyState.STATE_BYTES + state.profile.num_bins * 8
            self.migration_bytes += moved
            obs.counter("partition.migration_bytes").inc(moved)
        for key in sorted(promoted):
            self.hot_state[key] = HotKeyState(key, widx)
            self.migration_bytes += HotKeyState.STATE_BYTES
            obs.counter("partition.migration_bytes").inc(HotKeyState.STATE_BYTES)
        for slot, key in enumerate(self.hot_state):
            self._hot_slot[key] = slot
        if (promoted or demoted) and trace.is_tracing():
            trace.instant(
                "partition.repartition", now, cat="partition",
                track="partition", args={
                    "window": int(widx),
                    "promoted": sorted(promoted),
                    "demoted": sorted(demoted),
                    "hot": sorted(self.hot_state),
                },
            )

    # -- estimation ----------------------------------------------------------

    def _partitioned_value(
        self, arrays: BatchArrays, window: Window, now: float
    ) -> float:
        """Hot per-key compensation plus cold-tail aggregate compensation."""
        wlen = self._wlen
        per_key, total_r, total_s = self._hot_window_counts(
            arrays, window.start, window.end, now
        )
        mids = window.start + (np.arange(self.buckets_per_window) + 0.5) * (
            wlen / self.buckets_per_window
        )
        ages = (now - mids).tolist()
        c_mean = self.profile.mean_completeness(ages)
        c_shared = max(c_mean, 1e-3)

        hot_values: dict[int, float] = {}
        hot_r = hot_s = 0
        hot_value = 0.0
        for key, (n_r, n_s, sum_rv) in sorted(per_key.items()):
            state = self.hot_state[key]
            c_k = max(state.completeness(c_mean, ages), 1e-3)
            n_hat_r = state.prior_r.filled_count(n_r, c_k, wlen)
            n_hat_s = state.prior_s.filled_count(n_s, c_k, wlen)
            value_k = n_hat_r * n_hat_s
            if self.agg is AggKind.SUM:
                alpha_k = sum_rv / n_r if n_r > 0 else state.payload_ema
                value_k *= alpha_k
            hot_values[key] = value_k
            hot_value += value_k
            hot_r += n_r
            hot_s += n_s

        cold_r = total_r - hot_r
        cold_s = total_s - hot_s
        n_hat_r_cold = cold_r + (1.0 - c_shared) * max(
            self._cold_rate_r.value, 0.0
        ) * wlen
        n_hat_s_cold = cold_s + (1.0 - c_shared) * max(
            self._cold_rate_s.value, 0.0
        ) * wlen
        cold_value = compensate(
            self.agg,
            n_hat_r_cold,
            n_hat_s_cold,
            max(self._cold_sigma.value, 0.0),
            max(self._cold_alpha.value, 0.0),
        ).value

        self.accounting.append(
            (
                float(window.start),
                hot_r, hot_s,
                cold_r, cold_s,
                total_r, total_s,
            )
        )
        self.hot_series.append((float(window.start), hot_values, cold_value))
        obs.counter("partition.hot_windows").inc()
        obs.gauge("partition.hot_hit_rate.last").set(self.partitions.hot_hit_rate)
        if trace.is_tracing():
            trace.instant(
                "partition.window", now, cat="partition", track="partition",
                args={
                    "window_start": float(window.start),
                    "hot_keys": len(hot_values),
                    "hot_value": float(hot_value),
                    "cold_value": float(cold_value),
                    "hot_r": int(hot_r), "hot_s": int(hot_s),
                    "cold_r": int(cold_r), "cold_s": int(cold_s),
                },
            )
        return hot_value + cold_value

    def _partitions_warm(self) -> bool:
        """Whether the cold-tail EMAs have enough history to trust.

        The selectivity and payload EMAs learn only from windows with
        cold tuples on both sides.  When the last finalized window had
        no cold tuple at all (the hot set covers every key that arrives,
        as in the per-key configuration), there is nothing for them to
        learn and the cold term is only the decaying rate fill, so they
        are not waited for.
        """
        if not (self._cold_rate_r.weight > 0.3 and self._cold_rate_s.weight > 0.3):
            return False
        if self._cold_empty:
            return True
        return self._cold_sigma.weight > 0.3 and (
            self.agg is not AggKind.SUM or self._cold_alpha.weight > 0.3
        )

    def process_window(
        self, arrays: BatchArrays, window: Window, available_by: float
    ) -> tuple[float, float]:
        """Parent emission, re-partition barrier, then the partitioned value.

        The parent's :meth:`~repro.core.pecj.PECJoin.process_window` runs
        first and in full — its estimators observe exactly what they
        would unpartitioned — so an empty hot set returns its value
        bit-for-bit.  With a warm non-empty hot set the partitioned sum
        replaces the scalar value (never the latency accounting).
        """
        value, extra = super().process_window(arrays, window, available_by)
        if self.partitions is None:
            return value, extra
        widx = int(round((window.start - self.origin) / self._wlen))
        self._partition_finalize(arrays, available_by)
        promoted, demoted = self.partitions.barrier(widx)
        if promoted or demoted:
            self._apply_repartition(promoted, demoted, widx, available_by)
        if not self.hot_state or not self._warm() or not self._partitions_warm():
            return value, extra
        part = self._partitioned_value(arrays, window, available_by)
        return self.blend * part + (1.0 - self.blend) * value, extra

    def partition_summary(self) -> dict[str, float]:
        """Partition accounting for benchmark rows (``partition_*`` columns)."""
        summary = (
            self.partitions.summary()
            if self.partitions is not None
            else PartitionMap(1).summary()
        )
        summary["partition_migration_bytes"] = float(self.migration_bytes)
        summary["partition_hot_windows"] = float(len(self.accounting))
        return summary


def _group_by_slot(
    slots: np.ndarray, k: int, values: np.ndarray
) -> tuple[list[int], np.ndarray]:
    """Per-slot counts (a list of ``k`` ints) and ``values`` reordered
    slot by slot, each slot's rows keeping their order (stable sort)."""
    counts = np.bincount(slots, minlength=k).tolist()
    return counts, values[np.argsort(slots, kind="stable")]


class _DecayedMean:
    """Exponentially decayed scalar mean (the cold tail's shared state)."""

    def __init__(self, decay: float = 0.95):
        self.decay = decay
        self._sum = 0.0
        self.weight = 0.0

    def update(self, x: float) -> None:
        """Absorb one finalized observation."""
        self._sum = self.decay * self._sum + (1.0 - self.decay) * x
        self.weight = self.decay * self.weight + (1.0 - self.decay)

    def nudge(self, x: float) -> None:
        """Blend in a migrated value without advancing the weight.

        Used when a demoted hot key's rate folds back into the cold
        aggregate: the value should move, but the confidence shouldn't
        jump as if a fresh window had been observed.
        """
        if self.weight > 0.0:
            self._sum += (1.0 - self.decay) * x * self.weight

    @property
    def value(self) -> float:
        """The debiased mean (0 while empty)."""
        return self._sum / self.weight if self.weight > 0.0 else 0.0
