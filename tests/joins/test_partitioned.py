"""Tests for partition-adaptive skew handling (PanJoin-style hot keys)."""

import numpy as np
import pytest

from repro.joins.arrays import AggKind, BatchArrays
from repro.joins.partitioned import (
    HotKeyState,
    PartitionedPECJoin,
    PartitionMap,
    SpaceSavingSketch,
)
from repro.core.pecj import PECJoin
from repro.joins.runner import run_operator
from repro.streams.datasets import make_dataset
from repro.streams.disorder import NoDisorder, UniformDelay
from repro.streams.sources import make_disordered_arrays
from tests.oracles.per_key import per_key_l1, per_key_outputs

WLEN = 10.0


def skewed_arrays(skew, num_keys=64, seed=7, duration=2000.0, rate=60.0, delay=None):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=num_keys, key_skew=skew),
        delay or UniformDelay(5.0),
        duration,
        rate,
        rate,
        seed=seed,
    )


def run(op, arrays, omega=10.0, duration=2000.0):
    return run_operator(
        op, arrays, WLEN, omega,
        t_start=50.0, t_end=duration - 50.0, warmup_windows=30,
    )


class TestSpaceSavingSketch:
    def test_exact_within_capacity(self):
        sk = SpaceSavingSketch(capacity=8)
        sk.offer_batch(np.array([1, 1, 1, 2, 2, 3]))
        assert sk.estimate(1) == (3.0, 0.0)
        assert sk.estimate(2) == (2.0, 0.0)
        assert sk.estimate(3) == (1.0, 0.0)

    def test_untracked_key_is_zero(self):
        sk = SpaceSavingSketch(capacity=4)
        assert sk.estimate(99) == (0.0, 0.0)

    def test_capacity_bounded_and_error_bound_holds(self):
        """count - error <= true <= count for every tracked key."""
        rng = np.random.default_rng(0)
        keys = rng.choice(200, size=5000, p=np.arange(200, 0, -1) / np.arange(200, 0, -1).sum())
        sk = SpaceSavingSketch(capacity=16)
        sk.offer_batch(keys)
        assert len(sk) <= 16
        true = np.bincount(keys, minlength=200)
        for key, count, error in sk.top(16):
            assert count - error <= true[key] + 1e-9
            assert true[key] <= count + 1e-9

    def test_heavy_hitter_survives_churn(self):
        """A genuinely hot key is never evicted by the cold tail."""
        rng = np.random.default_rng(1)
        cold = rng.integers(100, 10_000, size=4000)
        hot = np.full(2000, 7)
        keys = rng.permutation(np.concatenate([hot, cold]))
        sk = SpaceSavingSketch(capacity=32)
        sk.offer_batch(keys)
        top_keys = [k for k, _, _ in sk.top(5)]
        assert 7 in top_keys

    def test_decay_scales_counters(self):
        sk = SpaceSavingSketch(capacity=4)
        sk.offer_batch(np.array([1, 1, 1, 1]))
        sk.decay(0.5)
        assert sk.estimate(1) == (2.0, 0.0)
        assert sk.total == pytest.approx(2.0)

    def test_decay_validation(self):
        sk = SpaceSavingSketch(capacity=4)
        with pytest.raises(ValueError):
            sk.decay(0.0)
        with pytest.raises(ValueError):
            sk.decay(1.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(capacity=0)

    def test_top_order_deterministic_on_ties(self):
        sk = SpaceSavingSketch(capacity=8)
        sk.offer_batch(np.array([5, 3, 9, 3, 5, 9]))
        assert [k for k, _, _ in sk.top(3)] == [3, 5, 9]


class TestPartitionMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionMap(0)
        with pytest.raises(ValueError):
            PartitionMap(10, max_hot=-1)
        with pytest.raises(ValueError):
            PartitionMap(10, enter_share=0.0)
        with pytest.raises(ValueError):
            PartitionMap(10, exit_fraction=1.5)
        with pytest.raises(ValueError):
            PartitionMap(10, repartition_interval=0)
        with pytest.raises(ValueError):
            PartitionMap(10, shift_ratio=1.0)
        with pytest.raises(ValueError):
            PartitionMap(10, shift_flush=0.0)
        with pytest.raises(ValueError, match="sketch_capacity"):
            PartitionMap(10, max_hot=20, sketch_capacity=16)
        with pytest.raises(ValueError, match="boost"):
            PartitionMap(10, boost=-1.0)
        PartitionMap(10, max_hot=16, sketch_capacity=16, boost=0.0)

    def test_uniform_stream_never_promotes(self):
        pm = PartitionMap(64, repartition_interval=1)
        rng = np.random.default_rng(0)
        for w in range(50):
            pm.observe(rng.integers(0, 64, size=500), hot_hits=0)
            promoted, demoted = pm.barrier(w)
            assert promoted == set() and demoted == set()
        assert pm.hot == set()

    def test_hot_key_promoted_on_cadence(self):
        pm = PartitionMap(64, repartition_interval=4)
        keys = np.concatenate([np.full(400, 3), np.arange(64)])
        pm.observe(keys, hot_hits=0)
        assert pm.barrier(0) == (set(), set())  # off-cadence: no change
        for w in (1, 2):
            pm.observe(keys, hot_hits=0)
            assert pm.barrier(w) == (set(), set())
        pm.observe(keys, hot_hits=0)
        promoted, demoted = pm.barrier(3)  # 4th barrier hits the cadence
        assert promoted == {3} and demoted == set()
        assert pm.hot == {3}
        assert pm.promotions == 1

    def test_hysteresis_keeps_borderline_member(self):
        """A hot key whose share sags below enter but above exit stays."""
        pm = PartitionMap(
            16, enter_share=0.4, boost=1.0, exit_fraction=0.5,
            repartition_interval=1, decay=1.0,
        )
        pm.observe(np.full(100, 5), hot_hits=0)
        pm.barrier(0)
        assert pm.hot == {5}
        # Dilute key 5 to ~25% share: below enter (40%) but above exit (20%).
        pm.observe(np.repeat(np.arange(6, 9), 100), hot_hits=0)
        pm.barrier(1)
        assert 5 in pm.hot
        # Dilute far below the exit share: now it demotes.
        pm.observe(np.repeat(np.arange(9, 16), 300), hot_hits=0)
        pm.barrier(2)
        assert 5 not in pm.hot
        assert pm.demotions >= 1

    def test_shift_detector_forces_off_cadence_repartition(self):
        """A sudden skew flip repartitions before the periodic barrier."""
        pm = PartitionMap(
            64, boost=2.0, repartition_interval=1000, shift_ratio=3.0,
            decay=1.0, history=32,
        )
        rng = np.random.default_rng(0)
        for w in range(30):  # long uniform history
            pm.observe(rng.integers(0, 64, size=200), hot_hits=0)
            pm.barrier(w)
        assert pm.shift_repartitions == 0
        for w in range(30, 40):  # skew flips hard onto key 11
            pm.observe(np.full(2000, 11), hot_hits=0)
            promoted, _ = pm.barrier(w)
            if promoted:
                break
        assert pm.shift_repartitions >= 1
        assert 11 in pm.hot

    def test_hit_rate_and_summary(self):
        pm = PartitionMap(16)
        pm.observe(np.arange(10), hot_hits=4)
        assert pm.hot_hit_rate == pytest.approx(0.4)
        summary = pm.summary()
        assert summary["partition_hot_keys"] == 0.0
        assert set(summary) >= {
            "partition_promotions", "partition_demotions",
            "partition_shift_repartitions", "partition_hot_hit_rate",
        }


class TestValidation:
    def test_rejects_avg(self):
        with pytest.raises(ValueError, match="COUNT and SUM"):
            PartitionedPECJoin(AggKind.AVG)

    def test_rejects_bad_blend(self):
        with pytest.raises(ValueError, match="blend"):
            PartitionedPECJoin(AggKind.COUNT, blend=1.5)

    @pytest.mark.parametrize(
        "kwargs", [{"max_hot": 65}, {"boost": -0.5}], ids=["capacity", "boost"]
    )
    def test_partition_map_arguments_rejected_by_prepare(self, kwargs):
        op = PartitionedPECJoin(AggKind.COUNT, **kwargs)
        with pytest.raises(ValueError):
            op.prepare(skewed_arrays(1.4, duration=200.0), WLEN, 10.0)


class TestBitIdentityAtUniform:
    @pytest.mark.parametrize("backend", ["aema", "svi"])
    @pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM])
    def test_uniform_stream_identical_to_parent(self, backend, agg):
        """skew = 0 promotes nothing, so every emitted value is the
        parent's bit-for-bit — partitioning must be a strict no-op."""
        arrays = skewed_arrays(0.0)
        base = run(PECJoin(agg, backend=backend), arrays)
        part = run(PartitionedPECJoin(agg, backend=backend), arrays)
        assert [r.value for r in part.records] == [r.value for r in base.records]
        assert [r.error for r in part.records] == [r.error for r in base.records]
        assert part.p95_latency == base.p95_latency

    def test_uniform_stream_promotes_nothing(self):
        arrays = skewed_arrays(0.0)
        op = PartitionedPECJoin(AggKind.COUNT)
        run(op, arrays)
        assert op.hot_state == {}
        assert op.partitions.promotions == 0
        assert op.accounting == []


class TestSkewedCompensation:
    def test_hot_keys_promoted_and_error_not_worse(self):
        arrays = skewed_arrays(1.4, num_keys=256, seed=11)
        base = run(PECJoin(AggKind.COUNT), arrays)
        op = PartitionedPECJoin(AggKind.COUNT)
        part = run(op, arrays)
        assert len(op.hot_state) >= 1
        assert part.mean_error <= base.mean_error * 1.02

    def test_integer_accounting_identity(self):
        """hot + cold == total on both sides, for every hot window."""
        arrays = skewed_arrays(1.4, num_keys=256, seed=11)
        op = PartitionedPECJoin(AggKind.COUNT)
        run(op, arrays)
        assert len(op.accounting) > 0
        for _, hot_r, hot_s, cold_r, cold_s, total_r, total_s in op.accounting:
            assert hot_r + cold_r == total_r
            assert hot_s + cold_s == total_s
            assert min(hot_r, hot_s, cold_r, cold_s) >= 0

    def test_hot_series_tracks_promoted_keys(self):
        arrays = skewed_arrays(1.4, num_keys=256, seed=11)
        op = PartitionedPECJoin(AggKind.COUNT)
        run(op, arrays)
        assert len(op.hot_series) == len(op.accounting)
        for _, hot_values, cold_value in op.hot_series:
            assert all(v >= 0.0 for v in hot_values.values())
            assert cold_value >= 0.0

    def test_sum_agg_supported_on_hot_path(self):
        arrays = skewed_arrays(1.4, num_keys=256, seed=11)
        base = run(PECJoin(AggKind.SUM), arrays)
        part = run(PartitionedPECJoin(AggKind.SUM), arrays)
        assert part.mean_error <= base.mean_error * 1.05

    def test_pure_partitioned_blend_still_sane(self):
        arrays = skewed_arrays(1.4, num_keys=256, seed=11)
        res = run(PartitionedPECJoin(AggKind.COUNT, blend=1.0), arrays)
        assert res.mean_error < 0.2
        assert all(np.isfinite(r.value) for r in res.records)

    def test_partition_summary_columns(self):
        arrays = skewed_arrays(1.4, num_keys=256, seed=11)
        op = PartitionedPECJoin(AggKind.COUNT)
        run(op, arrays)
        summary = op.partition_summary()
        assert summary["partition_hot_keys"] >= 1.0
        assert summary["partition_hot_windows"] == float(len(op.accounting))
        assert summary["partition_migration_bytes"] > 0.0


def per_key_op(agg=AggKind.COUNT, num_keys=50):
    """The per-key configuration: the hot-set cap is the whole domain and
    every key whose share reaches 1e-4 gets a partition."""
    return PartitionedPECJoin(
        agg, max_hot=num_keys, sketch_capacity=num_keys,
        enter_share=1e-4, boost=0.0,
    )


def per_key_arrays(num_keys=50, delay=None, seed=3, rate=100.0, duration=2000.0, skew=0.0):
    return make_disordered_arrays(
        make_dataset("micro", num_keys=num_keys, key_skew=skew),
        delay or UniformDelay(5.0), duration, rate, rate, seed=seed,
    )


def run_per_key(op, arrays, omega=10.0, t_start=50.0):
    """Scored records plus each one's per-key answer from ``hot_series``."""
    res = run_operator(
        op, arrays, WLEN, omega, t_start=t_start, t_end=1950.0, warmup_windows=40
    )
    answers = {start: values for start, values, _ in op.hot_series}
    assert all(r.window.start in answers for r in res.records)
    return res.records, answers


class TestPerKeyL1:
    def test_identical_outputs_zero(self):
        assert per_key_l1({1: 5.0}, {1: 5.0}) == 0.0

    def test_missing_and_spurious_keys_counted(self):
        assert per_key_l1({1: 5.0}, {2: 5.0}) == pytest.approx(2.0)

    def test_empty_truth(self):
        assert per_key_l1({}, {}) == 0.0
        assert per_key_l1({1: 1.0}, {}) == 1.0


class TestPerKeyConfiguration:
    """Per-key answers: every key promotable, read from ``hot_series``."""

    @staticmethod
    def _assert_beats_observed(agg, arrays, t_start=50.0):
        """Every key promotes, every scored window has a per-key answer,
        and its L1 is under half the observed-only outputs'."""
        op = per_key_op(agg)
        records, answers = run_per_key(op, arrays, t_start=t_start)
        assert sorted(op.hot_state) == list(range(50))
        compensated, observed = [], []
        for r in records:
            w = r.window
            truth = per_key_outputs(arrays, w.start, w.end, None, agg)
            seen = per_key_outputs(arrays, w.start, w.end, r.cutoff, agg)
            compensated.append(per_key_l1(answers[w.start], truth))
            observed.append(per_key_l1(seen, truth))
        assert np.mean(compensated) < 0.5 * np.mean(observed)

    @pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM])
    def test_beats_observed_outputs(self, agg):
        self._assert_beats_observed(agg, per_key_arrays())

    def test_in_order_is_near_exact(self):
        arrays = per_key_arrays(delay=NoDisorder())
        records, answers = run_per_key(per_key_op(), arrays)
        errs = [
            per_key_l1(
                answers[r.window.start],
                per_key_outputs(arrays, r.window.start, r.window.end, None, AggKind.COUNT),
            )
            for r in records
        ]
        assert np.mean(errs) < 0.02

    def test_hot_keys_driven_by_observations(self):
        """Under Zipf 1.2 the hottest key's answer tracks its own truth."""
        arrays = per_key_arrays(skew=1.2, seed=4)
        records, answers = run_per_key(per_key_op(), arrays)
        errs = []
        for r in records[20:]:
            truth = per_key_outputs(
                arrays, r.window.start, r.window.end, None, AggKind.COUNT
            ).get(0, 0.0)
            if truth > 0:
                errs.append(abs(answers[r.window.start].get(0, 0.0) - truth) / truth)
        assert np.mean(errs) < 0.25

    def test_total_of_per_key_answers_tracks_scalar_truth(self):
        arrays = per_key_arrays()
        records, answers = run_per_key(per_key_op(), arrays)
        rel = [
            abs(sum(answers[r.window.start].values()) - r.expected) / r.expected
            for r in records[20:]
            if r.expected > 0
        ]
        assert np.mean(rel) < 0.12

    def test_no_per_key_answer_before_warm_up(self):
        """Until the operator is warm there is no per-key answer, and the
        emitted values are plain PECJ's."""
        arrays = per_key_arrays()
        op = per_key_op()
        part = run_operator(op, arrays, WLEN, 10.0, t_start=0.0, t_end=60.0)
        base = run_operator(PECJoin(AggKind.COUNT), arrays, WLEN, 10.0, t_start=0.0, t_end=60.0)
        assert op.hot_series == []
        assert [r.value for r in part.records] == [r.value for r in base.records]
        run_per_key(op, arrays)
        assert op.hot_series

    @pytest.mark.parametrize("t_start,delay", [(0.0, 5.0), (0.0, 30.0), (50.0, 30.0)])
    @pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM])
    def test_answers_every_window_after_warm_up(self, agg, t_start, delay):
        """Wherever the run starts and however long the delay horizon,
        each scored window gets a per-key answer: an empty cold tail
        does not hold the partitions cold."""
        self._assert_beats_observed(agg, per_key_arrays(delay=UniformDelay(delay)), t_start)


class TestChurn:
    def _churn_op(self):
        """Aggressive thresholds + fast cadence force promote/demote churn."""
        return PartitionedPECJoin(
            AggKind.COUNT,
            max_hot=4,
            enter_share=0.02,
            boost=2.0,
            exit_fraction=0.9,  # near-zero hysteresis: maximal thrashing
            repartition_interval=1,
            sketch_decay=0.9,
        )

    def test_forced_churn_preserves_accounting(self):
        arrays = skewed_arrays(1.1, num_keys=32, seed=5)
        op = self._churn_op()
        res = run(op, arrays)
        assert op.partitions.promotions + op.partitions.demotions > 2
        for _, hot_r, hot_s, cold_r, cold_s, total_r, total_s in op.accounting:
            assert hot_r + cold_r == total_r
            assert hot_s + cold_s == total_s
        assert all(np.isfinite(r.value) for r in res.records)

    def test_churn_does_not_blow_up_error(self):
        arrays = skewed_arrays(1.1, num_keys=32, seed=5)
        base = run(PECJoin(AggKind.COUNT), arrays)
        part = run(self._churn_op(), arrays)
        assert part.mean_error <= base.mean_error * 1.2

    def test_migration_bytes_accumulate_both_directions(self):
        """Promotion moves scalar state; demotion also moves the profile."""
        arrays = skewed_arrays(1.1, num_keys=32, seed=5)
        op = self._churn_op()
        op.prepare(arrays, WLEN, 10.0)
        op._apply_repartition({3}, set(), 0, 0.0)
        assert op.migration_bytes == HotKeyState.STATE_BYTES
        op._apply_repartition(set(), {3}, 1, WLEN)
        assert op.migration_bytes > 2 * HotKeyState.STATE_BYTES


class TestSkewDriftChaos:
    def _drifting_arrays(self, seed=3, duration=3000.0, rate=60.0):
        """First half Zipf-hot on one key set, second half on another.

        Key identity flips at ``duration / 2`` by reversing the domain,
        under bursty disorder — the drift detector must chase the new
        heavy hitters mid-stream.
        """
        half = duration / 2.0
        a = skewed_arrays(1.4, num_keys=64, seed=seed, duration=half, rate=rate)
        b = skewed_arrays(1.4, num_keys=64, seed=seed + 1, duration=half, rate=rate)
        return BatchArrays(
            np.concatenate([a.event, b.event + half]),
            np.concatenate([a.arrival, b.arrival + half]),
            np.concatenate([a.key, 63 - b.key]),
            np.concatenate([a.payload, b.payload]),
            np.concatenate([a.is_r, b.is_r]),
        )

    def test_drift_repartitions_and_stays_stable(self):
        arrays = self._drifting_arrays()
        op = PartitionedPECJoin(AggKind.COUNT, repartition_interval=8)
        base = run(PECJoin(AggKind.COUNT), arrays, duration=3000.0)
        res = run(op, arrays, duration=3000.0)
        # The share signal is blind to an identity flip at constant skew;
        # the hit-rate collapse signal must have caught it.
        assert op.partitions.shift_repartitions >= 1
        # Membership followed the flip: both promotions and demotions fired.
        assert op.partitions.promotions >= 2
        assert op.partitions.demotions >= 1
        assert all(np.isfinite(r.value) for r in res.records)
        # Stability through the transition (stale priors wash out under
        # the parent blend), full recovery after it.
        assert res.mean_error <= base.mean_error * 1.35
        tail_base = [r.error for r in base.records if r.window.start >= 2200.0]
        tail_part = [r.error for r in res.records if r.window.start >= 2200.0]
        assert np.mean(tail_part) <= np.mean(tail_base)
        for _, hot_r, hot_s, cold_r, cold_s, total_r, total_s in op.accounting:
            assert hot_r + cold_r == total_r
            assert hot_s + cold_s == total_s
