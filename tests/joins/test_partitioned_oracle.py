"""The partition layer against its references.

The heap-indexed :class:`SpaceSavingSketch` is diffed against the scan
sketch it replaced (``tests/oracles/space_saving.py``) over random
operation sequences, and whole operator runs are diffed against runs that
use the scan sketch.  The one-pass hot-key counts are diffed against a
mask per hot key.
"""

import random

import numpy as np
import pytest

from repro.core.delay_profile import DelayProfile
from repro.core.persistence import profile_state
from repro.joins import partitioned
from repro.joins.arrays import AggKind
from repro.joins.partitioned import PartitionedPECJoin, SpaceSavingSketch
from tests.joins import test_partitioned as base
from tests.oracles.space_saving import ScanSpaceSavingSketch


def assert_same_state(fast, ref, domain):
    assert fast.top(fast.capacity) == ref.top(ref.capacity)
    assert fast.total == ref.total
    assert len(fast) == len(ref)
    for key in range(domain):
        assert fast.estimate(key) == ref.estimate(key)


class TestSketchAgainstScanOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_interleavings(self, seed):
        """offer / offer_batch / decay in random order, capacities 1-64,
        tie-heavy batches and decays that collapse distinct counts: the
        two sketches agree after every step."""
        rng = random.Random(seed)
        for _ in range(40):
            capacity = rng.randint(1, 64)
            fast = SpaceSavingSketch(capacity)
            ref = ScanSpaceSavingSketch(capacity)
            domain = rng.choice([2, 8, 40, 200, 1000])
            for _ in range(rng.randint(1, 40)):
                roll = rng.random()
                if roll < 0.3:
                    key = rng.randrange(domain)
                    weight = rng.choice([1.0, 0.5, 2.0, 3.0])
                    fast.offer(key, weight)
                    ref.offer(key, weight)
                elif roll < 0.85:
                    # Few distinct multiplicities: many equal counts.
                    keys = np.repeat(
                        rng.sample(range(domain), min(domain, rng.randint(0, 80))),
                        rng.choice([1, 1, 2, 3]),
                    ).astype(np.int64)
                    fast.offer_batch(keys)
                    ref.offer_batch(keys)
                else:
                    # 1e-300 rounds small counts to equal values (or zero).
                    factor = rng.choice([0.995, 0.5, 0.25, 0.1, 1e-300, 1.0])
                    fast.decay(factor)
                    ref.decay(factor)
                assert_same_state(fast, ref, domain)

    def test_long_eviction_churn_keeps_heap_bounded(self):
        """A long cold tail through a full sketch: still the oracle's
        answers, and the lazy heap never holds more than its slack."""
        rng = np.random.default_rng(3)
        fast, ref = SpaceSavingSketch(16), ScanSpaceSavingSketch(16)
        for _ in range(50):
            keys = np.concatenate([np.full(30, 1), rng.integers(0, 5000, size=200)])
            fast.offer_batch(keys)
            ref.offer_batch(keys)
            assert len(fast._heap) <= SpaceSavingSketch.HEAP_SLACK * 16
        assert_same_state(fast, ref, 5000)

    def test_equal_counts_evict_the_earliest_inserted(self):
        sk = SpaceSavingSketch(capacity=3)
        for key in (30, 10, 20):
            sk.offer(key)
        sk.offer(99)  # all counts 1: 30 went in first
        assert sk.estimate(30) == (0.0, 0.0)
        assert sk.estimate(99) == (2.0, 1.0)
        sk.offer(10)  # 10 -> 2 keeps its insertion place
        sk.offer(20)  # 20 -> 2
        sk.offer(98)  # counts 10:2, 20:2, 99:2 -- 10 is the earliest
        assert sk.estimate(10) == (0.0, 0.0)
        assert sk.estimate(98) == (3.0, 2.0)
        sk.offer(97)  # 20 was inserted before 99
        assert sk.estimate(20) == (0.0, 0.0)
        assert sorted(k for k, _, _ in sk.top(3)) == [97, 98, 99]

    def test_minimum_count_loses_before_insertion_order(self):
        sk = SpaceSavingSketch(capacity=2)
        sk.offer(1, 5.0)
        sk.offer(2, 1.0)
        sk.offer(3)  # 2 is newer but smaller
        assert sk.estimate(2) == (0.0, 0.0)
        assert sk.estimate(3) == (2.0, 1.0)


def _oracle_run(monkeypatch, make_op, arrays, **kw):
    with monkeypatch.context() as m:
        m.setattr(partitioned, "SpaceSavingSketch", ScanSpaceSavingSketch)
        op = make_op()
        res = base.run(op, arrays, **kw)
        assert isinstance(op.partitions.sketch, ScanSpaceSavingSketch)
    return op, res


_CASES = {
    "zipf-count": (
        lambda: PartitionedPECJoin(AggKind.COUNT),
        lambda: base.skewed_arrays(1.4, num_keys=256, seed=11), {},
    ),
    "zipf-sum": (
        lambda: PartitionedPECJoin(AggKind.SUM),
        lambda: base.skewed_arrays(1.4, num_keys=256, seed=11), {},
    ),
    "forced-churn": (
        base.TestChurn()._churn_op,
        lambda: base.skewed_arrays(1.1, num_keys=32, seed=5), {},
    ),
    "drift": (
        lambda: PartitionedPECJoin(AggKind.COUNT, repartition_interval=8),
        base.TestSkewDriftChaos()._drifting_arrays, {"duration": 3000.0},
    ),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_operator_identical_with_scan_sketch(monkeypatch, case):
    make_op, make_arrays, kw = _CASES[case]
    arrays = make_arrays()
    op = make_op()
    res = base.run(op, arrays, **kw)
    ref_op, ref = _oracle_run(monkeypatch, make_op, arrays, **kw)
    assert res.records == ref.records
    assert res.warmup_records == ref.warmup_records
    assert op.accounting == ref_op.accounting
    assert op.hot_series == ref_op.hot_series
    assert op.partition_summary() == ref_op.partition_summary()
    assert op.partitions.promotions + op.partitions.demotions > 0


@pytest.mark.parametrize("max_hot", [8, 200])  # 8-bit and 32-bit slot tables
@pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM])
def test_hot_window_counts_match_a_mask_per_key(agg, max_hot):
    """Slot-table counts and (under SUM) per-key R payload sums equal one
    mask per hot key over the window's available tuples, bit for bit."""
    arrays = base.skewed_arrays(1.1, num_keys=32, seed=5)
    arrays.payload = arrays.payload + np.random.default_rng(0).random(len(arrays))
    op = PartitionedPECJoin(agg, max_hot=max_hot, sketch_capacity=max(max_hot, 64))
    op.prepare(arrays, 10.0, 10.0)
    assert op._hot_slot.dtype == (np.int8 if max_hot <= 128 else np.int32)
    op._apply_repartition({0, 3, 1}, set(), 0, 0.0)
    op._apply_repartition({5}, {3}, 1, 10.0)
    assert list(op.hot_state) == [0, 1, 5]
    for start in np.arange(100.0, 600.0, 10.0):
        for now in (None, start + 12.0):
            per_key, total_r, total_s = op._hot_window_counts(
                arrays, start, start + 10.0, now
            )
            sl = arrays.window_slice(start, start + 10.0)
            keep = np.ones(sl.stop - sl.start, dtype=bool)
            if now is not None:
                keep = arrays.completion[sl] <= now
            keys, is_r = arrays.key[sl][keep], arrays.is_r[sl][keep]
            payload = arrays.payload[sl][keep]
            expected = {}
            for key in op.hot_state:
                mine = keys == key
                r = mine & is_r
                n_r = int(r.sum())
                sum_rv = float(payload[r].sum()) if n_r and agg is AggKind.SUM else 0.0
                expected[key] = (n_r, int(mine.sum()) - n_r, sum_rv)
            assert per_key == expected
            assert list(per_key) == list(op.hot_state)
            assert (total_r, total_s) == (int(is_r.sum()), int((~is_r).sum()))


def test_hot_delay_ingest_matches_a_mask_per_key():
    """Each hot key's own delay profile absorbs exactly the delays a mask
    per key selects from each ingested batch, in batch order."""
    arrays = base.skewed_arrays(1.1, num_keys=32, seed=5)
    op = PartitionedPECJoin(AggKind.COUNT)
    op.prepare(arrays, 10.0, 10.0)
    op._apply_repartition({0, 1, 5}, set(), 0, 0.0)
    ref = {key: DelayProfile() for key in op.hot_state}
    observed = dict.fromkeys(op.hot_state, 0)
    for now in np.arange(20.0, 900.0, 10.0):
        lo = op._ingest_cursor
        op._ingest_delays(arrays, now)
        idx = op._comp_order[lo : op._ingest_cursor]
        keys = arrays.key[idx]
        delays = np.maximum(arrays.arrival[idx] - arrays.event[idx], 0.0)
        for key, profile in ref.items():
            mine = keys == key
            if mine.any():
                profile.update(delays[mine])
                observed[key] += int(mine.sum())
    for key, state in op.hot_state.items():
        assert state.observed == observed[key] > 0
        assert profile_state(state.profile) == profile_state(ref[key])

