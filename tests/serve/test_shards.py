"""Shard state: ingest, PECJ-lite compensation, eviction, checkpoint."""

import hashlib
import json

import numpy as np
import pytest

from repro.bench.serve_bench import FullRebuildShard
from repro.joins.arrays import AggKind, BatchArrays
from repro.serve.shards import ShardStore


def make_shard(shard_cls=ShardStore, **kwargs):
    defaults = dict(
        shard_id=0, num_keys=16, agg=AggKind.COUNT, window_ms=50.0, retention_ms=400.0
    )
    defaults.update(kwargs)
    return shard_cls(**defaults)


def uniform_batch(rng, n, t_lo, t_hi, mean_delay=4.0, num_keys=16):
    event = rng.uniform(t_lo, t_hi, n)
    arrival = event + rng.exponential(mean_delay, n)
    key = rng.integers(0, num_keys, n)
    payload = rng.uniform(0.0, 2.0, n)
    is_r = rng.random(n) < 0.5
    return event, arrival, key, payload, is_r


class TestIngestAndQuery:
    def test_observed_matches_batcharrays_oracle(self):
        rng = np.random.default_rng(0)
        shard = make_shard()
        cols = uniform_batch(rng, 2000, 0.0, 200.0)
        shard.ingest(*cols)
        reference = BatchArrays(*(np.array(c) for c in cols))
        reference._num_keys = 16
        ans = shard.query(50.0, 100.0, available_by=150.0)
        expected = reference.aggregate(50.0, 100.0, 150.0, clock="arrival")
        assert ans.observed == expected.value(AggKind.COUNT)
        assert (ans.n_r, ans.n_s) == (expected.n_r, expected.n_s)

    def test_compensation_inflates_toward_oracle(self):
        """With a warm profile and held-back arrivals, the compensated
        answer lands nearer the complete-window truth than observed."""
        rng = np.random.default_rng(1)
        shard = make_shard(retention_ms=2000.0)
        cols = uniform_batch(rng, 20000, 0.0, 1000.0, mean_delay=10.0)
        shard.ingest(*cols)
        reference = BatchArrays(*(np.array(c) for c in cols))
        reference._num_keys = 16
        truth = reference.aggregate(900.0, 950.0).value(AggKind.COUNT)
        ans = shard.query(900.0, 950.0, available_by=955.0)
        assert ans.observed < truth  # arrivals really were withheld
        assert ans.completeness < 1.0
        assert abs(ans.value - truth) < abs(ans.observed - truth)

    def test_compensation_off_returns_observed(self):
        rng = np.random.default_rng(2)
        shard = make_shard(retention_ms=2000.0)
        shard.ingest(*uniform_batch(rng, 5000, 0.0, 500.0, mean_delay=10.0))
        ans = shard.query(400.0, 450.0, available_by=452.0, compensate_output=False)
        assert ans.value == ans.observed

    def test_starved_window_is_flagged(self):
        rng = np.random.default_rng(3)
        shard = make_shard()
        event, arrival, key, payload, _ = uniform_batch(rng, 200, 0.0, 50.0)
        one_sided = np.ones(200, dtype=bool)  # R only: the S side starves
        shard.ingest(event, arrival, key, payload, one_sided)
        ans = shard.query(0.0, 50.0, available_by=100.0)
        assert ans.starved
        assert ans.value == ans.observed == 0.0

    def test_empty_shard_answers_zero(self):
        ans = make_shard().query(0.0, 50.0, available_by=100.0)
        assert ans.value == 0.0
        assert ans.starved

    def test_negative_clock_skew_is_clamped(self):
        shard = make_shard()
        event = np.array([10.0, 20.0])
        arrival = np.array([9.0, 25.0])  # first tuple "arrived early"
        shard.ingest(event, arrival, np.array([1, 2]), np.ones(2), np.array([True, False]))
        assert shard.profile.weight == 2.0

    def test_retention_validation(self):
        with pytest.raises(ValueError):
            make_shard(retention_ms=60.0)


class TestEviction:
    def test_old_events_evicted_on_rebuild(self):
        rng = np.random.default_rng(4)
        shard = make_shard(retention_ms=400.0)
        for lo in range(0, 2000, 100):
            shard.ingest(*uniform_batch(rng, 300, float(lo), float(lo + 100)))
            shard.query(float(lo), float(lo + 50), available_by=float(lo + 100))
        assert shard.evicted > 0
        # Live state stays bounded by the retention horizon.
        assert len(shard) < 300 * 7

    def test_recent_windows_survive_eviction(self):
        rng = np.random.default_rng(5)
        shard = make_shard(retention_ms=400.0)
        shard.ingest(*uniform_batch(rng, 2000, 0.0, 1000.0))
        ans = shard.query(900.0, 950.0, available_by=1100.0)
        assert ans.n_r + ans.n_s > 0


class TestCheckpoint:
    def test_round_trip_preserves_answers(self):
        rng = np.random.default_rng(6)
        shard = make_shard(retention_ms=2000.0)
        shard.ingest(*uniform_batch(rng, 5000, 0.0, 500.0))
        snapshot = json.loads(json.dumps(shard.checkpoint()))
        restored = ShardStore.restore(snapshot)
        for start in (0.0, 150.0, 400.0):
            a = shard.query(start, start + 50.0, available_by=start + 60.0)
            b = restored.query(start, start + 50.0, available_by=start + 60.0)
            assert a == b

    def test_restored_shard_keeps_learning(self):
        """Migration is mid-run: the successor must keep ingesting and
        answer like the never-migrated shard."""
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        plain = make_shard(retention_ms=2000.0)
        moved = make_shard(retention_ms=2000.0)
        plain.ingest(*uniform_batch(rng_a, 3000, 0.0, 300.0))
        moved.ingest(*uniform_batch(rng_b, 3000, 0.0, 300.0))
        moved = ShardStore.restore(json.loads(json.dumps(moved.checkpoint())))
        plain.ingest(*uniform_batch(rng_a, 3000, 300.0, 600.0))
        moved.ingest(*uniform_batch(rng_b, 3000, 300.0, 600.0))
        a = plain.query(500.0, 550.0, available_by=560.0)
        b = moved.query(500.0, 550.0, available_by=560.0)
        assert a == b
        assert moved.ingested == plain.ingested
        # The full accounting identity survives migration: lifetime
        # ingested/evicted/queries all round-trip, so len() (ingested -
        # evicted) agrees too.
        assert moved.evicted == plain.evicted
        assert moved.queries == plain.queries
        assert len(moved) == len(plain)

    def test_queries_counter_round_trips(self):
        """A restored shard resumes the lifetime query count instead of
        resetting it — the regression that motivated snapshot v2."""
        rng = np.random.default_rng(8)
        shard = make_shard(retention_ms=2000.0)
        shard.ingest(*uniform_batch(rng, 1000, 0.0, 200.0))
        for start in (0.0, 50.0, 100.0):
            shard.query(start, start + 50.0, available_by=250.0)
        assert shard.queries == 3
        restored = ShardStore.restore(json.loads(json.dumps(shard.checkpoint())))
        assert restored.queries == 3
        restored.query(0.0, 50.0, available_by=250.0)
        assert restored.queries == 4

    def test_rejects_unknown_snapshot_version(self):
        """Only schema v2 restores; v1 ``.tolist()`` snapshots are refused."""
        for version in (1, 99):
            snapshot = make_shard().checkpoint()
            snapshot["version"] = version
            with pytest.raises(ValueError, match="unsupported shard snapshot version"):
                ShardStore.restore(snapshot)

    def test_v2_snapshot_packs_columns_as_base64(self):
        rng = np.random.default_rng(9)
        shard = make_shard(retention_ms=2000.0)
        shard.ingest(*uniform_batch(rng, 500, 0.0, 100.0))
        snapshot = shard.checkpoint()
        assert snapshot["version"] == 2
        assert all(isinstance(col, str) for col in snapshot["columns"].values())
        # Base64 packing beats the v1 float repr format by a wide margin.
        event = np.frombuffer(
            __import__("base64").b64decode(snapshot["columns"]["event"]), dtype="<f8"
        )
        assert len(event) == len(shard)
        packed = len(json.dumps(snapshot["columns"]))
        listed = len(json.dumps({"event": event.tolist()})) * 5
        assert packed < listed


def seeded_shard() -> ShardStore:
    """A SUM shard fed 40 skewed ticks with interleaved queries.  Event
    times are whole milliseconds, so rows tie often and the snapshot
    pins their merge order too."""
    rng = np.random.default_rng(2024)
    shard = ShardStore(3, 16, AggKind.SUM, 100.0, 450.0)
    clock = 0.0
    for tick in range(40):
        clock += 25.0
        arrival = np.sort(clock - rng.uniform(0.0, 25.0, 30))
        event = np.floor(np.maximum(arrival - rng.gamma(2.0, 15.0, 30), 0.0))
        key = rng.integers(0, 16, 30).astype(np.int64)
        key[rng.random(30) < 0.4] = 5
        shard.ingest(event, arrival, key, rng.uniform(0.0, 2.0, 30), rng.random(30) < 0.5)
        if tick % 3 == 0:
            start = (clock // 100.0 - 1) * 100.0
            shard.query(start, start + 100.0, clock + 10.0)
    return shard


#: SHA-256 of the seeded shard's checkpoint JSON.  A mismatch means the
#: snapshot bytes changed, and with them every migration payload and the
#: ``serve.shard.ckpt_bytes`` values the serve baselines gate.
PINNED_CHECKPOINT_SHA256 = "78e4611a281520d3b6a901e528772a97ba0aa8807454626a96d9dbfb34b49f92"


@pytest.mark.parametrize("restored", [False, True], ids=["cold", "restored"])
def test_seeded_checkpoint_bytes_are_pinned(restored):
    """The seeded snapshot's bytes are pinned, and a restore followed by
    a checkpoint writes them back unchanged."""
    shard = seeded_shard()
    if restored:
        shard = ShardStore.restore(json.loads(json.dumps(shard.checkpoint())))
    snapshot = shard.checkpoint()
    digest = hashlib.sha256(json.dumps(snapshot).encode()).hexdigest()
    assert digest == PINNED_CHECKPOINT_SHA256


def test_snapshot_with_hot_keys_restores_like_cold():
    """Snapshots written while shards could isolate hot keys carry a
    ``hot_keys`` list; it restores into the same state and answers as
    the snapshot without it."""
    snapshot = json.loads(json.dumps(seeded_shard().checkpoint()))
    cold = ShardStore.restore(snapshot)
    legacy = ShardStore.restore({**snapshot, "hot_keys": [5, 9]})
    clock = 1000.0
    rng = np.random.default_rng(3)
    for step in range(3):
        for start in (600.0, 650.0, 700.0, 800.0, 900.0, 925.0):
            for budget in (0.0, 15.0, 60.0):
                a = cold.query(start, start + 100.0, clock + budget)
                b = legacy.query(start, start + 100.0, clock + budget)
                assert a == b, (step, start, budget)
        clock += 25.0
        cols = uniform_batch(rng, 40, clock - 60.0, clock - 5.0)
        cold.ingest(*cols)
        legacy.ingest(*cols)
    assert legacy.checkpoint() == cold.checkpoint()


class TestIngestContract:
    def test_len_is_constant_time_accounting(self):
        """len() is ingested - evicted — no array walk, and it stays
        correct immediately after ingest, before any rebuild."""
        rng = np.random.default_rng(11)
        shard = make_shard()
        shard.ingest(*uniform_batch(rng, 250, 0.0, 50.0))
        assert len(shard) == 250
        shard.ingest(*uniform_batch(rng, 250, 50.0, 100.0))
        assert len(shard) == 500 == shard.ingested - shard.evicted

    def test_ingest_accepts_plain_lists(self):
        shard = make_shard()
        shard.ingest([10.0, 20.0], [12.0, 21.0], [1, 2], [0.5, 0.25], [True, False])
        assert len(shard) == 2
        ans = shard.query(0.0, 50.0, available_by=100.0)
        assert ans.n_r == ans.n_s == 1

    def test_out_of_range_keys_rejected_before_mutation(self):
        shard = make_shard(num_keys=8)
        with pytest.raises(ValueError):
            shard.ingest(
                np.array([1.0]), np.array([2.0]), np.array([8]), np.array([1.0]),
                np.array([True]),
            )
        with pytest.raises(ValueError):
            shard.ingest(
                np.array([1.0]), np.array([2.0]), np.array([-1]), np.array([1.0]),
                np.array([True]),
            )
        assert len(shard) == 0 and shard.ingested == 0

    @pytest.mark.parametrize(
        "shard_cls", [ShardStore, FullRebuildShard], ids=["runs", "full"]
    )
    @pytest.mark.parametrize(
        "event, arrival",
        [([1.0, 2.0], [3.0, np.inf]), ([np.nan, 2.0], [3.0, 4.0]),
         ([1.0, 2.0], [np.nan, 4.0]), ([-np.inf, 2.0], [3.0, 4.0])],
    )
    def test_non_finite_times_rejected_before_mutation(self, shard_cls, event, arrival):
        """A non-finite time used to be appended to the runs before the
        profile saw it; now the batch is refused with nothing touched."""
        rng = np.random.default_rng(3)
        shard = make_shard(shard_cls)
        twin = make_shard(shard_cls)
        cols = uniform_batch(rng, 200, 0.0, 50.0)
        shard.ingest(*cols)
        twin.ingest(*cols)
        before = (len(shard), shard.ingested, shard.horizon, shard.profile.weight)
        with pytest.raises(ValueError, match="finite"):
            shard.ingest(
                np.array(event), np.array(arrival), np.array([1, 2]),
                np.array([1.0, 1.0]), np.array([True, False]),
            )
        assert (len(shard), shard.ingested, shard.horizon, shard.profile.weight) == before
        assert shard.query(0.0, 50.0, 100.0) == twin.query(0.0, 50.0, 100.0)

    @pytest.mark.parametrize(
        "shard_cls", [ShardStore, FullRebuildShard], ids=["runs", "full"]
    )
    @pytest.mark.parametrize("column", range(1, 5))
    def test_misaligned_columns_rejected_before_mutation(self, shard_cls, column):
        """Three events with five keys, payloads and sides used to report
        three tuples ingested and drop the other two rows silently."""
        rng = np.random.default_rng(5)
        shard = make_shard(shard_cls)
        twin = make_shard(shard_cls)
        cols = uniform_batch(rng, 200, 0.0, 50.0)
        shard.ingest(*cols)
        twin.ingest(*cols)
        before = (len(shard), shard.ingested, shard.horizon, shard.profile.weight)
        bad = [np.array([10.0, 20.0, 30.0]), np.array([12.0, 21.0, 33.0]),
               np.array([1, 2, 3]), np.ones(3), np.array([True, False, True])]
        for wrong in (bad[column][:2], np.concatenate([bad[column], bad[column][:2]])):
            with pytest.raises(ValueError, match="equally long"):
                shard.ingest(*bad[:column], wrong, *bad[column + 1:])
        with pytest.raises(ValueError, match="equally long"):
            shard.ingest(bad[0][:0], *bad[1:])  # no events, rows in the rest
        assert (len(shard), shard.ingested, shard.horizon, shard.profile.weight) == before
        for start in (0.0, 25.0):
            assert shard.query(start, start + 50.0, 100.0) == twin.query(
                start, start + 50.0, 100.0
            )
        shard.ingest(*bad)
        twin.ingest(*bad)
        assert shard.query(0.0, 50.0, 100.0) == twin.query(0.0, 50.0, 100.0)

    @pytest.mark.parametrize(
        "shard_cls", [ShardStore, FullRebuildShard], ids=["runs", "full"]
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_delay_rejected_before_mutation(self, shard_cls):
        """Finite times whose gap overflows used to pass the chunk check and
        reach the runs and the grid before the profile refused the infinite
        delay; the chunk check now covers the delays too."""
        rng = np.random.default_rng(4)
        shard = make_shard(shard_cls)
        twin = make_shard(shard_cls)
        cols = uniform_batch(rng, 200, 0.0, 50.0)
        shard.ingest(*cols)
        twin.ingest(*cols)
        before = (len(shard), shard.ingested, shard.horizon, shard.profile.weight)
        with pytest.raises(ValueError, match="finite"):
            shard.ingest(
                np.array([10.0, -1e308]), np.array([12.0, 1e308]), np.array([1, 2]),
                np.array([1.0, 1.0]), np.array([True, False]),
            )
        assert (len(shard), shard.ingested, shard.horizon, shard.profile.weight) == before
        assert shard.query(0.0, 50.0, 100.0) == twin.query(0.0, 50.0, 100.0)
        shard.ingest(*cols)
        twin.ingest(*cols)
        assert shard.query(0.0, 50.0, 100.0) == twin.query(0.0, 50.0, 100.0)
