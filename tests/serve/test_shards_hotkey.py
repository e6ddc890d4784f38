"""Hot-key isolation in the serving shard: equivalence, accounting, restore."""

import numpy as np
import pytest

from repro.joins.arrays import AggKind
from repro.serve.shards import ShardStore


def make_shard(**kwargs):
    defaults = dict(
        shard_id=0, num_keys=16, agg=AggKind.COUNT, window_ms=50.0, retention_ms=400.0
    )
    defaults.update(kwargs)
    return ShardStore(**defaults)


def skewed_batch(rng, n, t_lo, t_hi, hot_key=3, hot_frac=0.6, num_keys=16):
    """A batch where ``hot_frac`` of the traffic lands on one key."""
    event = rng.uniform(t_lo, t_hi, n)
    arrival = event + rng.exponential(4.0, n)
    key = rng.integers(0, num_keys, n)
    key[rng.random(n) < hot_frac] = hot_key
    payload = rng.uniform(0.0, 2.0, n)
    is_r = rng.random(n) < 0.5
    return event, arrival, key, payload, is_r


def answers(shard, spans):
    return [
        (a.value, a.observed, a.n_r, a.n_s, a.starved)
        for a in (shard.query(lo, hi, available_by=by) for lo, hi, by in spans)
    ]


SPANS = [(50.0, 100.0, 130.0), (100.0, 150.0, 160.0), (150.0, 200.0, 260.0)]


class TestValidation:
    def test_out_of_range_key_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            make_shard().isolate_hot_keys([16])
        with pytest.raises(ValueError, match="outside"):
            make_shard().isolate_hot_keys([-1])

    def test_same_set_is_noop(self):
        shard = make_shard()
        assert shard.isolate_hot_keys([3, 7]) == 0
        assert shard.isolate_hot_keys([7, 3]) == 0  # order-insensitive
        assert shard.hot_keys == (3, 7)


class TestEquivalence:
    def _pair(self, seed=0):
        """A plain shard and an isolated one fed identical batches."""
        plain, isolated = make_shard(), make_shard()
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for lo in range(0, 200, 50):
            plain.ingest(*skewed_batch(rng_a, 500, float(lo), float(lo + 50)))
            isolated.ingest(*skewed_batch(rng_b, 500, float(lo), float(lo + 50)))
        return plain, isolated

    def test_answers_identical_under_isolation(self):
        plain, isolated = self._pair()
        isolated.isolate_hot_keys([3])
        assert answers(isolated, SPANS) == answers(plain, SPANS)

    def test_answers_identical_under_churn(self):
        """Repartitioning mid-stream ([3] -> [3, 5] -> []) never changes
        a single answer relative to the never-partitioned shard."""
        plain, isolated = make_shard(), make_shard()
        rng_a, rng_b = np.random.default_rng(1), np.random.default_rng(1)
        memberships = iter([[3], [3, 5], []])
        for lo in range(0, 200, 50):
            plain.ingest(*skewed_batch(rng_a, 500, float(lo), float(lo + 50)))
            isolated.ingest(*skewed_batch(rng_b, 500, float(lo), float(lo + 50)))
            nxt = next(memberships, None)
            if nxt is not None:
                isolated.isolate_hot_keys(nxt)
        assert isolated.hot_keys == ()
        assert answers(isolated, SPANS) == answers(plain, SPANS)

    def test_eviction_accounting_matches_plain_shard(self):
        plain, isolated = make_shard(), make_shard()
        rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
        isolated.isolate_hot_keys([3])
        for lo in range(0, 2000, 100):
            plain.ingest(*skewed_batch(rng_a, 300, float(lo), float(lo + 100)))
            isolated.ingest(*skewed_batch(rng_b, 300, float(lo), float(lo + 100)))
            # Queries drive horizon advancement (run-granular eviction).
            plain.query(float(lo), float(lo + 50), available_by=float(lo + 100))
            isolated.query(float(lo), float(lo + 50), available_by=float(lo + 100))
        assert isolated.evicted == plain.evicted
        assert len(isolated) == len(plain)
        assert isolated.evicted > 0  # retention really kicked in


class TestMigrationAccounting:
    def test_bytes_proportional_to_moved_rows(self):
        shard = make_shard()
        rng = np.random.default_rng(3)
        shard.ingest(*skewed_batch(rng, 1000, 0.0, 100.0))
        moved = shard.isolate_hot_keys([3])
        assert moved > 0
        assert moved == shard.migration_bytes
        assert moved % ShardStore._ROW_BYTES == 0
        # Dissolving moves the same rows back (plus any hot arrivals).
        dissolved = shard.isolate_hot_keys([])
        assert dissolved >= moved

    def test_isolation_before_ingest_is_free(self):
        shard = make_shard()
        assert shard.isolate_hot_keys([3]) == 0
        rng = np.random.default_rng(4)
        shard.ingest(*skewed_batch(rng, 500, 0.0, 50.0))
        # Hot traffic was routed at ingest: no migration debt accrued.
        assert shard.migration_bytes == 0


class TestCheckpointRestore:
    def test_round_trip_preserves_hot_keys_and_answers(self):
        shard = make_shard()
        rng = np.random.default_rng(5)
        shard.ingest(*skewed_batch(rng, 2000, 0.0, 200.0))
        shard.isolate_hot_keys([3, 9])
        expected = answers(shard, SPANS)
        restored = ShardStore.restore(shard.checkpoint())
        assert restored.hot_keys == (3, 9)
        assert answers(restored, SPANS) == expected
        # Restore re-splits from the snapshot; it owes no migration debt.
        assert restored.migration_bytes == 0

    def test_unpartitioned_snapshot_stays_unpartitioned(self):
        shard = make_shard()
        rng = np.random.default_rng(6)
        shard.ingest(*skewed_batch(rng, 500, 0.0, 100.0))
        snap = shard.checkpoint()
        assert "hot_keys" not in snap
        assert ShardStore.restore(snap).hot_keys == ()
