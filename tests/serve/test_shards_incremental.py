"""Property gate: incremental shard state equals the full-rebuild
reference across randomized ingest/query/evict/checkpoint/migrate
interleavings.

:class:`~repro.serve.shards.ShardStore` and
:class:`~repro.bench.serve_bench.FullRebuildShard` are driven in
lockstep through the same randomized operation sequence; after every
query the answers must agree — integer accounting (``n_r``/``n_s``/
``starved``/``evicted``/``len``) bit for bit, values exactly for COUNT
and to summation-order rounding for SUM/AVG — and the invariants must
keep holding across checkpoint/restore (including migrating a shard
*between* the two classes mid-run).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.serve_bench import FullRebuildShard
from repro.joins.arrays import AggKind
from repro.serve.shards import ShardStore

NUM_KEYS = 16
WINDOW_MS = 100.0
RETENTION_MS = 450.0
TICK_MS = 25.0


def make_pair(agg, retention_ms=RETENTION_MS):
    args = (0, NUM_KEYS, agg, WINDOW_MS, retention_ms)
    return ShardStore(*args), FullRebuildShard(*args)


def arrival_batch(rng, clock, n, mean_delay=15.0):
    """One service-tick batch: arrivals inside (clock - tick, clock]."""
    arrival = np.sort(clock - rng.uniform(0.0, TICK_MS, n))
    event = np.maximum(arrival - rng.gamma(2.0, mean_delay, n), 0.0)
    key = rng.integers(0, NUM_KEYS, n).astype(np.int64)
    payload = rng.uniform(0.0, 2.0, n)
    is_r = rng.random(n) < 0.5
    return event, arrival, key, payload, is_r


def assert_answers_equal(a, b, agg, ctx):
    assert (a.n_r, a.n_s, a.starved) == (b.n_r, b.n_s, b.starved), ctx
    if agg is AggKind.COUNT:
        # All-integer arithmetic: bit for bit.
        assert a.observed == b.observed and a.value == b.value, ctx
    else:
        assert a.observed == pytest.approx(b.observed, rel=1e-9, abs=1e-9), ctx
        assert a.value == pytest.approx(b.value, rel=1e-9, abs=1e-9), ctx
    assert a.completeness == pytest.approx(b.completeness, rel=1e-9), ctx


def assert_accounting_equal(inc, ref, ctx):
    assert inc.ingested == ref.ingested, ctx
    assert inc.evicted == ref.evicted, ctx
    assert len(inc) == len(ref), ctx


class TestInterleavings:
    @pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM, AggKind.AVG])
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_lockstep(self, agg, seed):
        rng = np.random.default_rng(seed)
        inc, ref = make_pair(agg)
        clock = 0.0
        for step in range(120):
            op = rng.random()
            if op < 0.55:  # ingest one tick
                clock += TICK_MS
                cols = arrival_batch(rng, clock, int(rng.integers(1, 60)))
                inc.ingest(*cols)
                ref.ingest(*cols)
            elif op < 0.90:  # query a recent (possibly straddling) window
                back = float(rng.integers(0, 6)) * WINDOW_MS
                start = max(0.0, (clock // WINDOW_MS) * WINDOW_MS - back)
                budget = float(rng.uniform(0.0, 60.0))
                a = inc.query(start, start + WINDOW_MS, clock + budget)
                b = ref.query(start, start + WINDOW_MS, clock + budget)
                ctx = (seed, step, start, clock)
                assert_answers_equal(a, b, agg, ctx)
                assert_accounting_equal(inc, ref, ctx)
            elif op < 0.97:  # checkpoint/restore (same-class migration)
                inc = ShardStore.restore(json.loads(json.dumps(inc.checkpoint())))
                ref = FullRebuildShard.restore(json.loads(json.dumps(ref.checkpoint())))
                assert_accounting_equal(inc, ref, (seed, step))
            else:  # off-grid window: the scan fallback path
                start = float(rng.uniform(0.0, max(clock, 1.0)))
                width = float(rng.uniform(10.0, 180.0))
                a = inc.query(start, start + width, clock + 30.0)
                b = ref.query(start, start + width, clock + 30.0)
                assert_answers_equal(a, b, agg, (seed, step, "offgrid", start))
        assert inc.queries == ref.queries

    def test_cross_mode_migration(self):
        """A snapshot written by one shard class restores into the other
        and keeps answering identically."""
        rng = np.random.default_rng(99)
        inc, ref = make_pair(AggKind.COUNT)
        clock = 0.0
        for _ in range(20):
            clock += TICK_MS
            cols = arrival_batch(rng, clock, 40)
            inc.ingest(*cols)
            ref.ingest(*cols)
        snap_inc = inc.checkpoint()
        snap_ref = ref.checkpoint()
        swapped_to_full = FullRebuildShard.restore(snap_inc)
        swapped_to_runs = ShardStore.restore(snap_ref)
        start = (clock // WINDOW_MS - 2) * WINDOW_MS
        answers = [
            s.query(start, start + WINDOW_MS, clock)
            for s in (inc, ref, swapped_to_full, swapped_to_runs)
        ]
        assert len({(a.n_r, a.n_s, a.value) for a in answers}) == 1

    def test_eviction_counts_track_reference_exactly(self):
        """Window-granular eviction must report the same lifetime counts as
        the reference's rebuild-time filter at every observation point."""
        rng = np.random.default_rng(7)
        inc, ref = make_pair(AggKind.COUNT)
        clock = 0.0
        for tick in range(80):
            clock += TICK_MS
            cols = arrival_batch(rng, clock, 50)
            inc.ingest(*cols)
            ref.ingest(*cols)
            start = max(0.0, (clock // WINDOW_MS - 1) * WINDOW_MS)
            inc.query(start, start + WINDOW_MS, clock)
            ref.query(start, start + WINDOW_MS, clock)
            assert inc.evicted == ref.evicted, tick
            assert len(inc) == len(ref), tick
        assert inc.evicted > 0  # retention really kicked in

    @pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM])
    @pytest.mark.parametrize("seed", range(6))
    def test_held_back_chunk_lockstep(self, agg, seed):
        """One tick's chunk held back and delivered after the next one:
        its arrivals precede the clocks its windows have already taken,
        so the shard must fold those windows out of arrival order.
        Answers over every recent window (the straddling one included),
        off-grid scans and eviction counts track the reference, across
        checkpoint/restore too."""
        rng = np.random.default_rng(seed)
        inc, ref = make_pair(agg)
        clock = 0.0
        held = None
        late_deliveries = 0
        for step in range(150):
            clock += TICK_MS
            cols = arrival_batch(rng, clock, int(rng.integers(1, 60)))
            if held is None and rng.random() < 0.3:
                held = cols
                continue
            chunks = [cols]
            if held is not None:
                chunks.append(held)
                late_deliveries += 1
                held = None
            for chunk in chunks:
                inc.ingest(*chunk)
                ref.ingest(*chunk)
            if rng.random() < 0.05:
                inc = ShardStore.restore(json.loads(json.dumps(inc.checkpoint())))
                ref = FullRebuildShard.restore(json.loads(json.dumps(ref.checkpoint())))
            for back in range(6):
                start = max(0.0, (clock // WINDOW_MS - back) * WINDOW_MS)
                budget = float(rng.uniform(0.0, 40.0))
                a = inc.query(start, start + WINDOW_MS, clock + budget)
                b = ref.query(start, start + WINDOW_MS, clock + budget)
                ctx = (seed, step, start, clock)
                assert_answers_equal(a, b, agg, ctx)
                assert_accounting_equal(inc, ref, ctx)
            start = float(rng.uniform(0.0, clock))
            a = inc.query(start, start + 70.0, clock)
            b = ref.query(start, start + 70.0, clock)
            assert_answers_equal(a, b, agg, (seed, step, "offgrid", start))
        assert late_deliveries > 20
        assert inc.evicted == ref.evicted > 0


class TestCheckpointAroundIngest:
    def test_snapshots_either_side_of_an_ingest_restore_alike(self):
        """A snapshot taken right before an ingest, restored and fed the
        same chunk, holds what the snapshot taken right after it holds:
        both restore to shards that checkpoint to the live shard's bytes
        and answer every window like it."""
        rng = np.random.default_rng(5)
        shard = ShardStore(0, NUM_KEYS, AggKind.COUNT, WINDOW_MS, 2000.0)
        clock = 0.0
        for _ in range(15):
            clock += TICK_MS
            shard.ingest(*arrival_batch(rng, clock, 32))
        snap_a = json.loads(json.dumps(shard.checkpoint()))
        clock += TICK_MS
        tick_cols = arrival_batch(rng, clock, 32)
        shard.ingest(*tick_cols)
        snap_b = json.loads(json.dumps(shard.checkpoint()))
        restored_a = ShardStore.restore(snap_a)
        restored_a.ingest(*tick_cols)
        restored_b = ShardStore.restore(snap_b)
        assert restored_a.checkpoint() == restored_b.checkpoint() == snap_b
        for widx in range(int(clock // WINDOW_MS) + 1):
            start = widx * WINDOW_MS
            live = shard.query(start, start + WINDOW_MS, clock)
            a = restored_a.query(start, start + WINDOW_MS, clock)
            b = restored_b.query(start, start + WINDOW_MS, clock)
            assert live == a == b, widx

    def test_checkpoint_columns_are_event_sorted(self):
        rng = np.random.default_rng(13)
        shard = ShardStore(0, NUM_KEYS, AggKind.COUNT, WINDOW_MS, 2000.0)
        clock = 0.0
        for _ in range(10):
            clock += TICK_MS
            shard.ingest(*arrival_batch(rng, clock, 40))
        snap = shard.checkpoint()
        import base64

        event = np.frombuffer(
            base64.b64decode(snap["columns"]["event"]), dtype="<f8"
        )
        assert np.all(np.diff(event) >= 0.0)
        assert len(event) == len(shard)


# -- the horizon memo: no stale state survives an invalidating operation --

#: Retention of the memo lockstep: short, so late chunks get behind
#: the horizon within a few ticks.
MEMO_RETENTION_MS = 250.0

_tick = st.tuples(st.just("tick"), st.integers(1, 50))
#: Ticks listed three times: they are what moves the horizon forward.
_ops = st.one_of(
    _tick,
    _tick,
    _tick,
    st.tuples(st.just("late"), st.integers(1, 30)),
    st.tuples(st.just("query"), st.integers(0, 5), st.integers(1, 3)),
    st.tuples(st.just("restore")),
)


def late_batch(rng, shard, n):
    """Tuples whose events are already behind ``shard``'s horizon and
    whose arrivals leave its newest arrival unchanged — the reference
    drops them at its next rebuild, so the incremental shard must too."""
    newest = shard._max_arrival
    event = shard.horizon - rng.uniform(1.0, 150.0, n)
    arrival = np.sort(rng.uniform(newest - TICK_MS, newest, n))
    key = rng.integers(0, NUM_KEYS, n).astype(np.int64)
    return event, arrival, key, rng.uniform(0.0, 2.0, n), rng.random(n) < 0.5


@settings(max_examples=60, deadline=None)
@given(
    agg=st.sampled_from([AggKind.COUNT, AggKind.SUM]),
    seed=st.integers(0, 2**16),
    warmup=st.integers(0, 16),
    ops=st.lists(_ops, min_size=5, max_size=80),
)
def test_horizon_memo_lockstep(agg, seed, warmup, ops):
    """Back-to-back queries, late chunks behind an unchanged horizon
    and restore, each followed by queries: the incremental shard's
    ``evicted``, ``len`` and answers track the full-rebuild reference."""
    rng = np.random.default_rng(seed)
    inc, ref = make_pair(agg, MEMO_RETENTION_MS)
    clock = 0.0
    for step, op in enumerate([("tick", 30)] * warmup + ops):
        kind = op[0]
        if kind == "late" and clock <= MEMO_RETENTION_MS:
            kind = "tick"  # nothing can be behind the horizon yet
        if kind == "tick":
            clock += TICK_MS
            cols = arrival_batch(rng, clock, op[1])
            inc.ingest(*cols)
            ref.ingest(*cols)
            continue
        if kind == "late":
            newest = inc._max_arrival
            cols = late_batch(rng, inc, op[1])
            inc.ingest(*cols)
            ref.ingest(*cols)
            assert inc._max_arrival == newest
            repeats = 1
        elif kind == "restore":
            inc = ShardStore.restore(json.loads(json.dumps(inc.checkpoint())))
            ref = FullRebuildShard.restore(json.loads(json.dumps(ref.checkpoint())))
            repeats = 1
        else:
            repeats = op[2]
        back = float(op[1]) * WINDOW_MS if kind == "query" else 0.0
        start = max(0.0, (clock // WINDOW_MS) * WINDOW_MS - back)
        for _ in range(repeats):
            a = inc.query(start, start + WINDOW_MS, clock + 20.0)
            b = ref.query(start, start + WINDOW_MS, clock + 20.0)
            ctx = (seed, step, kind, start, clock)
            assert_answers_equal(a, b, agg, ctx)
            assert_accounting_equal(inc, ref, ctx)


def test_restored_shard_evicts_stale_snapshot_rows():
    """A snapshot whose columns reach behind its own horizon (a
    hand-built or edited one) restores into a shard that evicts those
    rows at its first query, exactly as the full-rebuild reference does."""
    rng = np.random.default_rng(17)
    inc, _ = make_pair(AggKind.COUNT)
    clock = 0.0
    for _ in range(10):
        clock += TICK_MS
        inc.ingest(*arrival_batch(rng, clock, 40))
    snap = json.loads(json.dumps(inc.checkpoint()))
    snap["max_arrival"] += 400.0
    restored = ShardStore.restore(snap)
    ref = FullRebuildShard.restore(snap)
    start = (clock // WINDOW_MS) * WINDOW_MS
    for _ in range(2):
        a = restored.query(start, start + WINDOW_MS, clock + 20.0)
        b = ref.query(start, start + WINDOW_MS, clock + 20.0)
        assert_answers_equal(a, b, AggKind.COUNT, "restore")
        assert_accounting_equal(restored, ref, "restore")
    assert restored.evicted > inc.evicted
