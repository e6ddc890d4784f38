"""Tests for the columnar tuple log and its window views."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.arrays import AggKind, BatchArrays
from repro.streaming.operators import StreamingKSJ, StreamingPECJ, StreamingWMJ
from repro.streaming import state as state_module
from repro.streaming.state import ArrivalLog, WindowJoinState
from repro.streams.tuples import Side, StreamTuple
from tests.oracles.symmetric_state import SymmetricWindowState


def tup(key, payload, event, side):
    return StreamTuple(key, payload, event, event, side)


def small_log(capacity: int) -> ArrivalLog:
    """A log that starts with room for ``capacity`` rows, so a few appends
    exercise its growth."""
    with mock.patch.object(state_module, "_CAPACITY", capacity):
        return ArrivalLog()


def view(tuples, num_buckets=10, blocks=None):
    """Window 0 of length 10 read back from a log ``tuples`` were appended
    to in blocks whose sizes cycle through ``blocks`` (by default, one
    block)."""
    tuples = list(tuples)
    sizes = itertools.cycle(blocks or [max(len(tuples), 1)])
    log = small_log(4)
    i = 0
    while i < len(tuples):
        size = next(sizes)
        log.extend(tuples[i:i + size])
        i += size
    return WindowJoinState(0.0, 10.0, num_buckets, *log.select(0, 0, 10.0))


class TestIncrementalJoin:
    def test_matches_count_symmetric(self):
        state = view([tup(1, 2.0, 1.0, Side.R), tup(1, 5.0, 2.0, Side.S), tup(1, 3.0, 3.0, Side.R)])
        # 2 R x 1 S under key 1.
        assert state.matches == 2
        assert state.sum_r == pytest.approx(2.0 + 3.0)

    def test_order_independence(self):
        """The final aggregates must not depend on arrival order."""
        rows = [
            (1, 2.0, Side.R), (1, 5.0, Side.S), (2, 7.0, Side.R),
            (1, 3.0, Side.R), (2, 1.0, Side.S), (2, 1.0, Side.S),
        ]
        a = view(tup(k, v, float(i % 9), s) for i, (k, v, s) in enumerate(rows))
        b = view(tup(k, v, float(i % 9), s) for i, (k, v, s) in enumerate(reversed(rows)))
        assert a.matches == b.matches
        assert a.sum_r == pytest.approx(b.sum_r)

    def test_select_masks_out_of_window_events(self):
        """A window reads only its own rows of the shared log, in log order."""
        tuples = [tup(1, 1.0, 10.0, Side.R), tup(2, 2.0, 9.5, Side.S),
                  tup(3, 3.0, -0.1, Side.R), tup(4, 4.0, 0.0, Side.S)]
        state = view(tuples, blocks=[1])
        assert state.key.tolist() == [2, 4]
        assert state.payload.tolist() == [2.0, 4.0]
        assert state.side.tolist() == [Side.S, Side.S]
        assert state.event.tolist() == [9.5, 0.0]

    def test_bucket_assignment(self):
        state = view([tup(1, 1.0, 0.5, Side.R), tup(1, 1.0, 9.99, Side.S)])
        assert state.buckets[0] == [1, 0]
        assert state.buckets[9] == [0, 1]

    def test_value_dispatch(self):
        state = view([tup(1, 4.0, 1.0, Side.R), tup(1, 0.0, 2.0, Side.S)])
        assert state.value(AggKind.COUNT) == 1.0
        assert state.value(AggKind.SUM) == 4.0
        assert state.value(AggKind.AVG) == 4.0

    def test_extended_is_independent(self):
        state = view([tup(1, 1.0, 1.0, Side.R)])
        assert state.matches == 0
        wider = state.extended([tup(1, 1.0, 2.0, Side.S)])
        assert wider.matches == 1
        assert state.matches == 0
        assert len(state.key) == 1

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(ValueError):
            WindowJoinState(0.0, 10.0, num_buckets=0)

    def test_rejects_negative_keys_like_the_batch_layer(self):
        """A bincount fold cannot take a negative key: every push operator's
        guard refuses it with the batch layer's wording, before anything is
        logged."""
        with pytest.raises(ValueError) as batch_err:
            BatchArrays(
                np.array([1.0]), np.array([1.0]), np.array([-3]),
                np.array([1.0]), np.array([True]),
            )
        for cls in (StreamingWMJ, StreamingKSJ, StreamingPECJ):
            op = cls(10.0, 10.0)
            op.push(tup(2, 1.0, 1.0, Side.S))
            with pytest.raises(ValueError, match="non-negative") as push_err:
                op.push(tup(-3, 1.0, 1.0, Side.R))
            assert str(push_err.value) == str(batch_err.value)
            op.push(tup(2, 4.0, 2.0, Side.R))
            op.finish()
            assert op.scored[0].truth == 1.0

    def test_length_and_contains(self):
        state = WindowJoinState(20.0, 30.0)
        assert state.length == 10.0
        assert state.contains(20.0) and state.contains(29.5)
        assert not state.contains(30.0) and not state.contains(19.9)


class TestArrivalLog:
    def test_growth_keeps_every_row(self):
        log = small_log(2)
        tuples = [StreamTuple(i, i / 2, float(i), i + 0.5, Side(i % 2)) for i in range(37)]
        for lo in range(0, 37, 5):
            log.extend(tuples[lo:lo + 5])
        assert (log.base, log.size, log.end) == (0, 37, 37)
        assert log.key[:37].tolist() == list(range(37))
        assert log.side[:37].tolist() == [i % 2 for i in range(37)]
        event, delay = log.delays(30)
        assert event.tolist() == [float(i) for i in range(30, 37)]
        assert delay.tolist() == [0.5] * 7

    def test_trim_keeps_absolute_indexes(self):
        log = ArrivalLog()
        log.extend([tup(i, 1.0, float(i), Side.R) for i in range(10)])
        log.trim(4)  # under half the rows: kept for now
        assert (log.base, log.size) == (0, 10)
        log.trim(6)
        assert (log.base, log.size, log.end) == (6, 4, 10)
        assert log.select(7, 0, 100.0)[0].tolist() == [7, 8, 9]
        assert log.delays(8)[0].tolist() == [8.0, 9.0]
        log.extend([tup(10, 1.0, 10.0, Side.S)])
        assert log.select(6, 0, 100.0)[0].tolist() == [6, 7, 8, 9, 10]


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),
            st.floats(min_value=-5, max_value=5),
            st.floats(min_value=0, max_value=9.99),
            st.booleans(),
        ),
        max_size=60,
    ),
    blocks=st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
)
def test_incremental_equals_batch_aggregate(rows, blocks):
    """A window view read back from the log, whatever the block sizes it was
    appended in, must agree exactly with the batch layer."""
    state = view((tup(k, v, e, Side.R if is_r else Side.S) for k, v, e, is_r in rows),
                 blocks=blocks)
    if rows:
        event = np.array([e for _, _, e, _ in rows])
        arrays = BatchArrays(
            event,
            event.copy(),
            np.array([k for k, _, _, _ in rows], dtype=np.int64),
            np.array([v for _, v, _, _ in rows]),
            np.array([r for _, _, _, r in rows], dtype=bool),
        )
        agg = arrays.aggregate(0.0, 10.0, None)
        assert state.n_r == agg.n_r
        assert state.n_s == agg.n_s
        assert state.matches == agg.matches
        assert state.sum_r == pytest.approx(agg.sum_r, abs=1e-9)


#: (window index, window length): window ``w`` is ``[w * length, (w + 1) *
#: length)``, the cell of the grid ``floor(event / length)`` assigns.  Both
#: bounds are exact here, so every tuple the floor puts in ``w`` lies in
#: the oracle's ``[start, end)``.
WINDOWS = st.sampled_from([(0, 10.0), (5, 7.0), (123, 10.0), (10, 2.5)])
#: Fractions of the window length: a few fixed ones make duplicate event
#: times common, and 1.0 lands on the (excluded) window end.
FRACTIONS = st.one_of(
    st.sampled_from([0.0, 0.1, 0.5, 0.999, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=-5, max_value=5),
            FRACTIONS,
            st.booleans(),
        ),
        st.tuples(st.just("flush")),
        st.tuples(st.just("extend"), st.integers(min_value=0, max_value=3)),
    ),
    max_size=80,
)


def assert_lockstep(state: WindowJoinState, oracle: SymmetricWindowState) -> None:
    assert (state.n_r, state.n_s) == (oracle.n_r, oracle.n_s)
    assert state.matches == oracle.matches
    assert state.sum_r == pytest.approx(oracle.sum_r, abs=1e-9)
    assert state.buckets == oracle.buckets
    assert state.selectivity == oracle.selectivity
    assert state.alpha_r == pytest.approx(oracle.alpha_r, abs=1e-9)
    assert state.value(AggKind.COUNT) == oracle.value(AggKind.COUNT)
    assert (state.start, state.end, state.length) == (oracle.start, oracle.end, oracle.length)


@settings(max_examples=150, deadline=None)
@given(window=WINDOWS, num_buckets=st.sampled_from([1, 3, 10]), ops=OPS)
def test_lockstep_with_symmetric_hash_oracle(window, num_buckets, ops):
    """Random sequences of tuples (in and out of the window), block flushes
    and what-if extensions keep the window view equal to the per-key
    symmetric-hash state, read after every step."""
    w, length = window
    start = w * length
    end = start + length
    log = small_log(1)
    pending: list[StreamTuple] = []
    oracle = SymmetricWindowState(start, end, num_buckets)

    def read() -> WindowJoinState:
        return WindowJoinState(start, end, num_buckets, *log.select(log.base, w, length))

    assert_lockstep(read(), oracle)
    for op in ops:
        if op[0] == "add":
            _, key, payload, frac, is_r = op
            t = tup(key, payload, start + frac * (end - start), Side.R if is_r else Side.S)
            pending.append(t)
            # The operators' window rule (events here are never below start).
            if math.floor(t.event_time / length) == w:
                oracle.add(t)
            continue
        log.extend(pending)
        pending = []
        if op[0] == "extend":
            extra = [tup(k, 1.5 * k, start + (k / 4) * (end - start), Side(k % 2))
                     for k in range(op[1] + 1)]
            what_if = oracle.clone()
            for t in extra:
                what_if.add(t)
            assert_lockstep(read().extended(extra), what_if)
        assert_lockstep(read(), oracle)
    log.extend(pending)
    assert_lockstep(read(), oracle)
