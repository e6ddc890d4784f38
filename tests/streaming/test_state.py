"""Tests for the columnar window join state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.joins.arrays import AggKind, BatchArrays
from repro.streaming.state import WindowJoinState
from repro.streams.tuples import Side, StreamTuple
from tests.oracles.symmetric_state import SymmetricWindowState


def tup(key, payload, event, side):
    return StreamTuple(key, payload, event, event, side)


class TestIncrementalJoin:
    def test_matches_count_symmetric(self):
        state = WindowJoinState(0.0, 10.0)
        state.add(tup(1, 2.0, 1.0, Side.R))
        state.add(tup(1, 5.0, 2.0, Side.S))
        state.add(tup(1, 3.0, 3.0, Side.R))
        # 2 R x 1 S under key 1.
        assert state.matches == 2
        assert state.sum_r == pytest.approx(2.0 + 3.0)

    def test_order_independence(self):
        """The final aggregates must not depend on arrival order."""
        rows = [
            (1, 2.0, Side.R), (1, 5.0, Side.S), (2, 7.0, Side.R),
            (1, 3.0, Side.R), (2, 1.0, Side.S), (2, 1.0, Side.S),
        ]
        a = WindowJoinState(0.0, 10.0)
        b = WindowJoinState(0.0, 10.0)
        for i, (k, v, s) in enumerate(rows):
            a.add(tup(k, v, float(i % 9), s))
        for i, (k, v, s) in enumerate(reversed(rows)):
            b.add(tup(k, v, float(i % 9), s))
        assert a.matches == b.matches
        assert a.sum_r == pytest.approx(b.sum_r)

    def test_rejects_out_of_window_events(self):
        state = WindowJoinState(0.0, 10.0)
        with pytest.raises(ValueError):
            state.add(tup(1, 1.0, 10.0, Side.R))

    def test_bucket_assignment(self):
        state = WindowJoinState(0.0, 10.0, num_buckets=10)
        state.add(tup(1, 1.0, 0.5, Side.R))
        state.add(tup(1, 1.0, 9.99, Side.S))
        assert state.buckets[0] == [1, 0]
        assert state.buckets[9] == [0, 1]

    def test_value_dispatch(self):
        state = WindowJoinState(0.0, 10.0)
        state.add(tup(1, 4.0, 1.0, Side.R))
        state.add(tup(1, 0.0, 2.0, Side.S))
        assert state.value(AggKind.COUNT) == 1.0
        assert state.value(AggKind.SUM) == 4.0
        assert state.value(AggKind.AVG) == 4.0

    def test_clone_is_independent(self):
        state = WindowJoinState(0.0, 10.0)
        state.add(tup(1, 1.0, 1.0, Side.R))
        copy = state.clone()
        copy.add(tup(1, 1.0, 2.0, Side.S))
        assert copy.matches == 1
        assert state.matches == 0

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(ValueError):
            WindowJoinState(0.0, 10.0, num_buckets=0)

    def test_rejects_negative_keys_like_the_batch_layer(self):
        """A bincount fold cannot take a negative key: fail at ``add``, with
        the batch layer's wording, and leave the state untouched."""
        with pytest.raises(ValueError) as batch_err:
            BatchArrays(
                np.array([1.0]), np.array([1.0]), np.array([-3]),
                np.array([1.0]), np.array([True]),
            )
        state = WindowJoinState(0.0, 10.0)
        state.add(tup(2, 1.0, 1.0, Side.S))
        with pytest.raises(ValueError, match="non-negative") as state_err:
            state.add(tup(-3, 1.0, 1.0, Side.R))
        assert str(state_err.value) == str(batch_err.value)
        state.add(tup(2, 4.0, 2.0, Side.R))
        assert (state.n_r, state.n_s, state.matches, state.sum_r) == (1, 1, 1.0, 4.0)

    def test_length_and_contains(self):
        state = WindowJoinState(20.0, 30.0)
        assert state.length == 10.0
        assert state.contains(20.0) and state.contains(29.5)
        assert not state.contains(30.0) and not state.contains(19.9)


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
    )
)
def test_incremental_equals_batch_aggregate(rows):
    """The streaming state must agree exactly with the batch layer."""
    from repro.joins.arrays import BatchArrays

    state = WindowJoinState(0.0, 10.0)
    for k, v, e, is_r in rows:
        state.add(tup(k, v, e, Side.R if is_r else Side.S))
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


WINDOWS = st.sampled_from([(0.0, 10.0), (30.0, 37.0), (1234.5, 1244.5)])
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
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=-5, max_value=5),
            FRACTIONS,
            st.booleans(),
        ),
        st.tuples(st.just("clone"), st.integers(min_value=0, max_value=5)),
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
    """Random add/clone sequences keep the columnar state equal to the
    per-key symmetric-hash state it replaced, read after every step (so
    cached folds must be invalidated by each append)."""
    start, end = window
    pairs = [(WindowJoinState(start, end, num_buckets), SymmetricWindowState(start, end, num_buckets))]
    assert_lockstep(*pairs[0])
    for op in ops:
        target = op[1] % len(pairs)
        state, oracle = pairs[target]
        if op[0] == "clone":
            pairs.append((state.clone(), oracle.clone()))
            state, oracle = pairs[-1]
        else:
            _, _, key, payload, frac, is_r = op
            t = tup(key, payload, start + frac * (end - start), Side.R if is_r else Side.S)
            if oracle.contains(t.event_time):
                state.add(t)
                oracle.add(t)
            else:
                with pytest.raises(ValueError, match="outside window"):
                    state.add(t)
        assert_lockstep(state, oracle)
    for state, oracle in pairs:
        assert_lockstep(state, oracle)
