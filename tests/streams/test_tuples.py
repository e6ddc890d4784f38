"""Tests for the tuple/stream primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.streams.tuples import Side, StreamBatch, StreamTuple, by_arrival, by_event


def make_tuple(event=0.0, arrival=None, key=1, payload=1.0, side=Side.R, seq=0):
    return StreamTuple(
        key=key,
        payload=payload,
        event_time=event,
        arrival_time=event if arrival is None else arrival,
        side=side,
        seq=seq,
    )


class TestSide:
    def test_other_flips(self):
        assert Side.R.other is Side.S
        assert Side.S.other is Side.R

    def test_int_values_are_stable(self):
        assert int(Side.R) == 0
        assert int(Side.S) == 1


class TestStreamTuple:
    def test_delay_is_arrival_minus_event(self):
        t = make_tuple(event=3.0, arrival=7.5)
        assert t.delay == pytest.approx(4.5)

    def test_with_arrival_restamps_only_arrival(self):
        t = make_tuple(event=3.0, arrival=3.0, key=9, payload=2.5, seq=4)
        t2 = t.with_arrival(8.0)
        assert t2.arrival_time == 8.0
        assert (t2.key, t2.payload, t2.event_time, t2.side, t2.seq) == (
            9,
            2.5,
            3.0,
            Side.R,
            4,
        )

    def test_tuples_are_immutable(self):
        t = make_tuple()
        with pytest.raises(AttributeError):
            t.key = 5


class TestStreamBatch:
    def test_len_and_iteration(self):
        ts = [make_tuple(seq=i) for i in range(5)]
        batch = StreamBatch(ts)
        assert len(batch) == 5
        assert list(batch) == ts

    def test_event_order_vs_arrival_order_differ_under_disorder(self):
        early_late = make_tuple(event=1.0, arrival=10.0, seq=0)
        late_early = make_tuple(event=2.0, arrival=3.0, seq=1)
        batch = StreamBatch([early_late, late_early])
        assert sorted(batch, key=by_event) == [early_late, late_early]
        assert batch.in_arrival_order() == [late_early, early_late]

    def test_side_filter(self):
        r = make_tuple(side=Side.R)
        s = make_tuple(side=Side.S)
        batch = StreamBatch([r, s, r])
        assert batch.side(Side.R) == [r, r]
        assert batch.side(Side.S) == [s]

    def test_max_delay(self):
        batch = StreamBatch(
            [make_tuple(event=0, arrival=2), make_tuple(event=1, arrival=6)]
        )
        assert batch.max_delay() == pytest.approx(5.0)

    def test_max_delay_empty(self):
        assert StreamBatch([]).max_delay() == 0.0

    def test_empty_batch_orderings_and_sides(self):
        empty = StreamBatch([])
        assert empty.in_arrival_order() == []
        assert empty.side(Side.R) == []

class TestColumnarStreamBatch:
    def _columns(self):
        import numpy as np

        event = np.array([1.0, 3.0, 2.0])
        arrival = np.array([1.5, 3.25, 4.0])
        key = np.array([4, 5, 6])
        payload = np.array([0.5, 1.5, 2.5])
        return event, arrival, key, payload

    def test_lazy_until_accessed(self):
        event, arrival, key, payload = self._columns()
        batch = StreamBatch.from_columns(event, arrival, key, payload, Side.R)
        assert not batch.materialised
        assert len(batch) == 3  # len() reads the column, still no tuples
        assert not batch.materialised
        _ = batch[0]
        assert batch.materialised

    def test_matches_eager_batch(self):
        event, arrival, key, payload = self._columns()
        lazy = StreamBatch.from_columns(event, arrival, key, payload, Side.S)
        eager = StreamBatch(
            [
                StreamTuple(int(k), float(v), float(t), float(a), Side.S, i)
                for i, (t, a, k, v) in enumerate(zip(event, arrival, key, payload))
            ]
        )
        assert list(lazy) == list(eager)
        assert lazy.in_arrival_order() == eager.in_arrival_order()
        assert lazy.max_delay() == eager.max_delay()

    def test_side_flags_array(self):
        import numpy as np

        event, arrival, key, payload = self._columns()
        is_r = np.array([True, False, True])
        batch = StreamBatch.from_columns(event, arrival, key, payload, is_r)
        assert [t.side for t in batch] == [Side.R, Side.S, Side.R]

    def test_misaligned_columns_rejected(self):
        import numpy as np

        with pytest.raises(ValueError, match="aligned"):
            StreamBatch.from_columns(
                np.array([1.0, 2.0]),
                np.array([1.0]),
                np.array([0, 0]),
                np.array([1.0, 1.0]),
                Side.R,
            )

    def test_empty_columns(self):
        import numpy as np

        empty = np.array([])
        batch = StreamBatch.from_columns(
            empty, empty, empty.astype(int), empty, Side.R
        )
        assert len(batch) == 0
        assert batch.in_arrival_order() == []
        assert batch.max_delay() == 0.0


@given(
    events=st.lists(
        st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    ),
    delays=st.lists(
        st.floats(min_value=0, max_value=1e4, allow_nan=False), min_size=1, max_size=50
    ),
)
def test_orderings_are_total_and_stable(events, delays):
    """Property: sorting by the provided keys yields monotone sequences."""
    n = min(len(events), len(delays))
    batch = StreamBatch(
        [
            make_tuple(event=e, arrival=e + d, seq=i)
            for i, (e, d) in enumerate(zip(events[:n], delays[:n]))
        ]
    )
    ev = sorted(batch, key=by_event)
    ar = batch.in_arrival_order()
    assert all(by_event(a) <= by_event(b) for a, b in zip(ev, ev[1:]))
    assert all(by_arrival(a) <= by_arrival(b) for a, b in zip(ar, ar[1:]))
    assert sorted(t.seq for t in ev) == sorted(t.seq for t in ar)
