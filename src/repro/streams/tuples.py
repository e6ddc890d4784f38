"""Tuple and stream primitives for stream window joins.

The paper (Section 2.1) defines a tuple as ``y = (tau_event, kappa, v,
tau_arrival, tau_emit)``.  We carry the same fields here, with all times
expressed in **milliseconds** as floats on a single virtual time axis shared
by both streams.  ``tau_emit`` is not a property of the input tuple itself
(it is assigned when an output incorporating the tuple is released), so the
input-side tuple only stores the first four fields plus the stream it
belongs to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Side",
    "StreamTuple",
    "StreamBatch",
    "ColumnarStreamBatch",
    "by_arrival",
    "by_event",
]


class Side(enum.IntEnum):
    """Which input stream a tuple belongs to (R or S, Section 2.1)."""

    R = 0
    S = 1

    @property
    def other(self) -> "Side":
        """The opposite stream side."""
        return Side.S if self is Side.R else Side.R


@dataclass(frozen=True, slots=True)
class StreamTuple:
    """One element of an input stream.

    Attributes:
        key: Join key ``kappa``.
        payload: Numeric payload ``v`` (the quantity aggregated by SUM).
        event_time: ``tau_event`` — when the event occurred, in ms.
        arrival_time: ``tau_arrival`` — when the tuple reached the system,
            in ms.  ``arrival_time >= event_time`` always holds; the
            difference is the disorder delay ``delta``.
        side: Which stream (R or S) the tuple belongs to.
        seq: A per-stream sequence number, useful for deterministic
            tie-breaking and debugging.
    """

    key: int
    payload: float
    event_time: float
    arrival_time: float
    side: Side
    seq: int = 0

    @property
    def delay(self) -> float:
        """Disorder delay ``delta = tau_arrival - tau_event`` (ms)."""
        return self.arrival_time - self.event_time

    def with_arrival(self, arrival_time: float) -> "StreamTuple":
        """Return a copy with a different arrival time.

        Disorder injection uses this to re-stamp in-order tuples.
        """
        return StreamTuple(
            key=self.key,
            payload=self.payload,
            event_time=self.event_time,
            arrival_time=arrival_time,
            side=self.side,
            seq=self.seq,
        )


class StreamBatch:
    """A finite materialised stream segment.

    Experiments replay finite segments of the two infinite streams.  A
    ``StreamBatch`` owns a list of tuples and provides the orderings the
    operators need: event order (the "logical" order) and arrival order
    (the order the system actually sees).
    """

    def __init__(self, tuples: Iterable[StreamTuple]):
        self._tuples: list[StreamTuple] = list(tuples)

    @classmethod
    def from_columns(
        cls, event, arrival, key, payload, side, seq=None
    ) -> "ColumnarStreamBatch":
        """A batch backed by numpy columns, materialised only on access.

        The columnar ingest path generates streams as arrays; this view
        keeps the tuple-object API available to tests and examples
        without paying the per-tuple allocation up front.  ``side`` may
        be a single :class:`Side` or a boolean array (True = R).
        """
        return ColumnarStreamBatch(event, arrival, key, payload, side, seq)

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[StreamTuple]:
        return iter(self._tuples)

    def __getitem__(self, idx: int) -> StreamTuple:
        return self._tuples[idx]

    @property
    def tuples(self) -> Sequence[StreamTuple]:
        """The underlying tuples in insertion order."""
        return self._tuples

    def in_arrival_order(self) -> list[StreamTuple]:
        """Tuples sorted by arrival time — what the join operator sees."""
        return sorted(self._tuples, key=by_arrival)

    def side(self, side: Side) -> list[StreamTuple]:
        """All tuples belonging to one stream, in insertion order."""
        return [t for t in self._tuples if t.side is side]

    def max_delay(self) -> float:
        """The realised ``Delta = max(tau_arrival - tau_event)`` (ms)."""
        if not self._tuples:
            return 0.0
        return max(t.delay for t in self._tuples)


class ColumnarStreamBatch(StreamBatch):
    """A :class:`StreamBatch` view over numpy columns.

    Tuple objects are materialised lazily, once, on first access through
    any of the base-class methods; until then the batch costs five array
    references.  This is how the zero-object ingest path keeps the
    object API alive for tests and examples.
    """

    def __init__(self, event, arrival, key, payload, side, seq=None):
        n = len(event)
        if not (len(arrival) == len(key) == len(payload) == n):
            raise ValueError("columns must be aligned")
        self._event = event
        self._arrival = arrival
        self._key = key
        self._payload = payload
        self._side = side
        self._seq = seq
        self._materialised: list[StreamTuple] | None = None

    @property
    def materialised(self) -> bool:
        """Whether tuple objects have been built yet."""
        return self._materialised is not None

    def __len__(self) -> int:
        return len(self._event)

    @property
    def _tuples(self) -> list[StreamTuple]:
        if self._materialised is None:
            n = len(self._event)
            if isinstance(self._side, Side):
                sides = [self._side] * n
            else:
                sides = [Side.R if flag else Side.S for flag in self._side]
            seqs = range(n) if self._seq is None else self._seq
            self._materialised = [
                StreamTuple(
                    key=int(k),
                    payload=float(v),
                    event_time=float(t),
                    arrival_time=float(a),
                    side=side,
                    seq=int(i),
                )
                for t, a, k, v, side, i in zip(
                    self._event, self._arrival, self._key, self._payload, sides, seqs
                )
            ]
        return self._materialised


def by_arrival(t: StreamTuple) -> tuple[float, int, int]:
    """Sort key: arrival order with deterministic tie-breaking."""
    return (t.arrival_time, int(t.side), t.seq)


def by_event(t: StreamTuple) -> tuple[float, int, int]:
    """Sort key: event order with deterministic tie-breaking."""
    return (t.event_time, int(t.side), t.seq)
