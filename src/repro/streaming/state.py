"""Columnar tuple log and window views for the push-based operators.

A push operator sees one tuple at a time, but reads a window's aggregates
only a handful of times: at its emission cutoff, when k-slack peeks at its
reorder buffer, and at finalization.  It therefore keeps every accepted
tuple once, in an :class:`ArrivalLog`: growable numpy columns of key,
payload, side code (``Side.R`` = 0, ``Side.S`` = 1), event and arrival
time, in ingest order, filled a block of pushed tuples at a time.
:class:`WindowJoinState` is the read side: one window's columns, masked
out of the log by the window index ``floor(event / |W|)`` that push
assigns, so they keep their ingest order.  The
aggregates the compensation formulas need — ``n_R``, ``n_S``, matches and
the joined-R payload sum — are folded from those columns on first read by
the batch layer's per-key count kernel
(:func:`repro.joins.arrays.aggregate_of`), and PECJ's per-bucket counts by
one more ``bincount``.
"""

from __future__ import annotations

from array import array
from typing import Sequence

import numpy as np

from repro.joins.arrays import AggKind, WindowAggregate, aggregate_of
from repro.streams.tuples import Side, StreamTuple

__all__ = ["ArrivalLog", "WindowJoinState"]

# Rows an ArrivalLog holds before its columns first grow.
_CAPACITY = 1024

_COLUMNS = (("key", np.int64), ("payload", float), ("side", np.int8),
            ("event", float), ("arrival", float))


class ArrivalLog:
    """Accepted tuples in ingest order, as growable numpy columns.

    Row indexes are absolute: :meth:`trim` drops a prefix and advances
    :attr:`base` instead of renumbering, so an index taken before a trim
    stays valid as long as its row is kept.
    """

    __slots__ = ("base", "size") + tuple(name for name, _ in _COLUMNS)

    def __init__(self):
        self.base = 0
        self.size = 0
        for name, dtype in _COLUMNS:
            setattr(self, name, np.empty(_CAPACITY, dtype))

    @property
    def end(self) -> int:
        """Absolute index the next appended row gets."""
        return self.base + self.size

    def extend(self, block: Sequence[StreamTuple]) -> None:
        """Append ``block`` (one column conversion per field; keys go
        through ``array("q")`` so a non-integer key raises rather than
        being truncated)."""
        lo = self.size
        hi = lo + len(block)
        if hi > len(self.key):
            for name, _ in _COLUMNS:
                col = getattr(self, name)
                grown = np.empty(max(hi, 2 * len(col)), col.dtype)
                grown[:lo] = col[:lo]
                setattr(self, name, grown)
        self.key[lo:hi] = np.frombuffer(array("q", [t.key for t in block]), np.int64)
        self.payload[lo:hi] = [t.payload for t in block]
        self.side[lo:hi] = np.frombuffer(bytes([t.side for t in block]), np.int8)
        self.event[lo:hi] = [t.event_time for t in block]
        self.arrival[lo:hi] = [t.arrival_time for t in block]
        self.size = hi

    def trim(self, keep: int) -> None:
        """Drop the rows below absolute index ``keep``, once they are at
        least half the log (so the memmove stays amortised)."""
        drop = keep - self.base
        if drop <= 0 or 2 * drop < self.size:
            return
        kept = self.size - drop
        for name, _ in _COLUMNS:
            col = getattr(self, name)
            col[:kept] = col[drop:self.size]
        self.base = keep
        self.size = kept

    def delays(self, lo: int) -> tuple[np.ndarray, np.ndarray]:
        """Event times and clamped delays ``max(arrival - event, 0)`` of the
        rows from absolute index ``lo``."""
        event = self.event[lo - self.base:self.size]
        return event, np.maximum(self.arrival[lo - self.base:self.size] - event, 0.0)

    def select(self, lo: int, window: int, length: float) -> tuple[np.ndarray, ...]:
        """Copies of the key, payload, side and event columns of the rows
        from absolute index ``lo`` in window ``floor(event / length) ==
        window`` (the floor push assigns windows by), in log order."""
        lo -= self.base
        event = self.event[lo:self.size]
        # Index gathers: a boolean mask per column costs ~4x more here.
        rows = np.flatnonzero(np.floor(event / length) == window) + lo
        return self.key.take(rows), self.payload.take(rows), self.side.take(rows), self.event.take(rows)


def _folded(name: str, doc: str) -> property:
    """A read-only view of one field of the cached :attr:`aggregate`."""
    return property(lambda self: getattr(self.aggregate, name), doc=doc)


_EMPTY = np.empty(0)


class WindowJoinState:
    """One window's tuples as columns, folded on demand.

    Args:
        start, end: The window's event-time bounds ``[start, end)``.
        num_buckets: Sub-intervals of :attr:`buckets` (what PECJ's rate
            estimation consumes).
        key, payload, side, event: The window's columns, in ingest order
            (``side`` holds ``Side`` codes); omitted, the window is empty.
    """

    __slots__ = (
        "start", "end", "num_buckets",
        "key", "payload", "side", "event", "_aggregate", "_buckets",
    )

    def __init__(self, start: float, end: float, num_buckets: int = 10,
                 key=_EMPTY, payload=_EMPTY, side=_EMPTY, event=_EMPTY):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.start = start
        self.end = end
        self.num_buckets = num_buckets
        self.key = np.asarray(key, dtype=np.int64)
        self.payload = np.asarray(payload, dtype=float)
        self.side = np.asarray(side, dtype=np.int8)
        self.event = np.asarray(event, dtype=float)
        self._aggregate: WindowAggregate | None = None
        self._buckets: list[list[int]] | None = None

    @property
    def length(self) -> float:
        """The window's event-time length ``end - start`` in ms."""
        return self.end - self.start

    def contains(self, event_time: float) -> bool:
        """Whether ``event_time`` falls inside ``[start, end)``."""
        return self.start <= event_time < self.end

    def extended(self, tuples: Sequence[StreamTuple]) -> "WindowJoinState":
        """A new view: these columns followed by ``tuples`` (what-if
        evaluation, e.g. k-slack's emission peek)."""
        return WindowJoinState(
            self.start, self.end, self.num_buckets,
            np.concatenate([self.key, [t.key for t in tuples]]),
            np.concatenate([self.payload, [t.payload for t in tuples]]),
            np.concatenate([self.side, [t.side for t in tuples]]),
            np.concatenate([self.event, [t.event_time for t in tuples]]),
        )

    @property
    def aggregate(self) -> WindowAggregate:
        """Join aggregates of the window's tuples (cached fold)."""
        agg = self._aggregate
        if agg is None:
            keys = self.key
            num_keys = int(keys.max()) + 1 if len(keys) else 1
            agg = self._aggregate = aggregate_of(keys, self.side == Side.R, self.payload, num_keys)
        return agg

    @property
    def buckets(self) -> list[list[int]]:
        """Per-sub-interval ``[cnt_r, cnt_s]`` counts (cached fold)."""
        if self._buckets is None:
            nb = self.num_buckets
            bucket = np.minimum(((self.event - self.start) / self.length * nb).astype(np.int64), nb - 1)
            side = self.side.astype(np.int64)
            self._buckets = np.bincount(2 * bucket + side, minlength=2 * nb).reshape(nb, 2).tolist()
        return self._buckets

    n_r = _folded("n_r", "R tuples in the window.")
    n_s = _folded("n_s", "S tuples in the window.")
    matches = _folded("matches", "Joined pairs (the COUNT output).")
    sum_r = _folded("sum_r", "Sum of joined R payloads (the SUM output).")
    selectivity = _folded("selectivity", "Empirical join selectivity ``sigma``.")
    alpha_r = _folded("alpha_r", "Average payload of joined R tuples.")

    def value(self, agg: AggKind) -> float:
        """The (uncompensated) join output over the window's tuples."""
        return self.aggregate.value(agg)
