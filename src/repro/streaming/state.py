"""Append-only columnar window state for the push-based operators.

A push operator sees one tuple at a time, but reads a window's aggregates
only a handful of times: at its emission cutoff, when k-slack peeks at its
reorder buffer, and at finalization.  ``WindowJoinState`` is therefore an
append-only buffer: :meth:`~WindowJoinState.add` checks the tuple's bounds
and key and appends its key, payload, side code (``Side.R`` = 0,
``Side.S`` = 1) and event time to typed ``array.array`` columns.  The
aggregates the compensation formulas need — ``n_R``, ``n_S``, matches and
the joined-R payload sum — are folded from the columns on first read by
the batch layer's per-key count kernel
(:func:`repro.joins.arrays.aggregate_of`), and PECJ's per-bucket counts by
one more ``bincount``.  Both folds are cached until the next append.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.joins.arrays import AggKind, WindowAggregate, aggregate_of, negative_key_error
from repro.streams.tuples import Side, StreamTuple

__all__ = ["WindowJoinState"]


def _folded(name: str, doc: str) -> property:
    """A read-only view of one field of the cached :attr:`aggregate`."""
    return property(lambda self: getattr(self.aggregate, name), doc=doc)


class WindowJoinState:
    """Tuples of one window, kept as columns and folded on demand.

    Args:
        start, end: The window's event-time bounds ``[start, end)``.
        num_buckets: Sub-intervals of :attr:`buckets` (what PECJ's rate
            estimation consumes).
    """

    __slots__ = (
        "start", "end", "num_buckets",
        "_key", "_payload", "_side", "_event", "_aggregate", "_buckets",
    )

    def __init__(self, start: float, end: float, num_buckets: int = 10):
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.start = start
        self.end = end
        self.num_buckets = num_buckets
        self._key = array("q")
        self._payload = array("d")
        self._side = array("b")
        self._event = array("d")
        self._aggregate: WindowAggregate | None = None
        self._buckets: list[list[int]] | None = None

    @property
    def length(self) -> float:
        """The window's event-time length ``end - start`` in ms."""
        return self.end - self.start

    def contains(self, event_time: float) -> bool:
        """Whether ``event_time`` falls inside ``[start, end)``."""
        return self.start <= event_time < self.end

    def add(self, t: StreamTuple) -> None:
        """Append one tuple (its event time must lie in this window)."""
        event = t.event_time
        if not self.start <= event < self.end:
            raise ValueError(f"event {event} outside window [{self.start}, {self.end})")
        key = t.key
        if key < 0:
            raise negative_key_error(key)
        self._key.append(key)
        self._payload.append(t.payload)
        self._side.append(t.side)
        self._event.append(event)
        self._aggregate = self._buckets = None

    @property
    def aggregate(self) -> WindowAggregate:
        """Join aggregates of every tuple added so far (cached fold)."""
        agg = self._aggregate
        if agg is None:
            keys = np.array(self._key, dtype=np.int64)
            num_keys = int(keys.max()) + 1 if len(keys) else 1
            is_r = np.array(self._side, dtype=np.int8) == Side.R
            agg = self._aggregate = aggregate_of(keys, is_r, np.array(self._payload), num_keys)
        return agg

    @property
    def buckets(self) -> list[list[int]]:
        """Per-sub-interval ``[cnt_r, cnt_s]`` counts (cached fold)."""
        if self._buckets is None:
            nb = self.num_buckets
            event = np.array(self._event)
            bucket = np.minimum(((event - self.start) / self.length * nb).astype(np.int64), nb - 1)
            side = np.array(self._side, dtype=np.int64)
            self._buckets = np.bincount(2 * bucket + side, minlength=2 * nb).reshape(nb, 2).tolist()
        return self._buckets

    n_r = _folded("n_r", "R tuples in the window.")
    n_s = _folded("n_s", "S tuples in the window.")
    matches = _folded("matches", "Joined pairs (the COUNT output).")
    sum_r = _folded("sum_r", "Sum of joined R payloads (the SUM output).")
    selectivity = _folded("selectivity", "Empirical join selectivity ``sigma``.")
    alpha_r = _folded("alpha_r", "Average payload of joined R tuples.")

    def value(self, agg: AggKind) -> float:
        """The (uncompensated) join output over the added tuples."""
        return self.aggregate.value(agg)

    def clone(self) -> "WindowJoinState":
        """Independent copy for what-if evaluation (emission peeks)."""
        other = WindowJoinState(self.start, self.end, self.num_buckets)
        other._key = self._key[:]
        other._payload = self._payload[:]
        other._side = self._side[:]
        other._event = self._event[:]
        other._aggregate = self._aggregate
        return other
