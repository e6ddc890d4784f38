"""A real k-slack reordering buffer (heap-based).

The batch layer models KSJ's buffer through its *cost*; this is the
buffer itself, as the KSJ baseline [18] describes it: arriving tuples
enter a min-heap ordered by event time and a tuple is released once the
stream's progress guarantees nothing older can still arrive — i.e. when
the maximum event time seen so far exceeds the tuple's event time plus
the slack ``K``.  Output is therefore sorted by event time whenever the
true disorder stays within ``K``; tuples arriving later than that bound
are *asynchronous* (the paper's term) and are released immediately,
out of order.
"""

from __future__ import annotations

import heapq
import itertools

from repro import obs
from repro.obs import trace
from repro.streams.tuples import StreamTuple

__all__ = ["KSlackBuffer"]


class KSlackBuffer:
    """Min-heap k-slack reorder buffer.

    Args:
        slack: ``K`` in ms — how much event-time disorder the buffer
            absorbs.  Larger K reorders more but holds tuples longer.
    """

    def __init__(self, slack: float):
        if slack < 0:
            raise ValueError("slack must be non-negative")
        self.slack = slack
        self._heap: list[tuple[float, int, StreamTuple]] = []
        self._tie = itertools.count()
        self._watermark = -float("inf")  # max event time seen
        self.asynchronous_releases = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def watermark(self) -> float:
        """Maximum event time observed so far."""
        return self._watermark

    def push(self, t: StreamTuple) -> list[StreamTuple]:
        """Insert one tuple; return every tuple this releases, in order.

        A tuple older than the watermark minus the slack would have been
        released already — it is *asynchronous* and passes straight
        through (counted in :attr:`asynchronous_releases`).
        """
        if t.event_time <= self._watermark - self.slack:
            self.asynchronous_releases += 1
            obs.counter("kslack.asynchronous_releases").inc()
            if trace.is_tracing():
                trace.instant(
                    "kslack.async_release", t.arrival_time,
                    cat="buffer", track="kslack",
                    args={
                        "event_time": float(t.event_time),
                        "watermark": float(self._watermark),
                        "slack": float(self.slack),
                    },
                )
            return [t]
        self._watermark = max(self._watermark, t.event_time)
        heapq.heappush(self._heap, (t.event_time, next(self._tie), t))
        return self._drain_ready()

    def set_slack(self, slack: float) -> list[StreamTuple]:
        """Retune ``K`` mid-stream; return any tuples the change releases.

        Growing the slack simply holds future tuples longer.  Shrinking
        it moves the release bound forward, so tuples already buffered
        may become ready *immediately* — they are drained and returned
        here rather than sitting until the next push (which might never
        come on a stalled stream).
        """
        if slack < 0:
            raise ValueError("slack must be non-negative")
        old, self.slack = self.slack, slack
        obs.counter("kslack.slack_changes").inc()
        if trace.is_tracing():
            trace.instant(
                "kslack.set_slack", max(self._watermark, 0.0),
                cat="buffer", track="kslack",
                args={"old": float(old), "new": float(slack)},
            )
        if slack < old:
            return self._drain_ready()
        return []

    def _drain_ready(self) -> list[StreamTuple]:
        released: list[StreamTuple] = []
        bound = self._watermark - self.slack
        while self._heap and self._heap[0][0] <= bound:
            released.append(heapq.heappop(self._heap)[2])
        if released and trace.is_tracing():
            trace.instant(
                "kslack.release", self._watermark,
                cat="buffer", track="kslack",
                args={"count": len(released), "buffered": len(self._heap)},
            )
        return released

    def flush(self) -> list[StreamTuple]:
        """Release everything still buffered (end of stream)."""
        out = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
        return out

    def peek_range(self, start: float, end: float) -> list[StreamTuple]:
        """Buffered tuples with event time in ``[start, end)``, unreleased.

        An emitting join consults the buffer for in-window tuples that
        have arrived but are still being reordered.
        """
        return [t for _, _, t in self._heap if start <= t.event_time < end]
