"""Window definitions and assigners.

The paper evaluates the *intra-window join* over tumbling windows
(Section 2.1): a window is a time range ``W = [t1, t2)`` and a tuple belongs
to it iff its event time falls inside the range.  PECJ "can be readily
adapted for other types of SWJ", so we also provide sliding-window and
interval assigners; the tumbling assigner is what the benchmarks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.streams.tuples import StreamTuple

__all__ = [
    "Window",
    "WindowAssigner",
    "TumblingWindows",
    "SlidingWindows",
    "IntervalWindows",
]


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open event-time range ``[start, end)`` in milliseconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise ValueError(f"window end must exceed start: [{self.start}, {self.end})")

    @property
    def length(self) -> float:
        """``|W|`` — the window length in ms."""
        return self.end - self.start

    def contains(self, t: StreamTuple) -> bool:
        """Whether the tuple's *event time* falls in this window."""
        return self.start <= t.event_time < self.end

    def select(self, tuples: Iterable[StreamTuple]) -> list[StreamTuple]:
        """All tuples from ``tuples`` whose event time is in this window."""
        return [t for t in tuples if self.contains(t)]


class WindowAssigner:
    """Maps event times to the windows they belong to."""

    def assign(self, event_time: float) -> list[Window]:
        """The windows that an event at ``event_time`` belongs to."""
        raise NotImplementedError

    def windows_covering(self, start: float, end: float) -> list[Window]:
        """All windows overlapping the event-time range ``[start, end)``."""
        raise NotImplementedError


class TumblingWindows(WindowAssigner):
    """Non-overlapping fixed-length windows aligned at ``origin``.

    This is the window type used by the paper's queries Q1-Q3 (e.g.
    ``|W| = 10ms``).
    """

    def __init__(self, length: float, origin: float = 0.0):
        if length <= 0:
            raise ValueError("window length must be positive")
        self.length = float(length)
        self.origin = float(origin)

    def window_index(self, event_time: float) -> int:
        """Index of the window containing ``event_time``."""
        return math.floor((event_time - self.origin) / self.length)

    def window_at(self, index: int) -> Window:
        """The window with a given index."""
        start = self.origin + index * self.length
        return Window(start, start + self.length)

    def assign(self, event_time: float) -> list[Window]:
        """The single tumbling window containing ``event_time``."""
        return [self.window_at(self.window_index(event_time))]

    def windows_covering(self, start: float, end: float) -> list[Window]:
        """Tumbling windows overlapping ``[start, end)``."""
        if end <= start:
            return []
        first = self.window_index(start)
        # The half-open range means an event exactly at `end` is excluded.
        last = self.window_index(end - 1e-12)
        return [self.window_at(i) for i in range(first, last + 1)]

class SlidingWindows(WindowAssigner):
    """Overlapping windows of fixed ``length`` advancing by ``slide``."""

    def __init__(self, length: float, slide: float, origin: float = 0.0):
        if length <= 0 or slide <= 0:
            raise ValueError("length and slide must be positive")
        if slide > length:
            raise ValueError("slide must not exceed length (use tumbling windows)")
        self.length = float(length)
        self.slide = float(slide)
        self.origin = float(origin)

    def assign(self, event_time: float) -> list[Window]:
        """Every sliding window containing ``event_time``."""
        rel = event_time - self.origin
        last_start_idx = math.floor(rel / self.slide)
        first_start_idx = math.floor((rel - self.length) / self.slide) + 1
        out = []
        for i in range(first_start_idx, last_start_idx + 1):
            start = self.origin + i * self.slide
            if start <= event_time < start + self.length:
                out.append(Window(start, start + self.length))
        return out

    def windows_covering(self, start: float, end: float) -> list[Window]:
        """Sliding windows overlapping ``[start, end)``."""
        if end <= start:
            return []
        seen: dict[float, Window] = {}
        first = math.floor((start - self.length - self.origin) / self.slide)
        last = math.floor((end - self.origin) / self.slide)
        for i in range(first, last + 1):
            ws = self.origin + i * self.slide
            w = Window(ws, ws + self.length)
            if w.end > start and w.start < end:
                seen[w.start] = w
        return [seen[k] for k in sorted(seen)]


class IntervalWindows(WindowAssigner):
    """Per-event interval windows ``[event - before, event + after)``.

    Models the online interval join of OpenMLDB-style feature extraction
    (paper reference [42]); each event anchors its own window.
    """

    def __init__(self, before: float, after: float):
        if before < 0 or after < 0 or (before == 0 and after == 0):
            raise ValueError("interval must have positive extent")
        self.before = float(before)
        self.after = float(after)

    def assign(self, event_time: float) -> list[Window]:
        """Per-tuple interval window centred on ``event_time``."""
        return [Window(event_time - self.before, event_time + self.after)]

    def windows_covering(self, start: float, end: float) -> list[Window]:
        # Interval windows are anchored per event; a covering enumeration is
        # unbounded, so expose the single interval spanning the range.
        """Interval windows overlapping ``[start, end)``."""
        return [Window(start - self.before, end + self.after)]
