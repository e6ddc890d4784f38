"""Wall-clock spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` wraps public calls of the program (class methods, module
functions) for the length of one repetition and records one span per call:
name, start, end, parent span and repetition ("run") id.  Calls made once per
tuple are not spans: :meth:`Tracer.fold` keeps a count, a total and the raw
durations, from which a histogram is written.  Spans stay in memory; the
Chrome/Perfetto JSON is written once, at the end of the process.

A layer is the part of a span name before the first dot.  A span's self time
is its duration minus the durations of its direct children; calls are
synchronous on one thread, so children never overlap each other.
"""

from __future__ import annotations

import contextlib
import json
import math
from array import array
from time import perf_counter

import numpy as np

#: Layers of the program, in the order reports list them.  ``bench`` is the
#: benchmark's own loop (the timed section's root span).
LAYERS = ("streams", "joins", "core", "partitioned", "streaming", "serve", "obs", "bench")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        #: ``(name, start, end, parent index, run id)`` per span; ``None``
        #: while the span is open.
        self.spans: list[tuple | None] = []
        #: Folded per-call timings: ``(name, run id) -> (parent index, durations)``.
        self.folded: dict[tuple[str, int], tuple[int, array]] = {}
        self.run = 0
        self._stack: list[int] = []

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.run)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        sid = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(sid, name, start)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            sid = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)

        return traced

    def fold(self, name: str) -> array:
        """Duration buffer (seconds) for per-tuple calls under the open span."""
        parent = self._stack[-1] if self._stack else -1
        key = (name, self.run)
        entry = self.folded.get(key)
        if entry is None:
            entry = self.folded[key] = (parent, array("d"))
        return entry[1]

    # -- analysis ------------------------------------------------------------

    def run_spans(self, run: int) -> list[tuple]:
        """Closed spans of one repetition, with their global indices."""
        return [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] == run]

    def self_times(self, run: int, root: int) -> dict[str, float]:
        """Per-span-name self time (s) of the spans under ``root`` (inclusive).

        Folded per-tuple calls count as children of the span they were
        folded under.
        """
        inside = {root}
        spans = []
        for i, s in self.run_spans(run):
            if i == root or s[3] in inside:
                inside.add(i)
                spans.append((i, s))
        child = {i: 0.0 for i, _ in spans}
        for _, (_, start, end, parent, _) in spans:
            if parent in child:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, frun), (parent, durs) in self.folded.items():
            if frun == run and parent in child:
                child[parent] += sum(durs)
                out[name] = out.get(name, 0.0) + sum(durs)
        for i, (name, start, end, _, _) in spans:
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def durations(self, run: int, name: str) -> np.ndarray:
        """Durations (s) of every span or folded call called ``name``."""
        spans = [e - s for _, (n, s, e, _, _) in self.run_spans(run) if n == name]
        folded = self.folded.get((name, run))
        if folded is not None:
            spans.extend(folded[1])
        return np.asarray(spans, dtype=float)

    # -- export --------------------------------------------------------------

    def write_perfetto(self, path, runs: list[int]) -> None:
        """Write the given repetitions as Chrome/Perfetto trace JSON.

        The spans go through :class:`repro.obs.trace.TraceRecorder` on the
        ``perf_counter`` clock (ms since the first span), one trace process
        per repetition.  Folded per-tuple calls become one complete event
        (their summed duration, placed at the start of the parent span) with
        a log2 histogram in its args.
        """
        from repro.obs.trace import TraceRecorder

        rec = TraceRecorder()
        base = min((s[1] for s in self.spans if s is not None), default=0.0)
        for run in sorted(set(runs)):
            rec.set_group(f"repetition {run}")
            for i, span in self.run_spans(run):
                name, start, end, parent, _ = span
                rec.complete(name, (start - base) * 1e3, (end - start) * 1e3,
                             cat=name.split(".", 1)[0],
                             args={"span": i, "parent": parent, "run": run})
            for (name, frun), (parent, durs) in self.folded.items():
                if frun != run or parent < 0 or self.spans[parent] is None:
                    continue
                us = np.asarray(durs) * 1e6
                edges = 2.0 ** np.arange(-4, 21)
                hist, _ = np.histogram(us, bins=edges)
                rec.complete(
                    name + " (folded)", (self.spans[parent][1] - base) * 1e3, us.sum() / 1e3,
                    cat=name.split(".", 1)[0],
                    args={
                        "parent": parent,
                        "run": run,
                        "calls": int(len(us)),
                        "hist_us_upper_edges": [float(e) for e in edges[1:]],
                        "hist_counts": [int(c) for c in hist],
                    },
                )
        doc = rec.to_chrome()
        doc["otherData"]["clock"] = "perf_counter-ms"
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def maybe_span(tracer, name: str):
    """``tracer.span(name)``, or a no-op context when not tracing."""
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


@contextlib.contextmanager
def patched(targets):
    """Replace ``owner.attr`` by ``make(original)`` for each target, then restore.

    ``targets`` holds ``(owner, attr, make)`` triples; ``owner`` is a class or
    module.  Attributes a class inherits are restored by deleting the patch.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, own, value in reversed(saved):
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)


def tail_percentile(samples) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    Returns ``(q, value)`` with ``q`` in percent; ``(50, median)`` when fewer
    than twenty samples exist.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        return 0.0, 0.0
    q = max(50.0, math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0)
    return q, float(np.percentile(x, q))
