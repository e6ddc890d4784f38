"""Latency metrics.

Per the paper (Section 2.1): for every tuple contributing to an output
``O``, latency is ``l = tau_emit - tau_arrival`` and the headline number is
the 95th percentile ("95% l").  Percentiles follow the nearest-rank
convention so small samples behave predictably.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro import obs

__all__ = ["percentile", "p95", "LatencyTracker"]


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not samples:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def p95(samples: Sequence[float]) -> float:
    """The paper's headline "95% l" metric."""
    return percentile(samples, 95.0)


class LatencyTracker:
    """Accumulates per-tuple latency samples across windows.

    Join operators record, for every tuple that contributed to an emitted
    output, ``emit_time - arrival_time``.  The tracker aggregates those
    samples over a whole experiment run.

    A negative sample means a tuple was emitted before it arrived — a
    clock-skew or scheduling bug upstream.  Percentiles still clamp such
    samples to zero (so one bad clock cannot produce nonsense latency
    summaries), but each occurrence is counted in
    :attr:`negative_samples` and in the ``latency.negative_samples``
    metric so the bug is detectable instead of silently hidden.
    """

    def __init__(self):
        self._samples: list[float] = []
        #: Count of emit-before-arrival samples seen (clamped to 0 in the
        #: percentile data but never silently ignored).
        self.negative_samples = 0

    def _clamp(self, latency: float) -> float:
        if latency < 0.0:
            self.negative_samples += 1
            obs.counter("latency.negative_samples").inc()
            return 0.0
        return latency

    def record(self, emit_time: float, arrival_time: float) -> None:
        """Record one tuple's latency (clamped at zero, see above)."""
        self._samples.append(self._clamp(emit_time - arrival_time))

    def extend(self, samples: Iterable[float]) -> None:
        """Merge raw latency samples (e.g. from another tracker).

        One vectorised clamp instead of a :meth:`record` per sample: a
        window's latency batch is hundreds of samples.  NaN and ``-0.0``
        pass through unclamped, exactly as ``_clamp`` leaves them.
        """
        arr = np.asarray(
            samples if isinstance(samples, np.ndarray) else list(samples),
            dtype=float,
        )
        negative = arr < 0.0
        n_negative = int(np.count_nonzero(negative))
        if n_negative:
            self.negative_samples += n_negative
            obs.counter("latency.negative_samples").inc(n_negative)
            arr = np.where(negative, 0.0, arr)
        self._samples.extend(arr.tolist())

    @property
    def samples(self) -> Sequence[float]:
        """All recorded latency samples (ms), in insertion order."""
        return self._samples

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    def p95(self) -> float:
        """95th-percentile latency (ms)."""
        return p95(self._samples)

    def mean(self) -> float:
        """Mean latency (ms)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def max(self) -> float:
        """Maximum latency (ms)."""
        return max(self._samples) if self._samples else 0.0
