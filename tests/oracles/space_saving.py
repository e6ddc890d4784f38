"""Scan-based space-saving sketch: the reference for the heap-indexed one.

:class:`repro.joins.partitioned.SpaceSavingSketch` used to pick its
eviction victim with ``min(counts, key=counts.__getitem__)`` over every
counter.  Dict order is insertion order (an increment keeps a key's place,
an eviction re-inserts the new key at the end), so the rule it implements
is: the minimum count loses, and among equal counts the earliest-inserted
counter loses.  The heap-indexed sketch must pick the same victim; the
differential tests drive both with the same operation sequences, and the
operator-level identity test swaps this class into ``PartitionMap``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ScanSpaceSavingSketch"]


class ScanSpaceSavingSketch:
    """Space-saving heavy-hitter sketch with an ``O(capacity)`` victim scan."""

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._counts: dict[int, float] = {}
        self._errors: dict[int, float] = {}
        self.total = 0.0

    def offer(self, key: int, weight: float = 1.0) -> None:
        self.total += weight
        counts = self._counts
        if key in counts:
            counts[key] += weight
            return
        if len(counts) < self.capacity:
            counts[key] = weight
            self._errors[key] = 0.0
            return
        victim = min(counts, key=counts.__getitem__)
        floor = counts.pop(victim)
        self._errors.pop(victim)
        counts[key] = floor + weight
        self._errors[key] = floor

    def offer_batch(self, keys: np.ndarray) -> None:
        if len(keys) == 0:
            return
        uniq, cnt = np.unique(keys, return_counts=True)
        for k, c in zip(uniq.tolist(), cnt.tolist()):
            self.offer(int(k), float(c))

    def decay(self, factor: float) -> None:
        if not 0.0 < factor <= 1.0:
            raise ValueError("decay factor must be in (0, 1]")
        if factor == 1.0:
            return
        for k in self._counts:
            self._counts[k] *= factor
            self._errors[k] *= factor
        self.total *= factor

    def estimate(self, key: int) -> tuple[float, float]:
        return self._counts.get(key, 0.0), self._errors.get(key, 0.0)

    def top(self, k: int) -> list[tuple[int, float, float]]:
        items = sorted(
            self._counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[: max(k, 0)]
        return [(key, cnt, self._errors[key]) for key, cnt in items]

    def __len__(self) -> int:
        return len(self._counts)
