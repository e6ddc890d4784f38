"""Per-key symmetric-hash window state: the reference for the columnar one.

Before :class:`repro.streaming.state.WindowJoinState` became an
append-only columnar buffer folded on demand, the push operators kept this
structure: a per-key symmetric hash table from which every aggregate the
compensation formulas need falls out in O(1) per arriving tuple:

* an arriving R tuple with key ``k`` joins the ``cnt_S[k]`` S tuples
  already present — matches grow by ``cnt_S[k]`` and the joined-R payload
  sum by ``v * cnt_S[k]``;
* an arriving S tuple joins the ``cnt_R[k]`` R tuples present — matches
  grow by ``cnt_R[k]`` and the payload sum by ``sum_Rv[k]`` (every
  present R tuple gains one more join partner).

It survives only as a test oracle: the lockstep property suite drives it
and the columnar state with the same ``add`` sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.joins.arrays import AggKind
from repro.streams.tuples import Side, StreamTuple

__all__ = ["SymmetricWindowState"]


@dataclass
class _KeyEntry:
    """Symmetric hash-table entry for one join key."""

    cnt_r: int = 0
    cnt_s: int = 0
    sum_rv: float = 0.0


@dataclass
class SymmetricWindowState:
    """Incrementally maintained join aggregates of one window."""

    start: float
    end: float
    num_buckets: int = 10
    _keys: dict[int, _KeyEntry] = field(default_factory=dict)
    n_r: int = 0
    n_s: int = 0
    matches: float = 0.0
    sum_r: float = 0.0
    buckets: list[list[int]] = field(init=False)

    def __post_init__(self) -> None:
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        self.buckets = [[0, 0] for _ in range(self.num_buckets)]

    @property
    def length(self) -> float:
        return self.end - self.start

    def contains(self, event_time: float) -> bool:
        return self.start <= event_time < self.end

    def add(self, t: StreamTuple) -> None:
        if not self.contains(t.event_time):
            raise ValueError(
                f"event {t.event_time} outside window [{self.start}, {self.end})"
            )
        entry = self._keys.get(t.key)
        if entry is None:
            entry = self._keys[t.key] = _KeyEntry()
        if t.side is Side.R:
            self.n_r += 1
            self.matches += entry.cnt_s
            self.sum_r += t.payload * entry.cnt_s
            entry.cnt_r += 1
            entry.sum_rv += t.payload
        else:
            self.n_s += 1
            self.matches += entry.cnt_r
            self.sum_r += entry.sum_rv
            entry.cnt_s += 1
        bucket = min(
            int((t.event_time - self.start) / self.length * self.num_buckets),
            self.num_buckets - 1,
        )
        self.buckets[bucket][0 if t.side is Side.R else 1] += 1

    @property
    def selectivity(self) -> float:
        denom = self.n_r * self.n_s
        return self.matches / denom if denom > 0 else 0.0

    @property
    def alpha_r(self) -> float:
        return self.sum_r / self.matches if self.matches > 0 else 0.0

    def value(self, agg: AggKind) -> float:
        if agg is AggKind.COUNT:
            return float(self.matches)
        if agg is AggKind.SUM:
            return float(self.sum_r)
        if agg is AggKind.AVG:
            return self.alpha_r
        raise ValueError(f"unknown aggregation {agg!r}")

    def clone(self) -> "SymmetricWindowState":
        other = SymmetricWindowState(self.start, self.end, self.num_buckets)
        other._keys = {k: _KeyEntry(e.cnt_r, e.cnt_s, e.sum_rv) for k, e in self._keys.items()}
        other.n_r = self.n_r
        other.n_s = self.n_s
        other.matches = self.matches
        other.sum_r = self.sum_r
        other.buckets = [list(b) for b in self.buckets]
        return other
