"""LSM-style sorted-run state for the serving hot path.

:class:`~repro.serve.shards.ShardStore` used to answer every query off a
full rebuild: concatenate all retained columns, re-argsort them in the
``BatchArrays`` constructor and rebuild the prefix-aggregate grid from
scratch — O(state · log state) per shard per tick, so per-query cost
grew with retention instead of with what actually arrived.  This module
holds the replacement storage layer, shaped like PanJoin's partitioned
sub-structures: each ingest chunk becomes one immutable *event-sorted
run* (:class:`SortedRun`, a single O(chunk log chunk) sort at ingest),
runs live in a size-tiered :class:`RunStack` whose amortized compaction
merges already-sorted neighbours with a two-pointer
:func:`merge_sorted_runs` (never re-sorting sorted data), and retention
eviction advances a per-run *frontier* — expired prefixes are skipped by
slicing and a fully expired run is dropped whole, without ever touching
survivors.

The frontier makes eviction accounting exactly match the full-rebuild
reference (:class:`repro.bench.serve_bench.FullRebuildShard`):
:meth:`RunStack.advance_horizon` returns how many tuples newly fell
behind the horizon, which is precisely the count the reference's
rebuild-time ``event >= horizon`` filter would have dropped, so the two
shards agree on ``evicted`` (and therefore ``len``) after every query.

Counters live in :class:`~repro.serve.shards.ShardStore` (the owner of
the obs vocabulary); this module only returns the numbers.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["SortedRun", "RunStack", "merge_runs", "merge_sorted_runs"]

_COLS = ("event", "arrival", "key", "payload", "is_r")


class SortedRun:
    """One immutable event-sorted run of columnar tuples.

    Attributes:
        event, arrival, key, payload, is_r: Aligned columns, sorted by
            ``event`` (stable, so equal timestamps keep ingest order).
        evict_ptr: Index of the first *live* tuple — everything before
            it has expired past the retention horizon.  Because the run
            is event-sorted, the expired set is always a prefix and
            eviction is a pointer bump, never a copy.
    """

    __slots__ = ("event", "arrival", "key", "payload", "is_r", "evict_ptr")

    def __init__(
        self,
        event: np.ndarray,
        arrival: np.ndarray,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
    ):
        self.event = event
        self.arrival = arrival
        self.key = key
        self.payload = payload
        self.is_r = is_r
        self.evict_ptr = 0

    @classmethod
    def from_chunk(
        cls,
        event: np.ndarray,
        arrival: np.ndarray,
        key: np.ndarray,
        payload: np.ndarray,
        is_r: np.ndarray,
    ) -> "SortedRun":
        """Sort one ingest chunk by event time — the run's only sort."""
        order = np.argsort(event, kind="stable")
        return cls(
            event[order], arrival[order], key[order], payload[order], is_r[order]
        )

    def __len__(self) -> int:
        return len(self.event)

    @property
    def live(self) -> int:
        """Number of unexpired tuples."""
        return len(self.event) - self.evict_ptr

    def advance_frontier(self, horizon: float) -> int:
        """Expire tuples with ``event < horizon``; newly expired count."""
        ptr = int(self.event.searchsorted(horizon, side="left"))
        newly = ptr - self.evict_ptr
        if newly > 0:
            self.evict_ptr = ptr
        return max(newly, 0)

    def live_columns(self) -> tuple[np.ndarray, ...]:
        """Views of the unexpired suffix of every column."""
        p = self.evict_ptr
        return (
            self.event[p:],
            self.arrival[p:],
            self.key[p:],
            self.payload[p:],
            self.is_r[p:],
        )

    def live_slice(self, lo: float, hi: float) -> slice:
        """Live index range with ``lo <= event < hi`` (for window scans)."""
        start = int(self.event.searchsorted(lo, side="left"))
        stop = int(self.event.searchsorted(hi, side="left"))
        return slice(max(start, self.evict_ptr), stop)


def merge_sorted_runs(a: SortedRun, b: SortedRun) -> SortedRun:
    """Two-pointer merge of two event-sorted runs into one.

    Only the *live* suffix of each input survives (the merge is where
    run-granular eviction reclaims memory).  Stability matches the
    full-rebuild reference's stable argsort: on equal event times, ``a``
    (the older run) precedes ``b``.  Cost is O(n + m) moves plus an
    O(m log n) searchsorted — no re-sort of already-sorted data.
    """
    ae, aa, ak, ap, ar = a.live_columns()
    be, ba, bk, bp, br = b.live_columns()
    if len(be) == 0:
        return SortedRun(ae, aa, ak, ap, ar)
    if len(ae) == 0:
        return SortedRun(be, ba, bk, bp, br)
    n = len(ae) + len(be)
    # Position of each b-tuple in the merged order: the number of
    # a-tuples at or before its event time (side="right" keeps a first
    # on ties) plus the b-tuples already placed before it.
    pos_b = np.searchsorted(ae, be, side="right") + np.arange(len(be), dtype=np.int64)
    mask_b = np.zeros(n, dtype=bool)
    mask_b[pos_b] = True
    mask_a = ~mask_b
    out = []
    for col_a, col_b in ((ae, be), (aa, ba), (ak, bk), (ap, bp), (ar, br)):
        merged = np.empty(n, dtype=col_a.dtype)
        merged[mask_b] = col_b
        merged[mask_a] = col_a
        out.append(merged)
    return SortedRun(*out)


class RunStack:
    """Size-tiered stack of sorted runs with amortized compaction.

    Runs are kept newest-last.  After every append the stack compacts
    while the newest run is at least as large as its predecessor (live
    sizes), merging the two.  The invariant is strictly decreasing run
    sizes oldest-to-newest, which bounds the run count at O(sqrt(n)) in
    the worst case and — for the near-uniform chunk sizes a steady
    ingest tick produces — at O(log n) by the binary-counter argument,
    with every merge at least doubling its smaller input, so total merge
    work stays O(n log n) over uniform ingest.

    Attributes:
        runs: The live runs, oldest first.
        compactions: Lifetime merge count (the owner mirrors it into
            ``serve.shard.compactions``).
    """

    def __init__(self) -> None:
        self.runs: list[SortedRun] = []
        self.compactions = 0

    def __len__(self) -> int:
        return len(self.runs)

    @property
    def total_live(self) -> int:
        """Unexpired tuples across all runs."""
        return sum(r.live for r in self.runs)

    def append(self, run: SortedRun) -> int:
        """Push a new run and compact; returns merges performed."""
        self.runs.append(run)
        merged = 0
        while len(self.runs) >= 2 and self.runs[-1].live >= self.runs[-2].live:
            b = self.runs.pop()
            a = self.runs.pop()
            self.runs.append(merge_sorted_runs(a, b))
            merged += 1
        self.compactions += merged
        return merged

    def advance_horizon(self, horizon: float) -> int:
        """Expire tuples behind ``horizon``; drop fully expired runs.

        Returns the number of *newly* expired tuples — exactly what the
        full-rebuild reference would have dropped at this point — so the
        caller can keep its ``evicted`` counter reference-identical.
        Survivor runs are never copied: partially expired runs just
        advance their frontier, fully expired ones are dropped whole.
        """
        newly = 0
        survivors: list[SortedRun] = []
        for run in self.runs:
            newly += run.advance_frontier(horizon)
            if run.live > 0:
                survivors.append(run)
        self.runs = survivors
        return newly


def merge_runs(runs: Iterable[SortedRun]) -> tuple[np.ndarray, ...]:
    """The live tuples of ``runs`` as one event-sorted column set.

    Folds :func:`merge_sorted_runs` over the runs in order, so a
    snapshot never re-sorts sorted data and equal event times keep the
    order the runs are given in.  No runs yield typed empty columns.
    """
    acc = None
    for run in runs:
        acc = run if acc is None else merge_sorted_runs(acc, run)
    if acc is None:
        return (
            np.empty(0),
            np.empty(0),
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0, dtype=bool),
        )
    return acc.live_columns()
