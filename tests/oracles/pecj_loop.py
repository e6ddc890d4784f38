"""Per-bucket reference loop for PECJ's fused bucket sweeps.

:class:`~repro.core.pecj.PECJoin` counts a run of buckets with one
``searchsorted`` + cumulative-sum sweep and feeds each finalization batch
to the rate estimators in one ``observe_many`` call per side.  Before
that it walked the buckets one at a time: one slice-and-mask count and
one scalar completeness lookup per bucket, one ``observe`` per bucket and
side.  :class:`PerBucketPECJoin` keeps that loop by overriding the two
steps that use the sweep — bucket finalization and the current window's
bucket sweep — and the equivalence tests require every emitted record to
match the fused operator's bit for bit.

:class:`ReferencePECJoin` adds two pieces of work the fused operator
skips: every drain gathers and clamps its delays from the batch columns
(the fused operator slices a column computed once in ``prepare``), and
every warm window builds the delay-shape context, whether or not an
estimator reads it.  The equivalence tests diff against it;
``benchmarks/bench_hotpath.py`` times :class:`PerBucketPECJoin`, so its
ratio measures the bucket sweep alone.
"""

from __future__ import annotations

import numpy as np

from repro.core.pecj import PECJoin
from repro.joins.arrays import BatchArrays
from repro.streams.windows import Window

__all__ = ["PerBucketPECJoin", "ReferencePECJoin"]


class PerBucketPECJoin(PECJoin):
    """:class:`~repro.core.pecj.PECJoin` with the per-bucket reference loop."""

    def _bucket_counts(
        self, arrays: BatchArrays, start: float, end: float, now: float
    ) -> tuple[int, int]:
        sl = arrays.window_slice(start, end)
        avail = arrays.completion[sl] <= now
        r = int((arrays.is_r[sl] & avail).sum())
        s = int(((~arrays.is_r[sl]) & avail).sum())
        return r, s

    def _finalize_buckets(self, arrays: BatchArrays, first: int, now: float) -> None:
        for b in range(first, self._next_bucket):
            start = self.origin + b * self._bucket_len
            end = start + self._bucket_len
            age = now - 0.5 * (start + end)
            c = self.profile.completeness(age)
            z = 1.0 / c if c > 0.0 else 1.0
            n_r, n_s = self._bucket_counts(arrays, start, end, now)
            self.rate_r.observe(n_r / self._bucket_len, z)
            self.rate_s.observe(n_s / self._bucket_len, z)

    def _window_bucket_sweep(
        self, arrays: BatchArrays, window: Window, now: float
    ) -> tuple[list[int], list[int], list[float]]:
        first_bucket = int(round((window.start - self.origin) / self._bucket_len))
        n_rs: list[int] = []
        n_ss: list[int] = []
        cs: list[float] = []
        for b in range(first_bucket, first_bucket + self.buckets_per_window):
            start = self.origin + b * self._bucket_len
            end = start + self._bucket_len
            n_r, n_s = self._bucket_counts(arrays, start, min(end, window.end), now)
            n_rs.append(n_r)
            n_ss.append(n_s)
            cs.append(self.profile.completeness(now - 0.5 * (start + end)))
        return n_rs, n_ss, cs


class ReferencePECJoin(PerBucketPECJoin):
    """The per-bucket loop, a per-drain delay gather and an always-built
    delay-shape context."""

    def _reset_core(self, omega, make) -> None:
        super()._reset_core(omega, make)
        self._wants_context = True

    def _ingest_delays(self, arrays: BatchArrays, now: float) -> None:
        hi = int(np.searchsorted(self._comp_sorted, now, side="right"))
        if hi <= self._ingest_cursor:
            return
        idx = self._comp_order[self._ingest_cursor : hi]
        delays = arrays.arrival[idx] - arrays.event[idx]
        self.profile.update(np.maximum(delays, 0.0))
        self._ingest_cursor = hi
