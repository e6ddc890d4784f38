"""Stream sources: merging and replaying finite stream segments.

Join operators consume a single interleaved sequence of R and S tuples in
*arrival* order, which is what a network front-end would deliver.  This
module turns a generated (R, S) pair into that sequence, and provides a
small pull-based replayer with a virtual clock.
"""

from __future__ import annotations

from typing import Iterator

from repro.streams.tuples import StreamBatch, StreamTuple, by_arrival

__all__ = ["merge_arrival", "ReplaySource", "make_disordered_pair"]


def merge_arrival(r: StreamBatch, s: StreamBatch) -> StreamBatch:
    """Interleave two stream batches into a single arrival-ordered batch."""
    merged = list(r) + list(s)
    merged.sort(key=by_arrival)
    return StreamBatch(merged)


class ReplaySource:
    """Pull-based replay of an arrival-ordered batch against a virtual clock.

    ``poll(now)`` returns every tuple whose arrival time is ``<= now`` and
    has not been returned before.  Operators drive the clock themselves
    (e.g. to each window's emission time ``omega``).
    """

    def __init__(self, batch: StreamBatch):
        self._tuples = batch.in_arrival_order()
        self._cursor = 0

    @property
    def exhausted(self) -> bool:
        """Whether every tuple has been delivered."""
        return self._cursor >= len(self._tuples)

    @property
    def remaining(self) -> int:
        """Number of tuples not yet delivered."""
        return len(self._tuples) - self._cursor

    def poll(self, now: float) -> list[StreamTuple]:
        """All not-yet-delivered tuples with ``arrival_time <= now``."""
        out: list[StreamTuple] = []
        while self._cursor < len(self._tuples):
            t = self._tuples[self._cursor]
            if t.arrival_time > now:
                break
            out.append(t)
            self._cursor += 1
        return out

    def drain(self) -> list[StreamTuple]:
        """Every remaining tuple, regardless of the clock."""
        out = self._tuples[self._cursor :]
        self._cursor = len(self._tuples)
        return out

    def __iter__(self) -> Iterator[StreamTuple]:
        while self._cursor < len(self._tuples):
            t = self._tuples[self._cursor]
            self._cursor += 1
            yield t


def make_disordered_arrays(dataset, delay_model, duration_ms, rate_r, rate_s, seed):
    """Columnar fast path: generate, disorder and pack into BatchArrays.

    Produces exactly the columns of :func:`make_disordered_pair` +
    ``BatchArrays.from_batch`` — same seed, same tuples — but never
    materialises tuple objects.  To keep the RNG streams aligned with the
    object path, content is generated side by side (R fully, then S) and
    delays are drawn per side in the same order ``apply_disorder`` would
    consume them.
    """
    import numpy as np

    from repro.joins.arrays import BatchArrays

    rng = np.random.default_rng(seed)
    (t_r, k_r, v_r), (t_s, k_s, v_s) = dataset.generate_column_sides(
        duration_ms, rate_r, rate_s, rng
    )
    # Delay models may carry temporal structure (OU walks, regimes), so
    # each side must be sampled as one call, R before S, mirroring the
    # per-batch apply_disorder calls of the object path.
    delay_r = delay_model.sample(rng, t_r) if len(t_r) else np.zeros(0)
    delay_s = delay_model.sample(rng, t_s) if len(t_s) else np.zeros(0)
    event = np.concatenate([t_r, t_s])
    arrival = np.concatenate([t_r + delay_r, t_s + delay_s])
    key = np.concatenate([k_r, k_s])
    payload = np.concatenate([v_r, v_s])
    is_r = np.concatenate([np.full(len(t_r), True), np.full(len(t_s), False)])
    return BatchArrays(event, arrival, key, payload, is_r)


def make_disordered_pair(dataset, delay_model, duration_ms, rate_r, rate_s, seed):
    """Convenience: generate, disorder and merge a stream pair.

    Returns ``(merged_batch, r_batch, s_batch)`` where the merged batch is
    arrival-ordered and the side batches carry the same re-stamped tuples.
    """
    import numpy as np

    from repro.streams.disorder import apply_disorder

    rng = np.random.default_rng(seed)
    r, s = dataset.generate(duration_ms, rate_r, rate_s, rng)
    r = apply_disorder(r, delay_model, rng)
    s = apply_disorder(s, delay_model, rng)
    return merge_arrival(r, s), r, s
