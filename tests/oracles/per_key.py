"""Exact per-key window outputs and their relative L1 distance.

The per-key configuration of
:class:`~repro.joins.partitioned.PartitionedPECJoin` answers each key's
join count (or joined R payload sum) per window; these brute-force
bincounts are what those answers, and the observed-only outputs, are
scored against (``tests/joins/test_partitioned.py`` and
``benchmarks/bench_extensions.py``).
"""

import numpy as np

from repro.joins.arrays import AggKind


def per_key_outputs(arrays, start, end, now, agg):
    """``key -> n_r * n_s`` (COUNT) or ``key -> sum_rv * n_s`` (SUM) over
    the window's tuples available by ``now`` (all of them for ``None``),
    keys with a zero output left out."""
    sl = arrays.window_slice(start, end)
    keys, is_r, payload = arrays.key[sl], arrays.is_r[sl], arrays.payload[sl]
    if now is not None:
        avail = arrays.completion[sl] <= now
        keys, is_r, payload = keys[avail], is_r[avail], payload[avail]
    size = int(keys.max()) + 1 if len(keys) else 0
    n_s = np.bincount(keys[~is_r], minlength=size)
    weights = payload[is_r] if agg is AggKind.SUM else None
    values = np.bincount(keys[is_r], weights=weights, minlength=size) * n_s
    return {int(k): float(values[k]) for k in np.nonzero(values)[0]}


def per_key_l1(estimate, truth):
    """Relative L1 distance between two per-key outputs."""
    total = sum(truth.values())
    if total == 0:
        return 0.0 if not estimate else 1.0
    keys = set(estimate) | set(truth)
    return sum(abs(estimate.get(k, 0.0) - truth.get(k, 0.0)) for k in keys) / total
