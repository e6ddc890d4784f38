"""Differential suite: block-appending push operators vs per-tuple clockwork.

The product operators append pushed tuples to a pending block, fold it into
one arrival-ordered log every ``BLOCK`` tuples and read windows as masked
views of that log.  ``tests/oracles/per_tuple_push.py`` keeps the per-tuple
clockwork they replaced.  Both are driven with the same stream and must
agree after every push: the emissions (every field, the interval
included), ``scored``, ``dropped_late`` and ``live_windows``; and for PECJ
the learned state (``checkpoint_pecj``) at the end.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.core.persistence import checkpoint_pecj
from repro.joins.arrays import AggKind
from repro.streaming.operators import BLOCK, StreamingKSJ, StreamingPECJ, StreamingWMJ
from repro.streams.tuples import Side, StreamTuple
from tests.oracles.per_tuple_push import OracleKSJ, OraclePECJ, OracleWMJ

PAIRS = {
    "WMJ": (StreamingWMJ, OracleWMJ),
    "KSJ": (StreamingKSJ, OracleKSJ),
    "PECJ": (StreamingPECJ, OraclePECJ),
}


def make_stream(length: float, n: int, seed: int, windows: int = 40, grid: float | None = None):
    """``n`` tuples over ``windows`` windows of ``length`` ms, in arrival order.

    Delays are mostly uniform on ``[0, 0.8 |W|)``; one tuple in 25 is a
    straggler delayed by up to ``6 |W|`` (late for a finalized window).
    Window 0's tuples are held back until ``1.4 |W|``, after window 1's
    earliest tuple opened it (undelayed): with ``omega > 1.4 |W|`` they rewind the emission cursor,
    otherwise they are late.  With ``grid``, arrivals are rounded up to
    that grid, so they tie and land on emission cutoffs.
    """
    rng = np.random.default_rng(seed)
    event = rng.uniform(0.0, windows * length, n)
    delay = rng.uniform(0.0, 0.8 * length, n)
    straggler = rng.random(n) < 0.04
    delay[straggler] = rng.uniform(2.0 * length, 6.0 * length, int(straggler.sum()))
    arrival = event + delay
    arrival = np.where(event < length, np.maximum(arrival, 1.4 * length), arrival)
    first_of_1 = np.flatnonzero(event >= length)[np.argmin(event[event >= length])]
    arrival[first_of_1] = event[first_of_1]
    if grid is not None:
        arrival = np.ceil(arrival / grid) * grid
    order = np.argsort(arrival, kind="stable")
    key = rng.integers(0, 6, n)
    payload = rng.integers(-4, 9, n).astype(float) + rng.random(n)
    is_r = rng.random(n) < 0.5
    return [
        StreamTuple(int(key[i]), float(payload[i]), float(event[i]), float(arrival[i]),
                    Side.R if is_r[i] else Side.S)
        for i in order
    ]


def build(name: str, length: float, omega: float, agg: AggKind, backend: str = "aema"):
    product, oracle = PAIRS[name]
    if name == "PECJ":
        return product(length, omega, agg, backend=backend), oracle(length, omega, agg, backend=backend)
    return product(length, omega, agg), oracle(length, omega, agg)


def assert_lockstep(op, ref, tuples) -> list:
    """Push ``tuples`` into both, comparing after every push; return the
    emissions."""
    emitted = []
    for i, t in enumerate(tuples):
        got, want = op.push(t), ref.push(t)
        assert got == want, f"push {i}"
        assert op.scored == ref.scored, f"push {i}"
        assert op.dropped_late == ref.dropped_late, f"push {i}"
        assert op.live_windows == ref.live_windows, f"push {i}"
        emitted += got
    got, want = op.finish(), ref.finish()
    assert got == want
    assert op.scored == ref.scored
    assert (op.dropped_late, op.live_windows) == (ref.dropped_late, ref.live_windows)
    if isinstance(op, StreamingPECJ):
        assert json.dumps(checkpoint_pecj(op)) == json.dumps(checkpoint_pecj(ref))
    return emitted + got


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("length", [0.1, 3.3, 10.0])
@pytest.mark.parametrize("omega_ratio", [0.5, 1.0, 1.5])
def test_lockstep_across_window_lengths_and_cutoffs(name, length, omega_ratio):
    tuples = make_stream(length, 2 * BLOCK + 300, seed=int(length * 10) + int(omega_ratio * 4))
    op, ref = build(name, length, omega_ratio * length, AggKind.SUM)
    emissions = assert_lockstep(op, ref, tuples)
    assert len(emissions) > 30
    if name != "KSJ":  # (its reorder buffer may release window 0 first)
        # Window 0 opened after window 1: its tuples rewind the cursor when
        # its cutoff (omega) is still ahead at 1.4 |W|, else they are late.
        rewound = emissions[0].window_start == 0.0
        assert rewound == (omega_ratio > 1.4)
        assert rewound or ref.dropped_late > 0


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 4 * BLOCK - 1, 4 * BLOCK, 4 * BLOCK + 1])
def test_lockstep_around_block_multiples(name, n):
    op, ref = build(name, 10.0, 10.0, AggKind.COUNT)
    assert_lockstep(op, ref, make_stream(10.0, n, seed=n, windows=12))


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("omega", [10.0, 15.0])
def test_lockstep_on_the_1ms_grid(name, omega):
    """Arrivals on the 1 ms grid tie with each other and with the cutoffs
    ``start + omega`` of 10 ms windows."""
    tuples = make_stream(10.0, 3000, seed=9, windows=60, grid=1.0)
    assert {t.arrival_time for t in tuples} & {w * 10.0 + omega for w in range(60)}
    op, ref = build(name, 10.0, omega, AggKind.AVG)
    assert_lockstep(op, ref, tuples)


@pytest.mark.parametrize("name", sorted(PAIRS))
@pytest.mark.parametrize("seed", [1, 2])
def test_lockstep_on_a_sparse_stream(name, seed):
    """Two or three tuples per window: windows open out of order and empty
    windows sit between live ones, so tuples land in gaps below the newest
    window."""
    tuples = make_stream(10.0, 150, seed=seed, windows=60)
    op, ref = build(name, 10.0, 10.0, AggKind.SUM)
    assert_lockstep(op, ref, tuples)


@pytest.mark.parametrize("backend", ["aema", "svi", "mlp"])
@pytest.mark.parametrize("agg", [AggKind.COUNT, AggKind.SUM, AggKind.AVG])
def test_pecj_backends_in_lockstep(backend, agg):
    op, ref = build("PECJ", 10.0, 10.0, agg, backend)
    assert_lockstep(op, ref, make_stream(10.0, 2500, seed=3, windows=50))


@pytest.mark.parametrize("cls", [StreamingWMJ, StreamingKSJ, StreamingPECJ])
@pytest.mark.parametrize("length", [0.1, 0.3, 3.3])
def test_events_on_window_edges_land_in_their_floor_window(cls, length):
    """``w * |W|`` can sit an ulp beside the edge that ``floor(e / |W|)``
    draws; every tuple must still be counted in exactly the window that
    floor assigns it (the per-tuple clockwork raised "outside window")."""
    edges = [w * length for w in range(1, 40)]
    events = sorted(
        e for x in edges
        for e in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))
    )
    tuples = [StreamTuple(1, 1.0, e, e, side) for e in events for side in (Side.R, Side.S)]
    op = cls(length, length, AggKind.COUNT, horizon_ms=length) if cls is not StreamingPECJ \
        else cls(length, length, AggKind.COUNT)
    for t in tuples:
        op.push(t)
    op.finish()
    per_window: dict[int, int] = {}
    for e in events:
        w = math.floor(e / length)
        per_window[w] = per_window.get(w, 0) + 1
    truth = {round(s.window_start / length): s.truth for s in op.scored}
    # n same-key R/S pairs in a window join n * n times.
    assert truth == {w: float(c * c) for w, c in per_window.items()}
    assert op.dropped_late == 0
