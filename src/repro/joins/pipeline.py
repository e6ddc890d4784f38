"""Single-node processing pipeline: per-tuple costs and completion times.

The standalone comparison (paper Section 6.2A) runs WMJ, KSJ and PECJ on
the same codebase; their latency differences come from per-tuple
processing overheads — most visibly KSJ's k-slack buffer maintenance,
which "swells with a larger number of tuples processed per unit of time"
and drives KSJ into overload at high event rates (Section 6.4).

We model the operator as a work-conserving single server: tuples are
serviced in arrival order and tuple *i* completes at

    completion_i = max(arrival_i, completion_{i-1}) + cost_i

which has the exact vectorised form ``cumsum(cost) + running_max(arrival -
shifted_cumsum)``.  A tuple participates in a window's output only if the
server finished ingesting it by the emission deadline; when the server
falls behind (overload), tuples miss their windows and the error rises —
the mechanism behind Fig. 8(b,c).

Costs are virtual milliseconds per tuple, calibrated so that the default
rates of the paper (2 x 100K tuples/s) run comfortably below capacity and
KSJ saturates near 200K tuples/s as reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.joins.arrays import BatchArrays, strictly_increasing

__all__ = ["CostModel", "apply_pipeline_costs", "completion_times"]


@dataclass(frozen=True, slots=True)
class CostModel:
    """Per-tuple virtual processing costs, in ms.

    Attributes:
        base_cost: Ingest + incremental hash-join work per tuple, common
            to every method.
        ksj_sort_cost: Extra k-slack cost per tuple per ``log2`` of buffer
            occupancy (ordered-buffer maintenance).
        pecj_observe_cost: PECJ's extra per-tuple cost for updating its
            observations ("making observations and executing
            compensations", Section 6.4).
        emit_overhead: Constant cost charged when emitting a window.
        learning_inference_ms: Constant inference latency of the
            learning-based backend per emission — the paper reports
            "an additional latency of around 90ms" for the MLP (Fig. 7a).
        grace_fraction: How long past the cutoff the operator may keep
            draining its queue before it must emit, as a fraction of
            omega.  Bounds the latency penalty under overload (KSJ's
            "+50%" in Fig. 8b) while letting unprocessed tuples miss the
            window (the error escalation of Fig. 8c).
    """

    base_cost: float = 0.0008
    ksj_sort_cost: float = 0.00018
    pecj_observe_cost: float = 0.0004
    emit_overhead: float = 0.02
    learning_inference_ms: float = 90.0
    grace_fraction: float = 0.5


def completion_times(arrivals: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Work-conserving single-server completion times.

    ``arrivals`` must be sorted ascending; ``costs`` aligned per tuple.
    """
    if len(arrivals) != len(costs):
        raise ValueError("arrivals and costs must align")
    if len(arrivals) == 0:
        return np.empty(0)
    cum = np.cumsum(costs, dtype=float)
    # cum + running_max(arrivals - (cum - costs)), formed in place.
    gap = cum - costs
    np.subtract(arrivals, gap, out=gap)
    np.maximum.accumulate(gap, out=gap)
    cum += gap
    return cum


def ksj_buffer_occupancy(arrivals: np.ndarray, slack: float) -> np.ndarray:
    """Approximate k-slack buffer occupancy at each arrival.

    A k-slack buffer holds a tuple until the stream's progress passes its
    event time plus the slack ``K``; with roughly steady progress that is
    the number of tuples that arrived within the last ``K`` ms.
    """
    if slack <= 0:
        return np.zeros(len(arrivals))
    left = np.searchsorted(arrivals, arrivals - slack, side="left")
    return np.arange(len(arrivals)) - left + 1


def apply_pipeline_costs(
    arrays: BatchArrays,
    method: str,
    model: CostModel,
    slack: float = 0.0,
) -> None:
    """Assign ``arrays.completion`` according to a method's cost profile.

    Args:
        arrays: Columnar batch; completion times are written in place.
        method: ``"wmj"``, ``"ksj"``, ``"pecj"`` or ``"zero"`` (idealised
            infinitely fast operator: completion == arrival).
        model: The cost constants.
        slack: KSJ's slack ``K`` in ms (its buffer holds ~``rate * K``
            tuples); ignored by other methods.

    Applications are memoized per batch: re-applying the same
    ``(method, model, slack)`` is a no-op (the completions would be
    identical), which lets the sliding adapter's phases and repeated runs
    share one cost application.  Any direct write to ``completion`` must
    call ``arrays.mark_completion_dirty()`` to drop the memo.
    """
    n = len(arrays)
    if n == 0:
        return
    signature = (method, model, float(slack))
    if arrays._cost_signature == signature:
        obs.counter("pipeline.cost_memo.hit").inc()
        return
    obs.counter("pipeline.cost_memo.miss").inc()
    order = arrays.arrival_order()

    if method == "zero":
        arrays.completion[...] = arrays.arrival
        arrays.mark_completion_dirty()
        # Completion is arrival, so its stable argsort is the arrival order.
        arrays._completion_order = order
        arrays._cost_signature = signature
        return
    arrivals = arrays.arrival[order]
    dropped = None
    if method == "wmj":
        costs = np.full(n, model.base_cost)
    elif method == "ksj":
        occupancy = ksj_buffer_occupancy(arrivals, slack)
        costs = model.base_cost + model.ksj_sort_cost * np.log2(1.0 + occupancy)
        # Overloaded k-slack buffers shed: when the local offered load
        # exceeds capacity (rho > 1), the buffer admits only what it can
        # sort, degrading gracefully instead of queueing without bound.
        # The paper observes exactly this partial degradation: "when an
        # overload transpires, the partial reorder in KSJ becomes
        # asynchronous, further increasing its error" (Section 6.4).
        local_rate = occupancy / max(slack, 1e-9)
        rho = costs * local_rate
        drop_prob = np.maximum(0.0, 1.0 - 1.0 / np.maximum(rho, 1e-9))
        jitter = ((np.arange(n) * 2654435761) % (2**32)) / 2**32
        dropped = jitter < drop_prob
        costs = np.where(dropped, 0.0, costs)
    elif method == "pecj":
        costs = np.full(n, model.base_cost + model.pecj_observe_cost)
    else:
        raise ValueError(f"unknown pipeline method {method!r}")

    # Virtual busy time of the modeled single-server pipeline — the
    # runner-side counterpart of the engine simulator's per-phase times.
    obs.gauge(f"engine.{method}.time_ms.pipeline").add(float(costs.sum()))

    done = completion_times(arrivals, costs)
    if dropped is not None:
        done[dropped] = np.inf
    arrays.completion[order] = done
    arrays.mark_completion_dirty()
    if strictly_increasing(done):
        # Completions strictly increasing in arrival order have one sort
        # order, the arrival order; ties (KSJ's inf drops among them)
        # leave completion_order() to sort.  ``done`` is then the
        # completion column in that order.
        arrays._completion_order = order
        done.setflags(write=False)
        arrays._sorted_completion = done
    arrays._cost_signature = signature
