"""Operator interface and run results for standalone stream window joins.

A standalone operator (paper Section 6.2A) consumes the disordered merged
stream and, for every tumbling window, emits the scalar aggregate ``O`` at
its emission cutoff ``omega`` (measured from the window's start).  The
runner in :mod:`repro.joins.runner` drives operators window by window and
scores them against the exact oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.joins.arrays import AggKind, BatchArrays
from repro.metrics.latency import LatencyTracker
from repro.streams.windows import Window

__all__ = ["StreamJoinOperator", "WindowRecord", "RunResult"]


class StreamJoinOperator:
    """Base class for standalone SWJ operators.

    Subclasses set :attr:`pipeline_method` (which per-tuple cost profile
    from :mod:`repro.joins.pipeline` applies) and implement
    :meth:`process_window`.
    """

    #: Display name used in benchmark tables.
    name: str = "base"
    #: Cost profile key understood by ``apply_pipeline_costs``.
    pipeline_method: str = "wmj"
    #: Incremental grid aggregator bound by the runner (None = rescan).
    _aggregator = None

    def __init__(self, agg: AggKind = AggKind.COUNT):
        self.agg = agg

    def prepare(self, arrays: BatchArrays, window_length: float, omega: float) -> None:
        """Hook called once before the window loop (reset state)."""

    def bind_aggregator(self, aggregator) -> None:
        """Attach the runner's incremental grid aggregator.

        Called by :func:`repro.joins.runner.run_operator` after
        :meth:`prepare`; operators answer window queries through
        :meth:`window_aggregate`, which uses the bound engine when the
        queried range lies on its grid.
        """
        self._aggregator = aggregator

    def window_aggregate(
        self,
        arrays: BatchArrays,
        start: float,
        end: float,
        available_by: float | None = None,
        clock: str = "completion",
    ):
        """Join aggregate of ``[start, end)`` over an availability view.

        Uses the bound :class:`~repro.joins.aggregator.WindowAggregator`
        (O(log) per query) when possible, falling back to the reference
        rescan ``BatchArrays.aggregate`` when no aggregator is bound or
        the range is off-grid — so operators behave identically when
        driven outside the runner (e.g. in unit tests).  Every query is
        counted (``aggregator.query.grid_hit`` vs
        ``aggregator.query.fallback.*`` per reason) so a run that
        silently drops to the rescan path shows up in its metrics
        snapshot instead of only as a slowdown.
        """
        if self._aggregator is not None:
            hit = self._aggregator.try_at(start, end, available_by, clock)
            if hit is not None:
                obs.counter("aggregator.query.grid_hit").inc()
                return hit
            obs.counter("aggregator.query.fallback.off_grid").inc()
        else:
            obs.counter("aggregator.query.fallback.unbound").inc()
        return arrays.aggregate(start, end, available_by, clock)

    def process_window(
        self, arrays: BatchArrays, window: Window, available_by: float
    ) -> tuple[float, float]:
        """Produce the output for one window.

        Args:
            arrays: The columnar batch with completion times assigned.
            window: The event-time window to answer for.
            available_by: Virtual time by which tuples must have been
                processed to participate (the runner already folded the
                overload grace period into this).

        Returns:
            ``(value, extra_emit_cost_ms)`` — the scalar output ``O`` and
            any additional per-emission latency (e.g. NN inference).
        """
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class WindowRecord:
    """Outcome of one window emission."""

    window: Window
    value: float
    expected: float
    error: float
    cutoff: float
    emit_time: float
    contributing: int


@dataclass
class RunResult:
    """Everything measured over one operator run."""

    operator: str
    omega: float
    records: list[WindowRecord] = field(default_factory=list)
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    #: Records excluded from error aggregation (estimator warm-up).
    warmup_records: list[WindowRecord] = field(default_factory=list)
    #: Run-scoped :mod:`repro.obs` snapshot (fast-path hit/fallback
    #: counters, cost-memo hits, degenerate-window counts, wall time).
    metrics: dict = field(default_factory=dict)

    @property
    def mean_error(self) -> float:
        """Mean per-window relative error epsilon over measured windows."""
        if not self.records:
            return 0.0
        return sum(r.error for r in self.records) / len(self.records)

    @property
    def p95_latency(self) -> float:
        """The paper's 95% l metric."""
        return self.latency.p95()

    @property
    def num_windows(self) -> int:
        """Number of measured (post-warmup) windows."""
        return len(self.records)

    def summary(self) -> dict[str, float]:
        """Headline numbers for benchmark tables."""
        return {
            "mean_error": self.mean_error,
            "p95_latency_ms": self.p95_latency,
            "mean_latency_ms": self.latency.mean(),
            "windows": float(self.num_windows),
            # Emit-before-arrival samples are an upstream scheduling bug;
            # surfacing the count here keeps it from hiding in clamped
            # percentiles (see LatencyTracker).
            "negative_latency_samples": float(self.latency.negative_samples),
        }
