"""``repro.serve`` — the long-running multi-tenant streaming join service.

The batch reproduction answers "is PECJ's compensation right"; this
package answers "does it hold up as a *service*": thousands of
simulated tenants submitting window-join queries over shared disordered
ingest, with admission control (:mod:`repro.serve.admission`),
key-sharded operator state (:mod:`repro.serve.shards`), per-shard
graceful degradation (reusing :mod:`repro.faults.degrade`), vertical
autoscaling from the engine cost model
(:mod:`repro.serve.autoscaler`) and checkpoint-based migration — all
orchestrated on an asyncio event loop over a virtual clock
(:mod:`repro.serve.service`), so every run replays byte-identically.
Live telemetry (:mod:`repro.serve.telemetry`) samples the run's
registry into ring time series, tracks per-tenant-class SLO error
budgets with burn-rate alerts, and audits every control-plane decision;
:meth:`JoinService.openmetrics` / :meth:`JoinService.telemetry_snapshot`
are the exporters.

Entry points: build a :class:`ServeConfig`, optionally a fault plan
(:func:`repro.faults.serve_load_plan`), and call :func:`run_service`.
The ``serve`` bench figure (``python -m repro.bench serve``) sweeps
tenancy and chaos intensity through the same path.
"""

from repro.serve.admission import AdmissionController, TenantQuota
from repro.serve.autoscaler import VerticalAutoscaler
from repro.serve.service import JoinService, ServeConfig, run_service
from repro.serve.shards import ShardAnswer, ShardStore
from repro.serve.telemetry import ServeTelemetry, TelemetryConfig

__all__ = [
    "AdmissionController",
    "JoinService",
    "ServeConfig",
    "ServeTelemetry",
    "ShardAnswer",
    "ShardStore",
    "TelemetryConfig",
    "TenantQuota",
    "VerticalAutoscaler",
    "run_service",
]
