"""Multi-tenant exploration service over a pluggable shared result store.

``repro serve`` runs the long-lived HTTP front-end
(:class:`ExplorationService`), ``repro client`` talks to it
(:class:`ServeClient`), and ``repro serve-bench`` measures it
(:func:`run_load_test`).  See ``docs/serve.md`` for the API, the
tenancy/budget model, and backend selection.
"""

from .client import ServeClient
from .fleet import (
    FleetError,
    StitchedTrace,
    aggregate_fleet,
    collect_journal_files,
    compare_benches,
    fleet_chrome_trace,
    fleet_critical_path,
    fleet_span_tree,
    load_slo,
    render_fleet_critical_path,
    render_fleet_metrics,
    render_fleet_status,
    render_fleet_tree,
    scrape_fleet,
    slo_violations,
    stitch_journals,
)
from .jobs import Job, JobSpec, execute_job, merge_budgets
from .loadtest import LoadReport, run_load_test
from .netfaults import ChaosProxy, ChaosReport, NetworkFaultPlan, run_chaos
from .replicas import JobHandle, ReplicaSet
from .scheduler import FairShareScheduler, TenantPolicy
from .service import ExplorationService, ServiceThread
from .sse import JournalFollower, format_sse

__all__ = [
    "ServeClient",
    "FleetError",
    "StitchedTrace",
    "aggregate_fleet",
    "collect_journal_files",
    "compare_benches",
    "fleet_chrome_trace",
    "fleet_critical_path",
    "fleet_span_tree",
    "load_slo",
    "render_fleet_critical_path",
    "render_fleet_metrics",
    "render_fleet_status",
    "render_fleet_tree",
    "scrape_fleet",
    "slo_violations",
    "stitch_journals",
    "Job",
    "JobSpec",
    "merge_budgets",
    "LoadReport",
    "run_load_test",
    "ChaosProxy",
    "ChaosReport",
    "NetworkFaultPlan",
    "run_chaos",
    "JobHandle",
    "ReplicaSet",
    "execute_job",
    "FairShareScheduler",
    "TenantPolicy",
    "ExplorationService",
    "ServiceThread",
    "JournalFollower",
    "format_sse",
]
