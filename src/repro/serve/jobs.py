"""Job vocabulary of the exploration service.

A *job* is one exploration request — the service-side twin of one CLI
invocation.  Its spec is the params of one :mod:`repro.ops` operation
(:class:`JobSpec`, validated by :meth:`JobSpec.from_payload`); :class:`Job`
is the mutable service-side record tracking it from ``queued`` through
``running`` to ``completed``/``failed``.

Specs are deliberately *canonical*: the request parser fills the same
defaults and applies the same checks the CLI does, so a job submitted
twice — or submitted to two replicas — has the same content digest and
therefore the same evaluation keys in the shared result store.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..engine import EvaluationEngine
from ..ops import Params as JobSpec
from ..search import SearchBudget

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

TERMINAL_STATES = (COMPLETED, FAILED)


def execute_job(spec: JobSpec, engine: EvaluationEngine) -> dict[str, Any]:
    """Run ``spec`` on ``engine`` — the CLI command's calls — and return
    the JSON-ready result."""
    return spec.served(spec.run(engine))


def merge_budgets(
    requested: SearchBudget | None, cap: SearchBudget | None
) -> SearchBudget | None:
    """The stricter of a job's requested budget and a tenant's cap.

    Field-wise minimum with ``None`` meaning unbounded — a tenant cap
    can only tighten a job's budget, never loosen it.
    """
    if cap is None:
        return requested
    if requested is None:
        return cap

    def _tighter(a: int | None, b: int | None) -> int | None:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    return SearchBudget(
        max_evaluations=_tighter(requested.max_evaluations, cap.max_evaluations),
        max_moves=_tighter(requested.max_moves, cap.max_moves),
        plateau_patience=_tighter(
            requested.plateau_patience, cap.plateau_patience
        ),
    )


@dataclass
class Job:
    """One submitted job's mutable service-side record.

    All mutation happens under the owning service's lock (state
    transitions run on job-executor threads); readers take snapshots
    via :meth:`to_jsonable`.
    """

    id: str
    tenant: str
    spec: JobSpec
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: Any = None
    #: Engine/cache counter deltas attributed to this job.
    stats: dict[str, Any] = field(default_factory=dict)
    #: This job's private event journal (the SSE source).
    journal_path: Any = None
    #: Distributed-trace identity from the submitter's ``traceparent``
    #: header: the fleet-wide trace id and the caller's span id.
    trace_id: str | None = None
    parent_span_id: str | None = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def wall_seconds(self) -> float | None:
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def to_jsonable(self, include_result: bool = False) -> dict[str, Any]:
        payload = {
            "id": self.id,
            "tenant": self.tenant,
            "state": self.state,
            "spec": self.spec.to_jsonable(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_seconds": self.wall_seconds,
            "error": self.error,
            "stats": dict(self.stats),
            "trace_id": self.trace_id,
        }
        if include_result:
            payload["result"] = self.result
        return payload
