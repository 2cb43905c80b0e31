"""Unified run service & campaign layer.

Every batch of runs in this reproduction goes through one subsystem:
profile repeats on the sim plane, plan validation, campaign sweeps and
the benchmarks' workload-by-machine-by-seed fan-outs.  It sits on top of
the profiler, the emulator and the sim backend, and none of those calls
back into it:

* :class:`RunRequest` / :class:`RunResult` — a declarative description
  of one sim-plane run (profile / emulate / raw engine execution on a
  machine model) with deterministic per-request noise seeds, and its
  outcome;
* :class:`RunService` — executes any batch of requests, owning a
  **persistent, reusable worker pool** so repeated batches do not pay
  pool startup per batch; a batch that resolves to one worker runs in
  the parent;
* :func:`get_service` — the process-wide default service shared by
  ``repro.profile(..., repeats=n)``, ``predict.validate.validate_plan``,
  the campaign runner and the benchmark harness;
* :mod:`repro.runtime.campaign` — a declarative sweep spec
  (apps x machines x seeds x repeats) expanded to requests and executed
  with a resumable on-:class:`~repro.storage.base.ProfileStore` ledger;
  ``run_campaign(spec, store)`` is the lone, protocol-free loop;
* :mod:`repro.runtime.coordinator` — how several invocations or hosts
  share one sweep, and the only mutual-exclusion protocol: workers
  register TTL-leased membership, pull pending cells in leased batches
  and steal expired leases from crashed/hung/drained rivals, so fleets
  grow, shrink and fail mid-sweep while the ledger still converges
  (``elastic_worker`` / ``run_elastic``); both loops execute a wave
  through one body in the campaign module;
* :mod:`repro.runtime.analyze` — aggregates a finished ledger into the
  paper's consistency/error tables (``repro campaign --report``).
"""

from __future__ import annotations

from repro.runtime.analyze import CampaignAnalysis, analyze_campaign
from repro.runtime.campaign import (
    CampaignCell,
    CampaignReport,
    CampaignSpec,
    comparable_artifact,
    completed_cells,
    iter_ledger,
    ledger,
    ledger_digest,
    run_campaign,
)
from repro.runtime.coordinator import (
    DEFAULT_LEASE_TTL,
    LEASE_KIND,
    MEMBER_KIND,
    LeaseRecord,
    elastic_worker,
    lease_records,
    live_members,
    resolve_lease,
    run_elastic,
)
from repro.runtime.service import (
    ParallelFallbackWarning,
    PoisonRequestError,
    RunPolicy,
    RunRequest,
    RunResult,
    RunService,
    RunTimeoutError,
    get_service,
    reset_service,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_KIND",
    "MEMBER_KIND",
    "CampaignAnalysis",
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "LeaseRecord",
    "ParallelFallbackWarning",
    "PoisonRequestError",
    "RunPolicy",
    "RunRequest",
    "RunResult",
    "RunService",
    "RunTimeoutError",
    "analyze_campaign",
    "comparable_artifact",
    "completed_cells",
    "elastic_worker",
    "get_service",
    "iter_ledger",
    "lease_records",
    "ledger",
    "ledger_digest",
    "live_members",
    "reset_service",
    "resolve_lease",
    "run_campaign",
    "run_elastic",
]
