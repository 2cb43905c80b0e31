"""Deterministic fault injection: the runtime's chaos plane.

Trustworthy emulation of long-running workloads on unreliable resources
(the paper's value proposition) needs the failure paths exercised as
deliberately as the happy paths.  This package provides first-class,
*seedable* fault injection at named points across every layer — store
writes/reads, index scans, worker execution, the
elastic lease protocol — replacing ad-hoc monkeypatching in tests and
enabling chaos soak runs of real campaigns:

* :class:`FaultPlan` / :class:`FaultRule` — a declarative, JSON-loadable
  description of what to break (point), how (error / delay / crash) and
  when (Nth hit, every Nth, or a seeded probability whose decisions are
  a pure hash of ``(seed, rule, point, key, hit)`` — bit-reproducible);
* :func:`inject` — the one-line call instrumented sites make; free when
  no plan is active;
* :func:`activate` / :func:`deactivate` / :func:`injected_faults` —
  programmatic activation; ``repro --faults plan.json`` and the
  ``REPRO_FAULTS`` environment variable activate from the CLI and from
  forked/spawned workers.

See :mod:`repro.faults.inject` for the injection-point inventory and
:mod:`repro.faults.plan` for the plan schema.
"""

from __future__ import annotations

from repro.faults.inject import (
    ENV_VAR,
    activate,
    active_plan,
    deactivate,
    inject,
    injected_faults,
    reset,
)
from repro.faults.plan import FaultPlan, FaultRule, InjectedFault

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "activate",
    "active_plan",
    "deactivate",
    "inject",
    "injected_faults",
    "reset",
]
