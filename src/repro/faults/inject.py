"""The injection runtime: named points, activation, and firing.

Instrumented call sites declare *injection points* by calling
:func:`inject` with a stable point name (and an optional context key)::

    from repro.faults import inject
    ...
    inject("store.put", key=profile.command)

With no plan active the call is a single global ``is None`` check, so
the points are always-on like the metrics registry.  A plan activates

* programmatically — :func:`activate` / :func:`deactivate` or the
  :func:`injected_faults` context manager (tests);
* via the CLI — ``repro --faults plan.json ...``;
* via the environment — ``REPRO_FAULTS=plan.json`` (or inline JSON),
  read lazily on the first injection-point call, so pool workers and
  subprocesses inherit chaos configuration without any plumbing.

Point inventory (grep for ``inject(`` to verify):

========================  ====================================================
``store.put``             profile writes (file / memory stores)
``store.get``             payload reads (``get_many``)
``store.entries``         index-plane scans
``worker.execute``        request dispatch (parent or pool worker); the
                          context key is the request key (cell digest)
``coordinator.heartbeat`` every elastic-worker heartbeat beat; the context
                          key is the worker name (``crash`` kills the
                          worker mid-wave, ``error`` drops the beat)
``coordinator.lease.renew``  every held-lease renewal; the context key is
                          the worker name (``error`` ages the lease into
                          stealability while the owner keeps working)
``coordinator.steal``     every lease-steal attempt; the context key is
                          the cell digest (``error`` defers the takeover)
========================  ====================================================

Hit counters are per process: a pool worker forked from the parent
inherits the active plan but counts its own hits.  Rules needing
exactly-one-firing semantics *across* processes (e.g. one worker crash
per campaign) use a ``fuse`` file — see :mod:`repro.faults.plan`.

Every firing emits a ``fault.injected`` telemetry event and bumps the
``faults.injected`` counter before acting, so chaos runs are observable
in the same trace/log stream as the behavior they provoke.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Iterator

from repro.core.errors import StoreError
from repro.faults.plan import FaultPlan, FaultRule, InjectedFault

__all__ = [
    "activate",
    "active_plan",
    "deactivate",
    "inject",
    "injected_faults",
]

#: Environment variable naming a fault plan (JSON file path or inline
#: JSON object).  Read lazily on the first :func:`inject` call.
ENV_VAR = "REPRO_FAULTS"

_plan: FaultPlan | None = None
#: rule index -> matching-hit count (per process, reset on activation).
_hits: dict[int, int] = {}
#: rule indexes already fired under ``once``.
_fired: set[int] = set()
#: Whether ENV_VAR has been consulted in this process.
_env_checked = False


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as this process's active fault plan.

    Resets hit counters and per-process ``once`` state; returns the
    plan (handy for ``activate(FaultPlan.from_json(path))``).
    """
    global _plan, _env_checked
    _plan = plan
    _hits.clear()
    _fired.clear()
    _env_checked = True
    return plan


def deactivate() -> None:
    """Drop the active plan (idempotent); also blocks env re-activation
    for this process, so tests deactivate cleanly under REPRO_FAULTS."""
    global _plan, _env_checked
    _plan = None
    _hits.clear()
    _fired.clear()
    _env_checked = True


def reset() -> None:
    """Forget all fault state *including* the env check (tests)."""
    global _plan, _env_checked
    _plan = None
    _hits.clear()
    _fired.clear()
    _env_checked = False


def active_plan() -> FaultPlan | None:
    """The currently active plan, if any (env-activated lazily)."""
    _check_env()
    return _plan


def _check_env() -> None:
    global _env_checked, _plan
    if _env_checked:
        return
    _env_checked = True
    spec = os.environ.get(ENV_VAR)
    if spec:
        _plan = FaultPlan.from_json(spec)


def _burn_fuse(path: str) -> bool:
    """Atomically claim a cross-process one-shot fuse; True = we fire."""
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return False  # unwritable fuse path: fail safe, never fire
    os.close(fd)
    return True


def _fire(rule: FaultRule, point: str, key: str | None, hit: int) -> None:
    from repro.telemetry.events import get_bus  # noqa: PLC0415 (cycle)
    from repro.telemetry.metrics import get_registry  # noqa: PLC0415

    get_registry().inc("faults.injected")
    get_bus().event(
        "fault.injected", level="warning", point=point, mode=rule.mode,
        key=key, hit=hit, pid=os.getpid(),
    )
    if rule.mode == "delay":
        time.sleep(rule.delay)
        return
    if rule.mode == "crash":
        # A segfault/OOM-kill stand-in: no unwinding, no atexit, the
        # worker just disappears and the pool breaks.
        os._exit(rule.exit_code)
    message = f"injected fault at {point}" + (f" (key={key})" if key else "")
    if rule.error == "os":
        raise OSError(message)
    if rule.error == "store":
        raise StoreError(message)
    raise InjectedFault(message)


def inject(point: str, key: str | None = None) -> None:
    """Fire any active fault rule matching ``point`` (and ``key``).

    The instrumented call site's one-liner.  No-op (one global check)
    without an active plan.  ``error`` rules raise out of this call;
    ``delay`` rules sleep; ``crash`` rules never return.
    """
    if _plan is None and _env_checked:
        return
    _check_env()
    plan = _plan
    if plan is None:
        return
    for index, rule in enumerate(plan.rules):
        if not rule.matches(point, key):
            continue
        hit = _hits.get(index, 0) + 1
        _hits[index] = hit
        if not rule.decide(plan.seed, index, key, hit):
            continue
        if rule.once and index in _fired:
            continue
        if rule.fuse is not None and not _burn_fuse(rule.fuse):
            continue
        _fired.add(index)
        _fire(rule, point, key, hit)


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope a plan to a ``with`` block (tests, chaos soak harnesses)."""
    global _plan, _env_checked
    previous, previous_checked = _plan, _env_checked
    activate(plan)
    try:
        yield plan
    finally:
        _plan, _env_checked = previous, previous_checked
        _hits.clear()
        _fired.clear()
