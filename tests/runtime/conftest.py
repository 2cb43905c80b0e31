"""Shared helpers for the runtime test modules.

The campaign determinism and fault-injection suites all compare ledgers
for bit-identity; the scrub list of transient per-run fields lives here
once so a future addition (another pid-like entry) cannot silently make
only *some* comparisons flaky.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings

from repro.runtime import RunService

#: The wide search of ``test_coordinator_machine.py`` (tier-1 runs a
#: small derandomized one): ``--hypothesis-profile=coordinator-machine
#: --hypothesis-seed=N``.  Registered here, before pytest loads the
#: profile named on its command line.
MACHINE_PROFILE = "coordinator-machine"
settings.register_profile(
    MACHINE_PROFILE, max_examples=300, stateful_step_count=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The wide search of ``test_supervisor_machine.py``, the same way:
#: ``--hypothesis-profile=supervisor-machine --hypothesis-seed=N``.
SUPERVISOR_PROFILE = "supervisor-machine"
settings.register_profile(
    SUPERVISOR_PROFILE, max_examples=1000, stateful_step_count=50,
    deadline=None, suppress_health_check=[HealthCheck.too_slow],
)
#: The wide search of ``test_campaign_determinism.py``, the same way:
#: ``--hypothesis-profile=determinism --hypothesis-seed=N``.
DETERMINISM_PROFILE = "determinism"
settings.register_profile(
    DETERMINISM_PROFILE, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The wide search of ``test_ledger_digest.py``, the same way:
#: ``--hypothesis-profile=ledger-digest --hypothesis-seed=N``.
LEDGER_DIGEST_PROFILE = "ledger-digest"
settings.register_profile(
    LEDGER_DIGEST_PROFILE, max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def failing(spec, app):
    """A fault plan under which every cell of ``spec`` running ``app``
    fails: one ``worker.execute`` error rule per cell, keyed by its
    digest (a spec that loads has no cell that fails on its own)."""
    from repro.faults import FaultPlan, FaultRule

    return FaultPlan(rules=tuple(
        FaultRule("worker.execute", match_key=cell.digest)
        for cell in spec.cells() if cell.app == app
    ))


def comparable_profile(profile) -> dict:
    """Profile dict minus transient run identity.

    Delegates to :func:`repro.runtime.campaign.comparable_artifact` —
    the library's own scrub list (used by ``ledger_digest`` and the CI
    chaos-convergence check), so tests and production comparisons can
    never drift apart.
    """
    from repro.runtime import comparable_artifact

    return comparable_artifact(profile)


def ledger_dict(store, name: str) -> dict:
    """The campaign ledger in comparable form: digest -> scrubbed dict."""
    from repro.runtime import ledger

    return {
        digest: comparable_profile(profile)
        for digest, profile in ledger(store, name).items()
    }


class VirtualClock:
    """A clock only the test moves: ``clock()`` reads it, ``advance``
    moves it.  Handed to the coordinator's workers and heartbeats, it
    stamps their markers and decides liveness, so lease expiry happens
    when the test says and never by waiting."""

    def __init__(self, now: float = 1_000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class DyingService(RunService):
    """A run service whose process is killed after ``batches`` batches:
    the next batch raises ``KeyboardInterrupt``, after ``death`` (what
    else dies with the process) ran."""

    def __init__(
        self, batches: int, processes: int | None = None, death=lambda: None
    ) -> None:
        super().__init__(processes=processes)
        self.batches, self.death = batches, death

    def run(self, requests, processes=None, rethrow=True):
        if self.batches <= 0:
            self.death()
            raise KeyboardInterrupt
        self.batches -= 1
        return super().run(requests, processes=processes, rethrow=rethrow)
