"""An emulation is laid out once and bound per machine.

The run service's :class:`~repro.runtime.execute.Emulation` keeps the
engine :class:`~repro.sim.engine.Layout` of its compiled workload, so a
profile emulated on four machines in one batch lays out once and binds
four plans (``engine.layouts.built`` / ``engine.plans.built``).  The
layout goes with the emulation when the scope closes: a second batch
lays out again.
"""

from __future__ import annotations

from repro.core.config import SynapseConfig
from repro.runtime import RunRequest, RunService
from repro.telemetry.metrics import get_registry

MACHINES = ("thinkie", "comet", "stampede", "archer")


def counts() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("engine.layouts.built", 0.0),
        counters.get("engine.plans.built", 0.0),
    )


def emulate(profile, machine: str) -> RunRequest:
    return RunRequest(
        kind="emulate", target=profile, machine=machine, config=SynapseConfig()
    )


def batch_counts(service: RunService, profile) -> tuple[float, float]:
    layouts0, plans0 = counts()
    results = service.run([emulate(profile, machine) for machine in MACHINES])
    assert all(result.ok for result in results)
    layouts1, plans1 = counts()
    return layouts1 - layouts0, plans1 - plans0


def test_four_machines_in_one_batch_share_one_layout(gromacs_profile):
    with RunService(processes=1) as service:
        assert batch_counts(service, gromacs_profile) == (1, 4)


def test_each_batch_lays_out_again(gromacs_profile):
    with RunService(processes=1) as service:
        first = batch_counts(service, gromacs_profile)
        second = batch_counts(service, gromacs_profile)
    assert (first, second) == ((1, 4), (1, 4))
