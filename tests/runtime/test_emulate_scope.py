"""Emulate requests in the plan scope: compile once, replay per pair.

An ``emulate`` request's pair in a plan scope is (its
:class:`~repro.runtime.execute.Emulation`, machine).  The emulation is
found by the identity of the profile (or plan) the request names plus
the :class:`~repro.core.plan.BuildSettings` its config resolves to, so a
profile emulated on several machines — or under fresh but equal configs
— is compiled once, and the seeds of one pair replay as one block.
Pinned here: the compile and block counts (in one batch, and across the
batches of a scope declared ahead, as a campaign declares its sweep),
the results against a direct ``Emulator(SimBackend(...)).replay(plan)``,
pooled against in-parent, per-request failures and retries, and that
the scope lets go of an emulation with its last pair.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.plan import EmulationPlan
from repro.core.samples import Profile
from repro.faults import InjectedFault
from repro.runtime import RunRequest, RunService
from repro.runtime.execute import Emulation, plan_scope
from repro.runtime.service import RunPolicy
from repro.sim.backend import SimBackend
from repro.telemetry.events import get_bus

MACHINES = ("thinkie", "comet", "stampede", "archer")


def spans(fn, *names):
    """``fn()`` and the span events of each of ``names`` it emitted."""
    with get_bus().capture() as events:
        value = fn()
    return value, [
        [e for e in events if e.kind == "span" and e.name == name] for name in names
    ]


def emulate(profile, machine, seed=0, index=1, config=None, **extra):
    return RunRequest(
        kind="emulate", target=profile, machine=machine, seed=seed, index=index,
        config=SynapseConfig() if config is None else config, **extra,
    )


def direct(profile, request):
    """The emulation the request stands for, outside the service."""
    backend = SimBackend(
        request.machine, noisy=request.noisy, seed=request.seed,
        spawn_offset=request.index - 1,
    )
    return Emulator(backend=backend, config=request.config).replay(
        EmulationPlan.from_profile(profile, request.config)
    )


def same(result, expected) -> None:
    assert result.tx == expected.tx
    assert result.plan == expected.plan
    assert (result.backend, result.machine, result.info) == (
        expected.backend, expected.machine, expected.info,
    )
    assert result.handle.record == expected.handle.record  # folds both


def test_a_profile_on_four_machines_compiles_once(gromacs_profile):
    requests = [emulate(gromacs_profile, machine) for machine in MACHINES]
    with RunService(processes=1) as service:
        results, (compiles, replays) = spans(
            lambda: service.run(requests), "emulate.compile", "engine.replay"
        )
    assert len(compiles) == 1
    assert compiles[0].attrs["samples"] == len(gromacs_profile.samples)
    assert compiles[0].attrs["demands"] > compiles[0].attrs["samples"]
    assert [span.attrs["rows"] for span in replays] == [1, 1, 1, 1]
    for request, result in zip(requests, results):
        same(result.value, direct(gromacs_profile, request))


def test_two_seeds_on_one_pair_replay_as_one_block(gromacs_profile):
    requests = [emulate(gromacs_profile, "comet", seed=seed) for seed in (5, 6)]
    with RunService(processes=1) as service:
        results, (replays, runs) = spans(
            lambda: service.run(requests), "engine.replay", "engine.run"
        )
    assert [span.attrs["rows"] for span in replays] == [2]
    assert runs == []
    assert results[0].value.tx != results[1].value.tx  # two noise draws
    for request, result in zip(requests, results):
        same(result.value, direct(gromacs_profile, request))


@pytest.mark.parametrize("change, compiles", [
    ({"cpu_load": 0.5}, 2),
    ({"openmp_threads": 4}, 2),
    ({"io_block_size_write": "4KB"}, 2),
    ({"sample_rate": 2.0}, 1),  # the build does not read it
    ({}, 1),  # a fresh but equal config
    ({"disk_load": 0.5}, 2),
    ({"mem_load": "512MB"}, 2),
])
def test_configs_share_a_compile_when_their_build_settings_are_equal(
    gromacs_profile, change, compiles
):
    requests = [
        emulate(gromacs_profile, "comet", config=SynapseConfig()),
        emulate(gromacs_profile, "archer", config=SynapseConfig(**change)),
    ]
    with RunService(processes=1) as service:
        results, (spans_,) = spans(lambda: service.run(requests), "emulate.compile")
    assert len(spans_) == compiles
    for request, result in zip(requests, results):
        same(result.value, direct(gromacs_profile, request))


def test_auto_block_sizes_key_on_the_resolved_value(gromacs_profile):
    """``"auto"`` resolves against the plan (1 MB without profiled block
    sizes), so it shares the compile of an explicit 1 MB."""
    requests = [
        emulate(gromacs_profile, "comet", config=SynapseConfig(io_block_size_read="auto")),
        emulate(gromacs_profile, "comet", seed=1, config=SynapseConfig(io_block_size_read="1MB")),
    ]
    with RunService(processes=1) as service:
        _, (compiles, replays) = spans(
            lambda: service.run(requests), "emulate.compile", "engine.replay"
        )
    assert len(compiles) == 1 and [s.attrs["rows"] for s in replays] == [2]


def test_a_scope_declared_ahead_compiles_once_across_batches(gromacs_profile):
    """A campaign declares its sweep in its scope before the first wave:
    then every wave's batch shares one compile per emulation."""
    requests = [emulate(gromacs_profile, m, seed=s) for m in MACHINES for s in (1, 2)]
    with RunService(processes=1) as service, plan_scope() as plans:
        plans.declare_requests(requests)
        results, (compiles, replays) = spans(
            lambda: [r for wave in (requests[:3], requests[3:]) for r in service.run(wave)],
            "emulate.compile", "engine.replay",
        )
        assert plans.emulations == {} and plans.groups == {}
    assert len(compiles) == 1
    assert [span.attrs["rows"] for span in replays] == [2, 2, 2, 2]
    for request, result in zip(requests, results):
        same(result.value, direct(gromacs_profile, request))


def test_pooled_equals_in_parent(gromacs_profile, gromacs_profile_large):
    requests = [
        emulate(profile, machine, seed=seed, config=SynapseConfig(**config))
        for profile in (gromacs_profile, gromacs_profile_large)
        for machine in MACHINES
        for seed in (1, 2)
        for config in ({}, {"mpi_processes": 2})
    ]
    with RunService() as service:
        pooled = service.run(requests, processes=2)
        in_parent = service.run(requests, processes=1)
    for a, b in zip(pooled, in_parent):
        same(a.value, b.value)
    for request, result in zip(requests[:4], in_parent):
        same(result.value, direct(request.target, request))


def test_a_plan_target_is_emulated_as_it_is(gromacs_profile):
    plan = EmulationPlan.from_profile(gromacs_profile).regrid(2)
    requests = [emulate(plan, machine) for machine in MACHINES[:2]]
    with RunService(processes=1) as service:
        results, (compiles,) = spans(lambda: service.run(requests), "emulate.compile")
    assert len(compiles) == 1
    assert all(result.value.plan is plan for result in results)


def test_a_target_that_cannot_be_emulated_fails_alone(gromacs_profile):
    empty = Profile(command="nothing", samples=[])
    requests = [
        emulate(gromacs_profile, "comet"),
        emulate(empty, "comet"),
        emulate("a stored command", "comet"),
        emulate(gromacs_profile, "archer"),
    ]
    with RunService(processes=1) as service:
        results = service.run(requests, rethrow=False)
    assert [result.ok for result in results] == [True, False, False, True]
    assert "EmulationError" in results[1].error
    assert "cannot emulate str" in results[2].error


def test_a_failed_compile_is_retried_under_its_requests_policy(
    gromacs_profile, monkeypatch
):
    """The first compile fails (retryably): the request that hit it is
    retried and compiles again; its siblings share that compile."""
    build = EmulationPlan.build_packed_workload
    calls = []

    def fails_once(self, config, machine=None):
        calls.append(machine)
        if len(calls) == 1:
            raise InjectedFault("compile")
        return build(self, config, machine)

    monkeypatch.setattr(EmulationPlan, "build_packed_workload", fails_once)
    policy = RunPolicy(retries=1)
    requests = [emulate(gromacs_profile, m, policy=policy) for m in MACHINES]
    with RunService(processes=1) as service:
        results = service.run(requests)
    assert len(calls) == 2
    monkeypatch.setattr(EmulationPlan, "build_packed_workload", build)
    for request, result in zip(requests, results):
        same(result.value, direct(gromacs_profile, request))


def test_the_scope_lets_go_of_an_emulation_with_its_last_pair(
    gromacs_profile, monkeypatch
):
    """An outer scope (a campaign's) keeps no emulation, and no compiled
    workload, once the last declared pair of it is taken."""
    compiled = []
    build = EmulationPlan.build_packed_workload

    def tracking(self, config, machine=None):
        workload = build(self, config, machine)
        compiled.append(weakref.ref(workload))
        return workload

    monkeypatch.setattr(EmulationPlan, "build_packed_workload", tracking)
    requests = [emulate(gromacs_profile, m) for m in MACHINES] + [
        emulate(gromacs_profile, "comet", config=SynapseConfig(cpu_load=1.0))
    ]
    with RunService(processes=1) as service, plan_scope() as plans:
        results = service.run(requests)
        assert plans.emulations == {} and plans.groups == {}
        assert len(compiled) == 2
        gc.collect()
        # The results are alive here; the emulations and their builds are not.
        assert [ref() for ref in compiled] == [None, None]
        assert not any(isinstance(obj, Emulation) for obj in gc.get_objects())
    assert all(result.ok for result in results)
