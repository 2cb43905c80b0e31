"""Prepare once, replay per seed — inside one run-service batch.

A batch's requests that share ``(target, machine)`` share one engine
plan: the first of them resolves the machine, builds the workload and
prepares it *inside its own attempt*; the rest replay it under their
own noise.  The plan table lives and dies with the batch.  Pinned here:

* equivalence — a batch, the same requests one per batch, and
  sequential ``Profiler(SimBackend(...)).run(...)`` produce
  ``to_dict()``-equal profiles, for ``processes=1`` and ``2``; same for
  ``engine`` requests and ``SimBackend.run_many``;
* failure — a plan that cannot be built fails *each* request with the
  enriched message, is never cached, and a retry rebuilds;
* scope — an app mutated between two batches is seen, and nothing keeps
  a plan alive after ``run()`` returns;
* the program-side counts: a 512-cell, checkpoint-8 profile campaign
  builds 64 plans and reuses 448.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import GromacsModel, SleeperApp
from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.runtime import CampaignSpec, RunRequest, RunService, run_campaign
from repro.runtime.service import RunPolicy
from repro.sim import engine as engine_module
from repro.sim.backend import SimBackend
from repro.sim.engine import Engine, Prepared
from repro.sim.machines import get_machine
from repro.sim.packed import pack_workload
from repro.storage.base import MemoryStore
from repro.telemetry.metrics import get_registry

MACHINES = ("thinkie", "comet", "stampede", "archer")
CONFIG = {"sample_rate": 2.0}


@pytest.fixture(scope="module")
def service():
    with RunService() as svc:
        yield svc


def exact(profile) -> str:
    """A profile as the JSON it serialises to — key order included —
    minus the two fields that say when and by which process it ran."""
    doc = profile.to_dict()
    doc.pop("created")
    doc["info"] = dict(doc["info"])
    doc["info"]["process"] = {
        k: v for k, v in doc["info"]["process"].items() if k != "pid"
    }
    return json.dumps(doc)


def record_key(record) -> tuple:
    return (
        record.duration,
        tuple(record.phase_bounds),
        tuple(
            (name, series.times.tobytes(), series.values.tobytes())
            for group in (record.counters, record.levels)
            for name, series in sorted(group.items())
        ),
        len(record.io_events),
    )


def plan_counts() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("engine.plans.built", 0.0),
        counters.get("engine.plans.reused", 0.0),
    )


apps = st.one_of(
    st.builds(
        GromacsModel,
        iterations=st.integers(min_value=1_000, max_value=200_000),
    ),
    st.builds(
        SleeperApp,
        sleep_seconds=st.floats(min_value=0.5, max_value=4.0),
    ),
)


def profile_requests(app, machine, seeds, repeats) -> list[RunRequest]:
    return [
        RunRequest(
            kind="profile", target=app, machine=machine, config=dict(CONFIG),
            seed=seed, index=rep + 1, tags=app.tags(), command=app.command(),
        )
        for seed in seeds for rep in range(repeats)
    ]


# -- equivalence -----------------------------------------------------------------


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    app=apps,
    machine=st.sampled_from(MACHINES),
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3, unique=True),
    repeats=st.integers(1, 2),
)
@pytest.mark.parametrize("processes", [1, 2])
def test_profile_batch_equals_singles_equals_sequential(
    service, processes, app, machine, seeds, repeats
):
    requests = profile_requests(app, machine, seeds, repeats)
    batch = [
        exact(result.value) for result in service.run(requests, processes=processes)
    ]
    singles = [
        exact(service.run([request], processes=processes)[0].value)
        for request in requests
    ]
    sequential = [
        exact(
            Profiler(
                SimBackend(machine, seed=request.seed, spawn_offset=request.index - 1),
                config=SynapseConfig(**CONFIG),
            ).run(app, tags=request.tags, command=request.command)
        )
        for request in requests
    ]
    assert batch == singles == sequential


@settings(
    max_examples=6, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    app=apps,
    seeds=st.lists(st.integers(0, 2**31 - 1), min_size=1, max_size=3, unique=True),
    noisy=st.booleans(),
)
@pytest.mark.parametrize("processes", [1, 2])
def test_engine_batch_equals_singles_equals_direct(
    service, processes, app, seeds, noisy
):
    requests = [
        RunRequest(kind="engine", target=app, machine=machine, seed=seed, noisy=noisy)
        for seed in seeds for machine in MACHINES[:2]
    ]
    batch = [
        record_key(result.value)
        for result in service.run(requests, processes=processes)
    ]
    singles = [
        record_key(service.run([request], processes=processes)[0].value)
        for request in requests
    ]
    direct = [
        record_key(
            SimBackend(request.machine, noisy=noisy, seed=request.seed)
            .spawn(app).record
        )
        for request in requests
    ]
    assert batch == singles == direct


@pytest.mark.parametrize("processes", [1, 2])
def test_run_many_equals_sequential_spawns(service, processes):
    app = GromacsModel(iterations=20_000)
    packed = app.build_packed(get_machine("comet"))
    targets = [app, packed, app, packed, app]
    many = SimBackend("comet", seed=5).run_many(
        targets, processes=processes, service=service
    )
    backend = SimBackend("comet", seed=5)
    sequential = [backend.spawn(target).record for target in targets]
    assert [record_key(r) for r in many] == [record_key(r) for r in sequential]


# -- the counts ------------------------------------------------------------------


def test_campaign_builds_one_plan_per_wave_and_reuses_it():
    """512 cells in waves of 8 over 8 (app, machine) pairs: every wave
    shares exactly one pair, so 64 plans are built and 448 runs reuse."""
    spec = CampaignSpec.from_dict({
        "name": "counts", "kind": "profile",
        "apps": ["gromacs:iterations=2000", "sleeper:sleep_seconds=1"],
        "machines": list(MACHINES),
        "seeds": list(range(32)), "repeats": 2,
        "config": dict(CONFIG),
    })
    assert spec.n_cells == 512
    built0, reused0 = plan_counts()
    with RunService(processes=1) as svc:
        report = run_campaign(spec, MemoryStore(), service=svc, checkpoint=8)
    built1, reused1 = plan_counts()
    assert report.executed == 512 and not report.failed
    assert (built1 - built0, reused1 - reused0) == (64, 448)


def test_cells_of_one_spec_share_one_app_model():
    spec = CampaignSpec.from_dict({
        "name": "shared", "apps": ["gromacs:iterations=2000"],
        "machines": ["thinkie"], "seeds": [1, 2, 3],
    })
    targets = {id(cell.to_request().target) for cell in spec.cells()}
    assert len(targets) == 1
    other = CampaignSpec.from_dict({
        "name": "shared", "apps": ["gromacs:iterations=2000"],
        "machines": ["thinkie"], "seeds": [1, 2, 3],
    })
    assert other.cells()[0].to_request().target is not spec.cells()[0].to_request().target


# -- failure ---------------------------------------------------------------------


class BrokenApp(SleeperApp):
    """Builds fail until ``failures`` of them have been burnt."""

    def __init__(self, failures: int) -> None:
        super().__init__(sleep_seconds=1.0)
        self.failures = failures
        self.builds = 0

    def build_packed(self, machine):
        self.builds += 1
        if self.builds <= self.failures:
            raise OSError(f"build {self.builds} failed")
        return super().build_packed(machine)


def test_unknown_machine_fails_each_request_with_its_own_context():
    app = SleeperApp(sleep_seconds=1.0)
    requests = [
        RunRequest(
            kind="profile", target=app, machine="nosuchmachine", seed=seed,
            key=f"cell-{seed}", policy=RunPolicy(retries=1),
        )
        for seed in range(3)
    ]
    with RunService(processes=1) as svc:
        results = svc.run(requests, rethrow=False)
    for seed, result in enumerate(results):
        assert not result.ok
        assert f"profile request key=cell-{seed}" in result.error
        assert "attempt 2/2" in result.error  # KeyError is retried
        assert "nosuchmachine" in result.error


def test_failed_build_is_never_cached():
    app = BrokenApp(failures=10**6)
    requests = [
        RunRequest(kind="engine", target=app, machine="thinkie", seed=seed,
                   key=f"cell-{seed}")
        for seed in range(4)
    ]
    with RunService(processes=1) as svc:
        results = svc.run(requests, rethrow=False)
    assert app.builds == 4  # every request tried for itself
    for seed, result in enumerate(results):
        assert not result.ok
        assert f"engine request key=cell-{seed} (attempt 1/1" in result.error
        assert f"build {seed + 1} failed" in result.error


def test_build_failing_once_is_retried_then_shared():
    app = BrokenApp(failures=1)
    requests = [
        RunRequest(kind="engine", target=app, machine="thinkie", seed=seed,
                   policy=RunPolicy(retries=1))
        for seed in range(4)
    ]
    with RunService(processes=1) as svc:
        results = svc.run(requests, rethrow=False)
    assert all(result.ok for result in results)
    assert app.builds == 2  # one failure, one success, three reuses


def test_injected_fault_retry_rebuilds_instead_of_reusing_a_half_built_plan():
    from repro.faults import FaultPlan, injected_faults

    app = BrokenApp(failures=0)
    requests = [
        RunRequest(kind="profile", target=app, machine="thinkie", seed=seed,
                   config=dict(CONFIG), policy=RunPolicy(retries=2))
        for seed in range(3)
    ]
    reference = [
        exact(result.value)
        for result in RunService(processes=1).run(requests)
    ]
    app.builds = 0
    # The first two hits of the fault point are the first request's
    # first two attempts: no plan exists yet when either fires.
    plan = FaultPlan.from_dict({"rules": [
        {"point": "worker.execute", "mode": "error", "at": 1},
        {"point": "worker.execute", "mode": "error", "at": 2},
    ]})
    with injected_faults(plan):
        results = RunService(processes=1).run(requests, rethrow=False)
    assert all(result.ok for result in results)
    assert app.builds == 1  # built by the attempt that got through
    assert [exact(result.value) for result in results] == reference


# -- scope -----------------------------------------------------------------------


def test_app_mutated_between_batches_is_seen(service):
    app = GromacsModel(iterations=10_000)
    request = RunRequest(kind="engine", target=app, machine="thinkie", noisy=False)
    first = service.run([request, request], processes=1)
    assert first[0].value.duration == first[1].value.duration
    app.iterations = 40_000
    second = service.run([request], processes=1)[0].value
    assert second.duration > first[0].value.duration
    fresh = Engine(get_machine("thinkie")).run(
        GromacsModel(iterations=40_000).build_packed(get_machine("thinkie"))
    )
    assert second.duration == fresh.duration


def test_nothing_holds_a_plan_after_run_returns(monkeypatch):
    plans: list[weakref.ref] = []
    prepare = Engine.prepare

    def tracking_prepare(self, workload):
        plan = prepare(self, workload)
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(engine_module.Engine, "prepare", tracking_prepare)
    app = GromacsModel(iterations=5_000)
    svc = RunService(processes=1)
    results = svc.run(
        profile_requests(app, "thinkie", seeds=[1, 2, 3], repeats=1)
        + [RunRequest(kind="engine", target=app, machine="comet", seed=s)
           for s in (1, 2)]
    )
    assert len(plans) == 2 and all(result.ok for result in results)
    gc.collect()
    # The results (profiles, records) are still alive here; the plans are not.
    assert [ref() for ref in plans] == [None, None]
    assert not any(isinstance(obj, Prepared) for obj in gc.get_objects())
    svc.close()


def test_prepared_plans_survive_the_pool_boundary(service):
    """Pooled chunks rebuild their own tables; results stay identical
    however the batch is chunked."""
    app = GromacsModel(iterations=8_000)
    requests = profile_requests(app, "stampede", seeds=list(range(9)), repeats=1)
    pooled = [exact(r.value) for r in service.run(requests, processes=2)]
    serial = [exact(r.value) for r in service.run(requests, processes=1)]
    assert pooled == serial


def test_packed_target_shared_by_identity(service):
    machine = get_machine("thinkie")
    packed = pack_workload(
        GromacsModel(iterations=3_000).build_workload(machine)
    )
    built0, reused0 = plan_counts()
    results = service.run(
        [RunRequest(kind="engine", target=packed, machine=machine, seed=s)
         for s in range(5)],
        processes=1,
    )
    built1, reused1 = plan_counts()
    assert (built1 - built0, reused1 - reused0) == (1, 4)
    durations = {result.value.duration for result in results}
    assert len(durations) == 5  # five seeds, five noise draws
    assert np.isfinite(list(durations)).all()
