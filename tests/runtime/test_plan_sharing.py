"""Prepare once, replay the seeds in blocks — inside one plan scope.

Requests that share ``(target, machine)`` inside a plan scope share one
engine plan: the first of them to be attempted resolves the machine,
builds the workload, prepares it and replays the next block of the
pair's declared rows *inside its own attempt*; the rest take their
record from the group.  A run-service batch on its own is a scope; a
campaign (``run_campaign``, ``elastic_worker``) is one scope for all its
waves.  Pinned here:

* equivalence — a batch, the same requests one per batch, and
  sequential ``Profiler(SimBackend(...)).run(...)`` produce
  ``to_dict()``-equal profiles, for ``processes=1`` and ``2``; same for
  ``engine`` requests and ``SimBackend.run_many``;
* failure — a plan that cannot be built fails *each* request with the
  enriched message, is never cached, and a retry rebuilds; so does a
  config that does not validate;
* scope — an app mutated between two batches is seen, and nothing keeps
  a plan or a record alive after ``run()`` or ``run_campaign()``
  returns, whatever ended the sweep;
* the program-side counts: a 512-cell, checkpoint-8 profile campaign
  builds 8 plans and reuses 504, in 8 blocks of 64 rows;
* blocks — a pair bigger than a block replays a block at a time and
  never has more than one waiting; a request retried after taking its
  record replays alone; a fault on a group's first request, or a failed
  block, does not fail the siblings; rows are told apart by noise
  identity, and equal ones each get a record;
* the scope reaches the executor through services that override or
  wrap ``run(requests, processes, rethrow)``;
* chunks — ``_split_chunks`` keeps plans together, and a pooled batch
  equals the serial one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import GromacsModel, SleeperApp
from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.runtime import (
    CampaignSpec,
    RunRequest,
    RunService,
    elastic_worker,
    ledger_digest,
    run_campaign,
)
from repro.runtime import execute as execute_module
from repro.runtime.campaign import _engine_summary
from repro.runtime.execute import noise_row, plan_scope
from repro.runtime.service import (
    CHUNKS_PER_WORKER,
    RunPolicy,
    _pack,
    _plan_names,
    _split_chunks,
)
from repro.sim import engine as engine_module
from repro.sim.backend import SimBackend
from repro.sim.engine import Engine, Prepared
from repro.sim.machines import get_machine
from repro.sim.packed import pack_workload
from repro.storage.base import MemoryStore
from repro.telemetry.metrics import get_registry
from repro.watchers.base import WatcherBase
from repro.watchers.registry import _REGISTRY, register

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


def replay_counts() -> tuple[float, float, float]:
    counters = get_registry().snapshot()["counters"]
    return tuple(
        counters.get(f"engine.replay.{name}", 0.0)
        for name in ("blocks", "rows", "split_rows")
    )


def profile_counts() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("profile.blocks", 0.0),
        counters.get("profile.block_rows", 0.0),
    )


def fold_counts() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("engine.fold.blocks", 0.0),
        counters.get("engine.fold.rows", 0.0),
    )


def block_budget(monkeypatch, app, machine: str, rows: int) -> None:
    """Make one replay block of ``app`` on ``machine`` hold ``rows`` rows."""
    spec = get_machine(machine)
    slots = Engine(spec).prepare(app.build_packed(spec)).slot_values.size
    monkeypatch.setattr(engine_module, "_BLOCK_ELEMENTS", rows * slots)


def spy_on_blocks(monkeypatch) -> tuple[list[int], list[weakref.ref]]:
    """The size of every block replayed from here on, and a weak
    reference to every record made, to the fold's block they share, and
    to every profile a block pass takes of them."""
    sizes: list[int] = []
    records: list[weakref.ref] = []
    replay_many = Engine.replay_many
    run_many = Profiler.run_many

    def spying(self, plan, noises):
        made = replay_many(self, plan, noises)
        sizes.append(len(made))
        records.extend(map(weakref.ref, made))
        records.extend({id(r.block): weakref.ref(r.block) for r in made}.values())
        return made

    def spying_on_profiles(self, targets, tags=None, command=None):
        made = run_many(self, targets, tags, command)
        records.extend(map(weakref.ref, made))
        return made

    monkeypatch.setattr(engine_module.Engine, "replay_many", spying)
    monkeypatch.setattr(Profiler, "run_many", spying_on_profiles)
    return sizes, records


def pair_spec(name: str, kind: str = "profile", seeds: int = 4, **extra):
    """Two (app, machine) pairs of ``2 * seeds`` cells each."""
    return CampaignSpec.from_dict({
        "name": name, "kind": kind,
        "apps": ["gromacs:iterations=2000", "sleeper:sleep_seconds=1"],
        "machines": ["thinkie"],
        "seeds": list(range(seeds)), "repeats": 2,
        "config": dict(CONFIG) if kind == "profile" else {},
        **extra,
    })


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


def test_campaign_builds_one_plan_per_pair_and_reuses_it():
    """512 cells in waves of 8 over 8 (app, machine) pairs: the waves
    execute in the campaign's scope, so 8 plans are built and 504 runs
    reuse."""
    spec = CampaignSpec.from_dict({
        "name": "counts", "kind": "profile",
        "apps": ["gromacs:iterations=2000", "sleeper:sleep_seconds=1"],
        "machines": list(MACHINES),
        "seeds": list(range(32)), "repeats": 2,
        "config": dict(CONFIG),
    })
    assert spec.n_cells == 512
    built0, reused0 = plan_counts()
    replayed0 = replay_counts()
    profiled0 = profile_counts()
    folded0 = fold_counts()
    with RunService(processes=1) as svc:
        report = run_campaign(spec, MemoryStore(), service=svc, checkpoint=8)
    built1, reused1 = plan_counts()
    replayed1 = replay_counts()
    profiled1 = profile_counts()
    folded1 = fold_counts()
    assert report.executed == 512 and not report.failed
    assert (built1 - built0, reused1 - reused0) == (8, 504)
    # ... and every pair replayed as one block of 64, none split,
    assert tuple(b - a for a, b in zip(replayed0, replayed1)) == (8, 512, 0)
    # and was profiled as that block.
    assert tuple(b - a for a, b in zip(profiled0, profiled1)) == (8, 512)
    # Every record is profiled, so every block is folded — once.
    assert tuple(b - a for a, b in zip(folded0, folded1)) == (8, 512)


def _tx(record) -> float:
    return record.duration


def test_a_tx_only_batch_folds_nothing():
    """``engine`` requests whose ``reduce`` reads only Tx replay their
    rows and never build a counter or level series."""
    app = GromacsModel(iterations=4_000)
    requests = [
        RunRequest(kind="engine", target=app, machine=machine, seed=seed, reduce=_tx)
        for machine in ("thinkie", "comet") for seed in range(6)
    ]
    replayed0, folded0 = replay_counts(), fold_counts()
    with RunService(processes=1) as svc:
        results = svc.run(requests)
    replayed1, folded1 = replay_counts(), fold_counts()
    assert all(result.ok and result.value > 0.0 for result in results)
    assert tuple(b - a for a, b in zip(replayed0, replayed1)) == (2, 12, 0)
    assert folded1 == folded0
    # The same Tx as the records of requests that return them whole.
    with RunService(processes=1) as svc:
        whole = svc.run([replace(request, reduce=None) for request in requests])
    assert [r.value.duration for r in whole] == [r.value for r in results]


def test_validate_plan_folds_nothing():
    from repro.predict.models import DemandVector, Task
    from repro.predict.placement import plan_greedy_eft
    from repro.predict.validate import validate_plan

    tasks = [
        Task(name=f"sim{i}", demand=DemandVector(
            instructions=4e9, workload_class="app.md", io_write_bytes=16 << 20,
        ))
        for i in range(6)
    ]
    plan = plan_greedy_eft(tasks, ("titan", "comet", "supermic"))
    replayed0, folded0 = replay_counts(), fold_counts()
    report = validate_plan(plan, tasks, noisy=True, processes=1)
    assert report.emulated_makespan > 0.0
    assert replay_counts()[1] > replayed0[1]
    assert fold_counts() == folded0


def _unread(record):
    return record


@pytest.mark.parametrize("reduce", [None, _unread])
def test_an_unreduced_engine_request_returns_a_folded_record(reduce):
    """What leaves a batch holds no plan: the record of a request
    without ``reduce`` — or with one that hands it back unread — is
    folded before it is returned, alone or as a row of a block whose
    other rows are only read for Tx."""
    app = GromacsModel(iterations=4_000)
    requests = [
        RunRequest(kind="engine", target=app, machine="comet", seed=seed,
                   reduce=reduce if seed == 2 else _tx)
        for seed in range(4)
    ]
    folded0 = fold_counts()
    with RunService(processes=1) as svc:
        results = svc.run(requests)
    assert tuple(b - a for a, b in zip(folded0, fold_counts())) == (1, 4)
    record = results[2].value
    block, row = record.__dict__["_replay"]
    assert block._pending is None and record.tables() == (block, row)
    gc.collect()
    assert not any(isinstance(obj, Prepared) for obj in gc.get_objects())
    assert record.totals()["cpu.instructions"] > 0.0


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


def test_bad_config_fails_each_request_with_its_own_context():
    app = SleeperApp(sleep_seconds=1.0)
    requests = [
        RunRequest(
            kind="profile", target=app, machine="thinkie", seed=seed,
            key=f"cell-{seed}", policy=RunPolicy(retries=1),
            config={"sample_rate": -1.0} if seed else dict(CONFIG),
        )
        for seed in range(3)
    ]
    with RunService(processes=1) as svc:
        results = svc.run(requests, rethrow=False)
    assert [result.ok for result in results] == [True, False, False]
    for seed in (1, 2):
        assert f"profile request key=cell-{seed}" in results[seed].error
        assert "attempt 1/2" in results[seed].error  # a ConfigError is fatal
        assert "sample_rate" in results[seed].error


def test_config_mapping_is_resolved_once_per_distinct_mapping(monkeypatch):
    resolved: list = []
    as_config = execute_module._as_config

    def counting(config):
        resolved.append(config)
        return as_config(config)

    app = SleeperApp(sleep_seconds=1.0)
    configs = (
        [dict(CONFIG) for _ in range(4)]
        + [{"sample_rate": 4.0}] * 2
        + [{"sample_rate": 2}]  # equal to CONFIG's, but an int in the profile
        + [{**CONFIG, "extra": {"unhashable": []}} for _ in range(2)]
        + [SynapseConfig(**CONFIG), None]
    )
    requests = [
        RunRequest(kind="profile", target=app, machine="thinkie", seed=seed,
                   config=config)
        for seed, config in enumerate(configs)
    ]
    with RunService(processes=1) as svc:
        singles = [exact(svc.run([request])[0].value) for request in requests]
        monkeypatch.setattr(execute_module, "_as_config", counting)
        batch = [exact(result.value) for result in svc.run(requests)]
    assert batch == singles
    # One each for the three hashable mappings, one per request otherwise.
    assert len(resolved) == 3 + 2 + 2
    assert '"sample_rate": 2.0' in batch[0] and '"sample_rate": 2,' in batch[6]


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


def test_nothing_waits_after_run_returns(monkeypatch):
    """A batch that stops early leaves records and profiles waiting in
    its scope; the scope goes with the batch."""
    from repro.faults import FaultPlan, injected_faults

    sizes, made = spy_on_blocks(monkeypatch)
    app = GromacsModel(iterations=5_000)
    requests = profile_requests(app, "thinkie", seeds=[1, 2, 3, 4], repeats=1)
    faults = FaultPlan.from_dict({"rules": [
        {"point": "worker.execute", "mode": "error", "at": 2},
    ]})
    svc = RunService(processes=1)
    with injected_faults(faults), pytest.raises(Exception, match="injected"):
        svc.run(requests)  # rethrows at the second request
    assert sizes == [4]
    # 4 records, their block, and the 4 profiles of the block pass.
    assert len(made) == 9
    gc.collect()
    assert [ref() for ref in made] == [None] * 9
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


# -- one block per group ---------------------------------------------------------


def test_group_replays_as_one_block():
    app = GromacsModel(iterations=4_000)
    requests = profile_requests(app, "comet", seeds=list(range(8)), repeats=1)
    blocks0, rows0, _ = replay_counts()
    with RunService(processes=1) as svc:
        results = svc.run(requests)
    blocks1, rows1, _ = replay_counts()
    assert all(result.ok for result in results)
    assert (blocks1 - blocks0, rows1 - rows0) == (1, 8)


class FailsOnce:
    """A ``reduce`` that fails the first time it sees a record — after
    the request has taken that record out of its group."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, record):
        self.calls += 1
        if self.calls == 1:
            raise OSError("reduce failed")
        return record


def test_request_retried_after_taking_its_record_replays_alone():
    app = GromacsModel(iterations=4_000)
    reduce = FailsOnce()
    requests = [
        RunRequest(kind="engine", target=app, machine="thinkie", seed=seed,
                   reduce=reduce if seed == 1 else None,
                   policy=RunPolicy(retries=1))
        for seed in range(4)
    ]
    blocks0, rows0, _ = replay_counts()
    built0, _ = plan_counts()
    with RunService(processes=1) as svc:
        results = svc.run(requests)
    blocks1, rows1, _ = replay_counts()
    built1, _ = plan_counts()
    assert reduce.calls == 2
    # One block of four, then the retried request's own row; one plan.
    assert (blocks1 - blocks0, rows1 - rows0) == (2, 5)
    assert built1 - built0 == 1
    direct = [
        record_key(SimBackend("thinkie", seed=seed).spawn(app).record)
        for seed in range(4)
    ]
    assert [record_key(result.value) for result in results] == direct


def test_fault_on_the_first_request_of_a_group_spares_its_siblings():
    from repro.faults import FaultPlan, injected_faults

    app = GromacsModel(iterations=4_000)
    requests = [
        RunRequest(kind="profile", target=app, machine="thinkie", seed=seed,
                   config=dict(CONFIG), key=f"cell-{seed}")
        for seed in range(4)
    ]
    reference = [
        exact(result.value) for result in RunService(processes=1).run(requests)
    ]
    plan = FaultPlan.from_dict({"rules": [
        {"point": "worker.execute", "mode": "error", "at": 1},
    ]})
    blocks0, rows0, _ = replay_counts()
    with injected_faults(plan):
        results = RunService(processes=1).run(requests, rethrow=False)
    blocks1, rows1, _ = replay_counts()
    assert [result.ok for result in results] == [False, True, True, True]
    assert "profile request key=cell-0 (attempt 1/1" in results[0].error
    # The second request became the first to be attempted: it replayed
    # the group's block, the failed request's row included.
    assert (blocks1 - blocks0, rows1 - rows0) == (1, 4)
    assert [exact(result.value) for result in results[1:]] == reference[1:]


def fail_blocks(monkeypatch) -> None:
    """From here on a replay of more than one row fails."""
    replay_many = Engine.replay_many

    def blocks_fail(self, plan, noises):
        if len(noises) > 1:
            raise OSError("block failed")
        return replay_many(self, plan, noises)

    monkeypatch.setattr(engine_module.Engine, "replay_many", blocks_fail)


def test_failed_block_fails_its_request_and_the_rest_replay_alone(monkeypatch):
    app = BrokenApp(failures=0)
    requests = [
        RunRequest(kind="engine", target=app, machine="thinkie", seed=seed,
                   key=f"cell-{seed}")
        for seed in range(4)
    ]
    reference = [
        record_key(result.value)
        for result in RunService(processes=1).run(requests)
    ]
    app.builds = 0
    fail_blocks(monkeypatch)
    results = RunService(processes=1).run(requests, rethrow=False)
    assert [result.ok for result in results] == [False, True, True, True]
    assert "engine request key=cell-0 (attempt 1/1" in results[0].error
    assert "block failed" in results[0].error
    # The failed block stored nothing; the next request built again,
    # replayed alone and left its plan for the other two.
    assert app.builds == 2
    assert [record_key(result.value) for result in results[1:]] == reference[1:]

    # With a retry, the request that paid for the failed block recovers too.
    retried = RunService(processes=1).run(
        [replace(request, policy=RunPolicy(retries=1)) for request in requests]
    )
    assert [record_key(result.value) for result in retried] == reference


def fail_block_passes(monkeypatch) -> list[int]:
    """From here on a profiler pass over more than one row fails;
    returns the sizes of the passes asked for."""
    asked: list[int] = []
    run_many = Profiler.run_many

    def passes_fail(self, targets, tags=None, command=None):
        targets = list(targets)
        asked.append(len(targets))
        if len(targets) > 1:
            raise OSError("block pass failed")
        return run_many(self, targets, tags, command)

    monkeypatch.setattr(Profiler, "run_many", passes_fail)
    return asked


def test_failed_block_pass_fails_its_request_and_the_rest_profile_alone(monkeypatch):
    app = GromacsModel(iterations=4_000)
    requests = [
        RunRequest(kind="profile", target=app, machine="thinkie", seed=seed,
                   config=dict(CONFIG), key=f"cell-{seed}")
        for seed in range(4)
    ]
    reference = [
        exact(result.value) for result in RunService(processes=1).run(requests)
    ]
    with monkeypatch.context() as patch:
        asked = fail_block_passes(patch)
        blocks0, rows0, _ = replay_counts()
        profiled0 = profile_counts()
        results = RunService(processes=1).run(requests, rethrow=False)
        blocks1, rows1, _ = replay_counts()
        profiled1 = profile_counts()
    assert [result.ok for result in results] == [False, True, True, True]
    assert "profile request key=cell-0 (attempt 1/1" in results[0].error
    assert "block pass failed" in results[0].error
    # The records of the block were there for the taking; each of the
    # others profiled its own, alone.
    assert asked == [4]
    assert (blocks1 - blocks0, rows1 - rows0) == (1, 4)
    assert tuple(b - a for a, b in zip(profiled0, profiled1)) == (3, 3)
    assert [exact(result.value) for result in results[1:]] == reference[1:]

    # With a retry, the request that paid for the failed pass recovers too.
    with monkeypatch.context() as patch:
        fail_block_passes(patch)
        retried = RunService(processes=1).run(
            [replace(request, policy=RunPolicy(retries=1)) for request in requests]
        )
    assert [exact(result.value) for result in retried] == reference


def test_two_configs_on_one_pair_each_get_their_own_profiles():
    app = GromacsModel(iterations=40_000)
    fast, slow = {"sample_rate": 10.0}, {"sample_rate": 1.0}
    requests = [
        RunRequest(kind="profile", target=app, machine="comet", seed=seed,
                   config=dict(fast if seed % 2 else slow))
        for seed in range(6)
    ] + [RunRequest(kind="engine", target=app, machine="comet", seed=6)]
    blocks0, rows0, _ = replay_counts()
    profiled0 = profile_counts()
    with RunService(processes=1) as svc:
        results = svc.run(requests)
        singles = [svc.run([request])[0].value for request in requests]
    blocks1, rows1, _ = replay_counts()
    profiled1 = profile_counts()
    # One replay block for the batch (and one per single) ...
    assert (blocks1 - blocks0, rows1 - rows0) == (1 + 7, 7 + 7)
    # ... profiled once, as a block, under the first request's config;
    # the three of the other config profiled their records alone.
    assert tuple(b - a for a, b in zip(profiled0, profiled1)) == (1 + 3 + 6, 7 + 3 + 6)
    for request, result, single in zip(requests[:6], results, singles):
        assert result.value.config["sample_rate"] == request.config["sample_rate"]
        assert exact(result.value) == exact(single)
    assert len({result.value.n_samples for result in results[:6]}) > 1
    assert record_key(results[6].value) == record_key(singles[6])


def test_a_waiting_profile_is_handed_out_once():
    """Twins — requests with one noise identity — each get a profile of
    their own, and their own tags."""
    app = GromacsModel(iterations=4_000)
    twin = RunRequest(kind="profile", target=app, machine="thinkie", seed=3,
                      config=dict(CONFIG), tags={"twin": 1}, command="first")
    requests = [twin, replace(twin, tags={"twin": 2}, command=None),
                replace(twin, seed=4, tags=None)]
    with RunService(processes=1) as svc:
        first, second, third = (result.value for result in svc.run(requests))
    assert first is not second and first.samples is not second.samples
    assert (first.command, first.tags) == ("first", ("twin=1",))
    assert (second.command, second.tags) == (app.command(), ("twin=2",))
    assert (third.command, third.tags) == ("first", ())
    assert [s.values for s in first.samples] == [s.values for s in second.samples]


def test_a_taken_profile_is_stamped_when_it_is_taken():
    """Requests that come in another order than they were declared in:
    the profiles' pids and creation times follow the order the requests
    were served in (the order their profiles are written in), not the
    order of the block's rows."""
    app, machine = GromacsModel(iterations=4_000), get_machine("thinkie")
    requests = [
        RunRequest(kind="profile", target=app, machine=machine, seed=seed,
                   config=dict(CONFIG))
        for seed in range(5)
    ]
    with RunService(processes=1) as svc:
        reference = [exact(result.value) for result in svc.run(requests)]
        served = [requests[at] for at in (3, 0, 4, 2, 1)]
        profiled0 = profile_counts()
        with plan_scope() as plans:
            plans.declare(app, machine, [noise_row(request) for request in requests])
            profiles = [result.value for result in svc.run(served)]
        assert tuple(
            b - a for a, b in zip(profiled0, profile_counts())
        ) == (1, 5)  # one block pass, in the declared rows' order from row 3 on
    assert [exact(profile) for profile in profiles] == [
        reference[at] for at in (3, 0, 4, 2, 1)
    ]
    pids = [profile.info["process"]["pid"] for profile in profiles]
    created = [profile.created for profile in profiles]
    assert pids == sorted(set(pids))
    assert created == sorted(created)


class StepsAlone(WatcherBase):
    """A plugin with per-sample behaviour of its own and no array form."""

    name = "steps-alone"
    cumulative_metrics = ("cpu.cycles_used",)

    def sample(self, now):
        super().sample(now)
        self.result.info["stepped"] = self.result.info.get("stepped", 0) + 1


def test_watchers_that_cannot_watch_rows_profile_each_request_alone():
    register(StepsAlone)
    try:
        app = GromacsModel(iterations=4_000)
        config = {"sample_rate": 2.0, "watchers": ("cpu", "rusage", "steps-alone")}
        requests = [
            RunRequest(kind="profile", target=app, machine="thinkie", seed=seed,
                       config=dict(config))
            for seed in range(4)
        ]
        blocks0, rows0, _ = replay_counts()
        profiled0 = profile_counts()
        with RunService(processes=1) as svc:
            profiles = [result.value for result in svc.run(requests)]
        # One replay block, no block pass: every request stepped its record.
        assert tuple(
            b - a for a, b in zip((blocks0, rows0), replay_counts())
        ) == (1, 4)
        assert profile_counts() == profiled0
        sequential = [
            Profiler(
                SimBackend("thinkie", seed=request.seed),
                config=SynapseConfig(**config),
            ).run(app)
            for request in requests
        ]
    finally:
        _REGISTRY.pop("steps-alone", None)
    assert [exact(profile) for profile in profiles] == [
        exact(profile) for profile in sequential
    ]
    for profile in profiles:
        stepped = profile.info["watcher.steps-alone"]["stepped"]
        assert stepped == profile.n_samples + 1  # ... and the drain sample


def test_failed_block_in_a_campaign_degrades_the_pair(monkeypatch):
    spec = pair_spec("failedblock", seeds=3)
    clean = MemoryStore()
    run_campaign(spec, clean, service=RunService(processes=1))
    store = MemoryStore()
    with monkeypatch.context() as patch:
        fail_blocks(patch)
        built0, _ = plan_counts()
        blocks0, rows0, _ = replay_counts()
        report = run_campaign(
            spec, store, service=RunService(processes=1), checkpoint=2
        )
        built1, _ = plan_counts()
        blocks1, rows1, _ = replay_counts()
    # Each pair lost the cell that paid for its block, and only that one.
    first = {cells[0].digest for cells in (spec.cells()[:6], spec.cells()[6:])}
    assert {failure["cell"] for failure in report.failed} == first
    assert all("block failed" in failure["error"] for failure in report.failed)
    assert report.executed == 10
    assert (blocks1 - blocks0, rows1 - rows0) == (10, 10)
    assert built1 - built0 == 4  # per pair: the failed attempt's, and one shared
    resumed = run_campaign(spec, store, service=RunService(processes=1))
    assert resumed.executed == 2 and resumed.complete
    assert ledger_digest(store, spec.name) == ledger_digest(clean, spec.name)


def test_group_over_the_block_budget_replays_a_block_at_a_time(monkeypatch):
    """Records wait in the group until taken, so a request replays no
    more than one block ahead of itself."""
    app = GromacsModel(iterations=4_000)
    requests = [
        RunRequest(kind="engine", target=app, machine="thinkie", seed=seed)
        for seed in range(7)
    ]
    reference = [
        record_key(result.value)
        for result in RunService(processes=1).run(requests)
    ]
    block_budget(monkeypatch, app, "thinkie", 3)
    sizes, _ = spy_on_blocks(monkeypatch)
    blocks0, rows0, _ = replay_counts()
    built0, reused0 = plan_counts()
    results = RunService(processes=1).run(requests)
    built1, reused1 = plan_counts()
    blocks1, rows1, _ = replay_counts()
    assert sizes == [3, 3, 1]
    assert (blocks1 - blocks0, rows1 - rows0) == (3, 7)
    assert (built1 - built0, reused1 - reused0) == (1, 6)
    assert [record_key(result.value) for result in results] == reference
    assert reference == [
        record_key(SimBackend("thinkie", seed=seed).spawn(app).record)
        for seed in range(7)
    ]


class WatchingService(RunService):
    """Overrides ``run`` with the signature campaigns call it by; keeps
    every value, and how many records waited in the active scope after
    each batch."""

    def __init__(self) -> None:
        super().__init__(processes=1)
        self.values: list = []
        self.waiting: list[int] = []
        self.live: list[int] = []

    def run(self, requests, processes=None, rethrow=True):
        results = super().run(requests, processes=processes, rethrow=rethrow)
        self.values.extend(result.value for result in results)
        with plan_scope() as plans:
            self.waiting.append(sum(
                len(records)
                for group in plans.groups.values()
                for records in group.records.values()
            ))
            self.live.append(len(plans.groups))
        return results


def test_campaign_pair_over_the_block_budget_waits_one_block(monkeypatch):
    spec = CampaignSpec.from_dict({
        "name": "bigpair", "kind": "run",
        "apps": ["gromacs:iterations=2000"], "machines": ["comet"],
        "seeds": list(range(10)), "repeats": 2,
    })
    app = spec.app_model(spec.apps[0])
    block_budget(monkeypatch, app, "comet", 6)
    sizes, _ = spy_on_blocks(monkeypatch)
    svc = WatchingService()
    built0, reused0 = plan_counts()
    report = run_campaign(spec, MemoryStore(), service=svc, checkpoint=4)
    built1, reused1 = plan_counts()
    assert report.executed == 20 and report.complete
    # 20 rows, 6 to a block, taken 4 at a time.
    assert sizes == [6, 6, 6, 2]
    assert svc.waiting == [2, 4, 0, 2, 0]
    assert svc.live == [1, 1, 1, 1, 0]  # dropped with its last row
    assert (built1 - built0, reused1 - reused0) == (1, 19)
    # Bit-identical to one ``Engine.run`` per cell on its spawn slot.
    assert svc.values == [
        _engine_summary(
            SimBackend("comet", seed=cell.seed, spawn_offset=cell.rep)
            .spawn(app).record
        )
        for cell in spec.cells()
    ]


def test_requests_with_equal_noise_identity_each_get_their_record():
    app = GromacsModel(iterations=4_000)
    twin = RunRequest(kind="engine", target=app, machine="thinkie", seed=3)
    requests = [
        twin,
        replace(twin),
        replace(twin, seed=4),
        replace(twin, noise_seed=99),  # another stream on the same slot
        replace(twin, kind="profile", config=dict(CONFIG), noise_seed=99),
    ]
    assert noise_row(requests[0]) == noise_row(requests[1]) == noise_row(requests[4])
    assert len({noise_row(request) for request in requests}) == 3
    blocks0, rows0, _ = replay_counts()
    with RunService(processes=1) as svc:
        results = svc.run(requests)
        singles = [svc.run([request])[0].value for request in requests]
    blocks1, rows1, _ = replay_counts()
    assert (blocks1 - blocks0, rows1 - rows0) == (1 + 5, 5 + 5)
    assert results[0].value is not results[1].value
    keys = [record_key(result.value) for result in results[:4]]
    assert keys == [record_key(single) for single in singles[:4]]
    assert keys[0] == keys[1] and len(set(keys)) == 3
    assert exact(results[4].value) == exact(singles[4])
    # A profile draws its slot's noise whatever ``noise_seed`` says.
    assert results[4].value.statics["time.runtime_rusage"] == results[0].value.duration


@pytest.mark.parametrize("kind", ["profile", "run"])
def test_a_cells_row_is_its_requests_noise_identity(kind):
    spec = pair_spec("rows", kind=kind, noisy=False)
    assert all(cell.row == noise_row(cell.to_request()) for cell in spec.cells())


# -- the scope reaches the executor ----------------------------------------------


class Wrapping:
    """A delegating proxy around a service, as the E12 tracer makes."""

    def __init__(self, inner: RunService) -> None:
        self.inner = inner
        self.batches = 0

    def run(self, requests, processes=None, rethrow=True):
        self.batches += 1
        return self.inner.run(requests, processes, rethrow)


@pytest.mark.parametrize("double", ["overriding", "wrapping"])
def test_service_double_runs_in_the_campaign_scope(double):
    spec = pair_spec("doubles", seeds=3)
    svc = WatchingService() if double == "overriding" else Wrapping(
        RunService(processes=1)
    )
    built0, _ = plan_counts()
    blocks0, rows0, _ = replay_counts()
    report = run_campaign(spec, MemoryStore(), service=svc, checkpoint=2)
    built1, _ = plan_counts()
    blocks1, rows1, _ = replay_counts()
    assert report.executed == 12 and report.complete
    assert (built1 - built0, blocks1 - blocks0, rows1 - rows0) == (2, 2, 12)
    if double == "overriding":
        assert svc.live == [1, 1, 0, 1, 1, 0]
    else:
        assert svc.batches == 6


# -- nothing outlives the invocation ---------------------------------------------


@pytest.mark.parametrize(
    "ending", ["complete", "limit", "stop", "failed-cell", "elastic-limit"]
)
def test_nothing_outlives_a_campaign(monkeypatch, ending):
    from repro.faults import FaultPlan, injected_faults

    plans: list[weakref.ref] = []
    prepare = Engine.prepare

    def tracking_prepare(self, workload):
        plan = prepare(self, workload)
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(engine_module.Engine, "prepare", tracking_prepare)
    sizes, records = spy_on_blocks(monkeypatch)
    spec = pair_spec(f"held-{ending}")
    store = MemoryStore()
    svc = RunService(processes=1)
    faults = FaultPlan.from_dict({"rules": [
        {"point": "worker.execute", "mode": "error", "at": 2},
    ] if ending == "failed-cell" else []})
    with injected_faults(faults):
        if ending == "elastic-limit":
            report = elastic_worker(
                spec, store, lease_ttl=30.0, batch=4, limit=4, service=svc
            )
        else:
            stops = iter([False, True])
            report = run_campaign(
                spec, store, service=svc, checkpoint=4,
                limit=6 if ending == "limit" else None,
                stop=(lambda: next(stops)) if ending == "stop" else None,
            )
    # What was replayed and never asked for is what the close had to drop.
    executed, untaken = {
        "complete": (16, 0),
        "limit": (6, 0),  # rows past the limit were never declared
        "stop": (4, 4),
        "failed-cell": (15, 1),
        "elastic-limit": (4, 4),
    }[ending]
    assert report.executed == executed
    assert sum(sizes) - executed == untaken
    # Records, their blocks, and the profiles taken of them (16 cells
    # of 2 pairs: the store holds the profiles that were asked for).
    assert len(records) > sum(sizes) + len(sizes)
    del store
    gc.collect()
    assert plans and [ref() for ref in plans] == [None] * len(plans)
    assert [ref() for ref in records] == [None] * len(records)
    assert not any(isinstance(obj, Prepared) for obj in gc.get_objects())
    svc.close()


# -- plan-aware chunks -----------------------------------------------------------


chunk_cases = st.tuples(
    st.lists(st.integers(0, 5), min_size=0, max_size=60),
    st.integers(1, 6),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=chunk_cases)
def test_split_chunks_keeps_plans_together(case):
    plans, workers = case
    items = list(range(len(plans)))
    chunks = _split_chunks(items, workers, plans)
    assert sorted(i for chunk in chunks for i in chunk) == items  # a partition
    assert all(chunks) or not items  # no empty chunks
    size = -(-len(items) // (workers * CHUNKS_PER_WORKER)) if items else 0
    for chunk in chunks:
        seen = {plans[i] for i in chunk}
        # A chunk mixes plans only when each of them is smaller than a chunk.
        if len(seen) > 1:
            assert all(plans.count(plan) <= size for plan in seen)
            assert len(chunk) <= size
    for plan in set(plans):
        holding = [chunk for chunk in chunks if any(plans[i] == plan for i in chunk)]
        # A plan is cut only when it is bigger than a chunk, and then
        # into no more pieces than there are workers.
        assert len(holding) <= (workers if plans.count(plan) > size else 1)
        members = [i for chunk in holding for i in chunk if plans[i] == plan]
        assert members == sorted(members)  # order kept within a plan


def test_one_plan_batch_is_one_chunk_per_worker():
    assert [len(c) for c in _split_chunks(list(range(8)), 2, [("t", "m")] * 8)] == [4, 4]
    assert _split_chunks([], 2, []) == []


def test_only_engine_plans_are_named_for_chunking():
    """An emulation replays no engine plan: emulating one profile N
    times must stay ``workers * CHUNKS_PER_WORKER`` chunks, not become
    one chunk per worker."""
    app = SleeperApp(sleep_seconds=1.0)
    profile = Profiler(SimBackend("thinkie"), config=SynapseConfig(**CONFIG)).run(app)
    requests = [
        RunRequest(kind="emulate", target=profile, machine="comet", seed=seed)
        for seed in range(16)
    ] + [
        RunRequest(kind="engine", target=app, machine="comet", seed=seed)
        for seed in range(16)
    ]
    _, _, items = _pack(requests)
    names = _plan_names(items)
    assert len(set(names[:16])) == 16 and len(set(names[16:])) == 1
    sizes = [len(chunk) for chunk in _split_chunks(items, 2, names)]
    assert sizes == [8, 8] + [4] * 4  # the plan: one chunk per worker


def test_items_that_share_nothing_are_cut_near_equally():
    """As many chunks as ever (``workers * CHUNKS_PER_WORKER``), sizes
    one apart at most, items in order, when each item carries a name of
    its own (emulations)."""
    for n in range(1, 70):
        for workers in range(1, 6):
            items = list(range(n))
            chunks = _split_chunks(items, workers, items)
            assert [i for chunk in chunks for i in chunk] == items
            assert len(chunks) == min(n, workers * CHUNKS_PER_WORKER)
            sizes = [len(chunk) for chunk in chunks]
            assert max(sizes) - min(sizes) <= 1
    nine = list(range(9))
    assert [len(c) for c in _split_chunks(nine, 2, nine)] == [2] + [1] * 7


def test_two_plan_batch_pooled_equals_serial(service):
    apps = [GromacsModel(iterations=6_000), SleeperApp(sleep_seconds=1.5)]
    requests = [
        RunRequest(
            kind="profile", target=app, machine="stampede", config=dict(CONFIG),
            seed=seed, tags=app.tags(), command=app.command(),
        )
        for seed in range(8) for app in apps
    ]
    assert len(requests) == 16
    def digests(processes: int) -> list[str]:
        return [
            hashlib.sha256(exact(result.value).encode()).hexdigest()
            for result in service.run(requests, processes=processes)
        ]

    assert digests(2) == digests(1)
