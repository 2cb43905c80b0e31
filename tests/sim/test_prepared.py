"""``Engine.prepare`` + replay: one path, bit-identical, read-only plans.

``Engine.run(w)`` is ``prepare(w)`` followed by one per-seed replay;
``Engine.run(prepared)`` replays a plan prepared elsewhere.  These tests
pin that the two are interchangeable for packed and object workloads,
silent and noisy, that a plan survives any number of replays unchanged,
and that plan telemetry tells a first use from a reuse.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_packed import assert_records_identical, random_workload

from repro.core.errors import WorkloadError
from repro.sim.backend import SimBackend
from repro.sim.engine import Engine, Prepared
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import pack_workload
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.sinks import MemorySink


def _noise(noisy: bool, seed: int) -> NoiseModel:
    if not noisy:
        return NoiseModel.silent()
    return NoiseModel(seed=seed, duration_sigma=0.02, counter_sigma=0.007)


def _arrays(plan: Prepared) -> dict[str, np.ndarray]:
    """Every array a plan holds, by a stable name."""
    out = {
        name: getattr(plan, name)
        for name in (
            "streams", "slot_values", "slot_bases", "m_phase", "m_deltas",
            "t_pos", "t_extra", "i_read", "i_written", "i_block",
        )
    }
    out.update({f"pos[{kind}]": pos for kind, pos in enumerate(plan.pos)})
    out.update({f"slot_groups[{k}]": a for k, a in plan.slot_groups.items()})
    return out


@pytest.mark.parametrize("machine_name", ["thinkie", "stampede"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("noisy", [False, True], ids=["silent", "noisy"])
@pytest.mark.parametrize("packed", [False, True], ids=["object", "packed"])
def test_run_equals_run_of_prepared(machine_name, seed, noisy, packed):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    if packed:
        workload = pack_workload(workload)
    direct = Engine(machine, _noise(noisy, seed + 99)).run(workload)
    plan = Engine(machine).prepare(workload)
    replayed = Engine(machine, _noise(noisy, seed + 99)).run(plan)
    assert_records_identical(replayed, direct)
    assert replayed.metadata == direct.metadata


def test_object_and_packed_plans_are_identical():
    machine = get_machine("comet")
    workload = random_workload(np.random.default_rng(7), machine)
    object_plan = Engine(machine).prepare(workload)
    packed_plan = Engine(machine).prepare(pack_workload(workload))
    from_object, from_packed = _arrays(object_plan), _arrays(packed_plan)
    assert from_object.keys() == from_packed.keys()
    for name, array in from_object.items():
        assert np.array_equal(array, from_packed[name]), name
    # Filesystem names: a tuple from the gather, an object array from the bind.
    assert list(object_plan.i_fs) == list(packed_plan.i_fs)
    for ours, theirs in zip(object_plan.segments, packed_plan.segments, strict=True):
        assert type(ours) is type(theirs)
        for left, right in zip(ours, theirs, strict=True):
            assert np.array_equal(left, right)


def test_plan_reused_across_100_seeds_never_changes():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(11), machine)
    plan = Engine(machine).prepare(workload)
    before = {name: array.copy() for name, array in _arrays(plan).items()}
    for name, array in _arrays(plan).items():
        assert not array.flags.writeable, name
        if array.size:
            with pytest.raises(ValueError):
                array[0] = array[0]
    for seed in range(100):
        replayed = Engine(machine, _noise(True, seed)).run(plan)
        if seed % 25 == 0:
            fresh = Engine(machine, _noise(True, seed)).run(workload)
            assert_records_identical(replayed, fresh)
    for name, array in _arrays(plan).items():
        assert np.array_equal(array, before[name]), name
    assert plan.replays == 100


def test_preparing_does_not_freeze_the_packed_workload():
    machine = get_machine("thinkie")
    packed = pack_workload(random_workload(np.random.default_rng(3), machine))
    writeable = {k: a.flags.writeable for k, a in packed.column_arrays().items()}
    Engine(machine).prepare(packed)
    after = {k: a.flags.writeable for k, a in packed.column_arrays().items()}
    assert after == writeable


def test_object_workload_is_not_memoised_across_runs():
    """A mutable object workload is packed afresh by every ``run``."""
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(5), machine)
    engine = Engine(machine)
    first = engine.run(workload)
    from repro.sim.demands import SleepDemand

    workload.phases[0].streams[0].add(SleepDemand(1.5))
    second = engine.run(workload)
    assert second.duration > first.duration


def test_plan_for_another_machine_is_refused():
    workload = random_workload(np.random.default_rng(2), get_machine("thinkie"))
    plan = Engine(get_machine("thinkie")).prepare(workload)
    with pytest.raises(WorkloadError, match="prepared for machine"):
        Engine(get_machine("comet")).run(plan)


def test_backend_spawn_accepts_a_plan():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(9), machine, name="spawned")
    plan = Engine(machine).prepare(workload)
    direct = SimBackend(machine, seed=4).spawn(workload).record
    replayed = SimBackend(machine, seed=4).spawn(plan).record
    assert_records_identical(replayed, direct)


def test_plan_telemetry_tells_built_from_reused():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(1), machine)
    registry = get_registry()

    def counts() -> tuple[float, float]:
        counters = registry.snapshot()["counters"]
        return (
            counters.get("engine.plans.built", 0.0),
            counters.get("engine.plans.reused", 0.0),
        )

    sink = MemorySink()
    bus = get_bus()
    bus.add_sink(sink)
    try:
        built0, reused0 = counts()
        Engine(machine).run(workload)
        plan = Engine(machine).prepare(workload)
        for seed in range(3):
            Engine(machine, _noise(True, seed)).run(plan)
        built1, reused1 = counts()
    finally:
        bus.remove_sink(sink)
    assert (built1 - built0, reused1 - reused0) == (2, 2)
    plans = [event.attrs["plan"] for event in sink.named("engine.run")]
    assert plans == ["built", "built", "reused", "reused"]
