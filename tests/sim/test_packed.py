"""Columnar (packed) workloads: builder fidelity and engine bit-identity.

The packed plane's contract is *exact* equivalence, not tolerance: an
object :class:`SimWorkload` and its :class:`PackedWorkload` must run to
bit-identical records, silent or noisy (the engine packs object
workloads itself, so this pins that packing is all it does to them;
``test_pack_oracle.py`` pins the packer to the builder).  These tests
cover randomised workloads with all five demand types and contention
phases; the applications' and emulation plans' packed workloads are
pinned to digests in ``fixtures/golden_app_packed.json``.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest
from gen_golden_fixtures import (
    APP_CASES,
    PACKED_FIXTURE_PATH,
    PACKED_MACHINES,
    PLAN_CONFIGS,
    packed_digest,
    packed_plan,
)

from repro.apps import GromacsModel
from repro.core.config import SynapseConfig
from repro.core.errors import WorkloadError
from repro.sim.backend import SimBackend
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedBuilder, PackedWorkload, pack_workload
from repro.sim.workload import Phase, SimWorkload, Stream


# -- helpers -----------------------------------------------------------------


def random_workload(rng: np.random.Generator, machine, name: str = "rand") -> SimWorkload:
    """A randomised workload exercising all five demand types and
    multi-stream (contention) phases."""
    filesystems = sorted(machine.filesystems)
    workload = SimWorkload(name=name, base_rss=int(rng.integers(1 << 20, 8 << 20)))
    for p in range(int(rng.integers(1, 5))):
        phase = workload.phase(f"p{p}")
        for s in range(int(rng.integers(1, 4))):
            stream = phase.stream(f"s{s}")
            for _ in range(int(rng.integers(0, 6))):
                kind = int(rng.integers(0, 5))
                if kind == 0:
                    stream.add(
                        ComputeDemand(
                            instructions=float(rng.uniform(1e6, 1e9)),
                            workload_class=str(
                                rng.choice(["app.generic", "app.md", "app.startup"])
                            ),
                            flops_per_instruction=float(rng.uniform(0, 1)),
                            threads=int(rng.integers(1, 8)),
                            paradigm=str(rng.choice(["serial", "openmp", "mpi"])),
                            calibrated_cycles=(
                                float(rng.uniform(1e6, 1e9))
                                if rng.integers(0, 2)
                                else None
                            ),
                            stall_ratio=(
                                float(rng.uniform(0, 2)) if rng.integers(0, 2) else None
                            ),
                        )
                    )
                elif kind == 1:
                    stream.add(
                        IODemand(
                            bytes_read=int(rng.integers(0, 1 << 24)),
                            bytes_written=int(rng.integers(0, 1 << 24)),
                            block_size=int(rng.integers(1, 1 << 21)),
                            filesystem=str(rng.choice(filesystems)),
                        )
                    )
                elif kind == 2:
                    stream.add(
                        MemoryDemand(
                            allocate=int(rng.integers(0, 1 << 26)),
                            free=int(rng.integers(0, 1 << 24)),
                            block_size=int(rng.integers(1, 1 << 21)),
                        )
                    )
                elif kind == 3:
                    stream.add(
                        NetworkDemand(
                            bytes_sent=int(rng.integers(0, 1 << 20)),
                            bytes_received=int(rng.integers(0, 1 << 20)),
                            block_size=int(rng.integers(1, 1 << 17)),
                        )
                    )
                else:
                    stream.add(SleepDemand(float(rng.uniform(0, 0.5))))
    return workload


def assert_packed_equal(got: PackedWorkload, ref: PackedWorkload) -> None:
    assert got.name == ref.name
    assert got.base_rss == ref.base_rss
    assert got.metadata == ref.metadata
    assert got.n == ref.n
    assert got.n_phases == ref.n_phases
    assert got.class_names == ref.class_names
    assert got.paradigm_names == ref.paradigm_names
    assert got.fs_names == ref.fs_names
    for attr in ("kinds", "stream_phase", "stream_first", "stream_end"):
        assert np.array_equal(getattr(got, attr), getattr(ref, attr)), attr
    got_cols, ref_cols = got.column_arrays(), ref.column_arrays()
    assert got_cols.keys() == ref_cols.keys()
    for key in ref_cols:
        a, b = got_cols[key], ref_cols[key]
        assert a.dtype == b.dtype, key
        assert np.array_equal(a, b, equal_nan=(a.dtype.kind == "f")), key


def assert_records_identical(got, ref) -> None:
    """Bit-exact record equality — no tolerances anywhere."""
    assert got.duration == ref.duration
    assert got.phase_bounds == ref.phase_bounds
    assert set(got.counters) == set(ref.counters)
    for name in ref.counters:
        assert np.array_equal(got.counters[name].times, ref.counters[name].times), name
        assert np.array_equal(got.counters[name].values, ref.counters[name].values), name
    assert set(got.levels) == set(ref.levels)
    for name in ref.levels:
        assert np.array_equal(got.levels[name].times, ref.levels[name].times), name
        assert np.array_equal(got.levels[name].values, ref.levels[name].values), name
    assert list(got.io_events) == list(ref.io_events)
    assert got.totals() == ref.totals()


# -- compiler ----------------------------------------------------------------


def test_pack_workload_is_deterministic():
    rng = np.random.default_rng(0)
    machine = get_machine("stampede")
    workload = random_workload(rng, machine)
    assert_packed_equal(pack_workload(workload), pack_workload(workload))


def test_pack_preserves_counts_and_structure():
    rng = np.random.default_rng(1)
    machine = get_machine("thinkie")
    workload = random_workload(rng, machine)
    packed = pack_workload(workload)
    assert packed.n == workload.n_demands
    assert packed.n_phases == len(workload.phases)
    assert packed.base_rss == workload.base_rss
    # Streams are contiguous index ranges partitioning [0, n).
    sizes = packed.stream_end - packed.stream_first
    assert int(sizes.sum()) == packed.n
    assert (sizes >= 0).all()


def test_pack_empty_workload():
    packed = pack_workload(SimWorkload(name="empty"))
    assert packed.n == 0
    assert packed.empty
    record = Engine(get_machine("thinkie"), NoiseModel.silent()).run(packed)
    assert record.duration == 0.0


def test_none_calibrated_cycles_round_trip_as_nan():
    workload = SimWorkload(name="cc")
    stream = workload.phase("p").stream("s")
    stream.add(ComputeDemand(instructions=1e6))
    stream.add(ComputeDemand(instructions=0.0, calibrated_cycles=2e6))
    packed = pack_workload(workload)
    assert np.isnan(packed.c_cc[0])
    assert packed.c_cc[1] == 2e6


# -- engine bit-identity -----------------------------------------------------


@pytest.mark.parametrize("machine_name", ["thinkie", "stampede", "comet"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("noisy", [False, True], ids=["silent", "noisy"])
def test_randomized_engine_bit_identity(machine_name, seed, noisy):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)

    def noise():
        if not noisy:
            return NoiseModel.silent()
        return NoiseModel(seed=seed + 99, duration_sigma=0.02, counter_sigma=0.007)

    ref = Engine(machine, noise()).run(workload)
    got = Engine(machine, noise()).run(pack_workload(workload))
    assert_records_identical(got, ref)


def test_run_many_accepts_packed():
    machine = get_machine("thinkie")
    engine = Engine(machine, NoiseModel.silent())
    workload = random_workload(np.random.default_rng(5), machine)
    packed = pack_workload(workload)
    refs = engine.run_many([workload, workload])
    gots = engine.run_many([packed, packed])
    for got, ref in zip(gots, refs):
        assert_records_identical(got, ref)


def test_lazy_io_events_behave_like_lists():
    machine = get_machine("stampede")
    workload = random_workload(np.random.default_rng(2), machine)
    ref = Engine(machine, NoiseModel.silent()).run(workload)
    got = Engine(machine, NoiseModel.silent()).run(pack_workload(workload))
    events = got.io_events
    assert len(events) == len(list(ref.io_events))
    assert list(events) == list(ref.io_events)
    if len(events):
        assert events[0] == list(ref.io_events)[0]
    # Records cross process boundaries in spawn_many: pickling must work
    # and reduce the lazy sequence to a plain list.
    assert pickle.loads(pickle.dumps(events)) == list(events)


# -- application and plan builders ---------------------------------------------


@pytest.fixture(scope="module")
def packed_golden():
    with open(PACKED_FIXTURE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("name, factory", APP_CASES, ids=[name for name, _ in APP_CASES])
def test_app_build_packed_matches_compiler(name, factory, packed_golden):
    """An app's ``build_packed`` is the pack of its ``build_workload``;
    the digests were taken from the hand-written column builders the
    models had before, so the compiler reproduces what each emitted."""
    for machine in PACKED_MACHINES:
        packed = factory().build_packed(get_machine(machine))
        assert packed_digest(packed) == packed_golden["apps"][name][machine], machine


def test_plan_build_packed_workload_matches_compiler(packed_golden):
    """The plan builder's columns equal the pack of the per-demand object
    workload it was once checked against (digests taken then)."""
    plan = packed_plan()
    for name, config in PLAN_CONFIGS.items():
        packed = plan.build_packed_workload(SynapseConfig(**config))
        assert packed_digest(packed) == packed_golden["plans"][name], name


def test_backend_resolves_packed_targets():
    backend = SimBackend("thinkie", noisy=True, seed=7)
    app = GromacsModel(iterations=5_000)
    packed = app.build_packed(backend.machine)
    ref = SimBackend("thinkie", noisy=True, seed=7).spawn(app).record
    got = backend.spawn(packed).record
    assert_records_identical(got, ref)


def test_backend_prefers_build_packed():
    class Probe:
        def __init__(self):
            self.packed_calls = 0

        def build_packed(self, machine):
            self.packed_calls += 1
            return GromacsModel(iterations=1000).build_packed(machine)

        def build_workload(self, machine):  # pragma: no cover - must not run
            raise AssertionError("build_workload used despite build_packed")

    probe = Probe()
    SimBackend("thinkie", noisy=False).spawn(probe)
    assert probe.packed_calls == 1


# -- builder validation ------------------------------------------------------


def test_builder_rejects_invalid_demands():
    b = PackedBuilder("bad")
    with pytest.raises(WorkloadError):
        b.compute(instructions=-1.0)
    with pytest.raises(WorkloadError):
        b.compute(threads=0)
    with pytest.raises(WorkloadError):
        b.io(bytes_read=-1)
    with pytest.raises(WorkloadError):
        b.io(block_size=0)
    with pytest.raises(WorkloadError):
        b.memory(allocate=-1)
    with pytest.raises(WorkloadError):
        b.network(bytes_sent=-1)
    with pytest.raises(WorkloadError):
        b.sleep(-0.1)


def test_bulk_builders_match_scalar_appends():
    instr = np.array([1e6, 2e6, 3e6])
    reads = np.array([1 << 20, 2 << 20])
    allocs = np.array([4 << 20, 8 << 20])
    sent = np.array([64 << 10, 128 << 10])

    bulk = PackedBuilder("bulk")
    bulk.phase("p").stream("s")
    bulk.compute_many(instr, workload_class="app.md", threads=2, paradigm="openmp")
    bulk.io_many(bytes_read=reads, bytes_written=1 << 19, filesystem="local")
    bulk.memory_many(allocate=allocs, free=2 << 20)
    bulk.network_many(bytes_sent=sent, bytes_received=32 << 10)

    scalar = PackedBuilder("bulk")
    scalar.phase("p").stream("s")
    for i in instr:
        scalar.compute(
            instructions=float(i),
            workload_class="app.md",
            threads=2,
            paradigm="openmp",
        )
    for r in reads:
        scalar.io(bytes_read=int(r), bytes_written=1 << 19, filesystem="local")
    for a in allocs:
        scalar.memory(allocate=int(a), free=2 << 20)
    for s in sent:
        scalar.network(bytes_sent=int(s), bytes_received=32 << 10)

    assert_packed_equal(bulk.build(), scalar.build())


def test_bulk_builders_reject_invalid_demands():
    b = PackedBuilder("bad-bulk")
    with pytest.raises(WorkloadError):
        b.memory_many(allocate=[-1])
    with pytest.raises(WorkloadError):
        b.memory_many(allocate=[1], block_size=0)
    with pytest.raises(WorkloadError):
        b.network_many(bytes_sent=[-1])
    with pytest.raises(WorkloadError):
        b.network_many(bytes_sent=[1], block_size=0)


# -- satellite: slotted demand/workload objects ------------------------------


@pytest.mark.parametrize(
    "instance",
    [
        ComputeDemand(instructions=1.0),
        IODemand(bytes_read=1),
        MemoryDemand(allocate=1),
        NetworkDemand(bytes_sent=1),
        SleepDemand(0.1),
        Stream(),
        Phase(),
        SimWorkload(name="w"),
    ],
    ids=lambda obj: type(obj).__name__,
)
def test_hot_path_objects_are_slotted(instance):
    assert not hasattr(instance, "__dict__")
    # Frozen+slots dataclasses raise FrozenInstanceError on 3.12+, but a
    # TypeError on 3.11 (cpython gh-91126); either way, no new attributes.
    with pytest.raises((AttributeError, TypeError)):
        instance.arbitrary_new_attribute = 1


# -- the streaming prerequisite: RNG split invariance ------------------------


def test_standard_normal_draws_are_split_invariant():
    """PCG64 ``standard_normal(k1); standard_normal(k2)`` must equal one
    ``standard_normal(k1 + k2)`` call bit for bit — the property that
    lets a streamed run consume the noise stream in batch-sized bites.
    """
    whole = np.random.Generator(np.random.PCG64(123)).standard_normal(97)
    gen = np.random.Generator(np.random.PCG64(123))
    parts = np.concatenate([gen.standard_normal(k) for k in (13, 41, 29, 14)])
    assert np.array_equal(whole, parts)
