"""``pack_workload`` against the builder it replaced.

``pack_workload`` is the engine's only way in for object workloads
(``Engine.prepare`` packs, then binds).  It is one tight pass over the
demand objects; :func:`builder_pack` — one :class:`PackedBuilder` call
per demand, what ``pack_workload`` used to be — is kept here as its
oracle.  The two must agree on every column (dtype and value, NaN
included), on the interned name tables and on the stream tables, for
random object workloads with empty phases and streams, ``None``
``calibrated_cycles`` / ``stall_ratio``, sleep demands and demand
subclasses.  Demands the engine does not know fail with a
:class:`WorkloadError` that names their type.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_packed import assert_packed_equal, assert_records_identical

from repro.core.errors import WorkloadError
from repro.sim.demands import (
    ComputeDemand,
    Demand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedBuilder, PackedWorkload, pack_workload
from repro.sim.workload import SimWorkload

# -- the oracle ----------------------------------------------------------------


def builder_pack(workload: SimWorkload) -> PackedWorkload:
    """One :class:`PackedBuilder` call per demand, re-validating each."""
    builder = PackedBuilder(
        workload.name, base_rss=workload.base_rss, metadata=dict(workload.metadata)
    )
    for phase in workload.phases:
        builder.phase()
        for stream in phase.streams:
            builder.stream()
            for demand in stream.demands:
                if isinstance(demand, ComputeDemand):
                    builder.compute(
                        instructions=demand.instructions,
                        workload_class=demand.workload_class,
                        flops_per_instruction=demand.flops_per_instruction,
                        threads=demand.threads,
                        paradigm=demand.paradigm,
                        calibrated_cycles=demand.calibrated_cycles,
                        stall_ratio=demand.stall_ratio,
                    )
                elif isinstance(demand, IODemand):
                    builder.io(
                        bytes_read=demand.bytes_read,
                        bytes_written=demand.bytes_written,
                        block_size=demand.block_size,
                        filesystem=demand.filesystem,
                    )
                elif isinstance(demand, MemoryDemand):
                    builder.memory(
                        allocate=demand.allocate,
                        free=demand.free,
                        block_size=demand.block_size,
                    )
                elif isinstance(demand, NetworkDemand):
                    builder.network(
                        bytes_sent=demand.bytes_sent,
                        bytes_received=demand.bytes_received,
                        block_size=demand.block_size,
                    )
                elif isinstance(demand, SleepDemand):
                    builder.sleep(demand.seconds)
                else:
                    raise WorkloadError(
                        f"unsupported demand type {type(demand).__name__}"
                    )
    return builder.build()


# -- random object workloads ---------------------------------------------------


@dataclass(frozen=True, slots=True)
class TaggedCompute(ComputeDemand):
    """A demand subclass: packs as the compute demand it is."""

    tag: str = "tagged"


@dataclass(frozen=True, slots=True)
class Bogus(Demand):
    """A demand type the engine does not know."""

    size: int = 1


sizes = st.integers(0, 1 << 30)
blocks = st.integers(1, 1 << 21)


def maybe(values):
    return st.none() | values


computes = st.sampled_from([ComputeDemand, TaggedCompute]).flatmap(
    lambda cls: st.builds(
        cls,
        instructions=st.floats(0, 1e10) | st.integers(0, 10**10),
        workload_class=st.sampled_from(["app.generic", "app.md", "app.startup"]),
        flops_per_instruction=st.floats(0, 1),
        threads=st.integers(1, 16),
        paradigm=st.sampled_from(["serial", "openmp", "mpi"]),
        calibrated_cycles=maybe(st.floats(0, 1e10)),
        stall_ratio=maybe(st.floats(0, 4)),
    )
)
demands = st.one_of(
    computes,
    st.builds(IODemand, bytes_read=sizes, bytes_written=sizes, block_size=blocks,
              filesystem=st.sampled_from(["local", "lustre", "nfs"])),
    st.builds(MemoryDemand, allocate=sizes, free=sizes, block_size=blocks),
    st.builds(NetworkDemand, bytes_sent=sizes, bytes_received=sizes,
              block_size=blocks),
    st.builds(SleepDemand, seconds=st.floats(0, 10)),
)
# Phases of streams of demands; empty phases and empty streams included.
layouts = st.lists(
    st.lists(st.lists(demands, max_size=6), max_size=3), max_size=5
)


def object_workload(layout, base_rss: int = 4 << 20) -> SimWorkload:
    workload = SimWorkload(name="oracle", base_rss=base_rss, metadata={"k": 1})
    for streams in layout:
        phase = workload.phase()
        for stream_demands in streams:
            stream = phase.stream()
            for demand in stream_demands:
                stream.add(demand)
    return workload


@settings(max_examples=150, deadline=None)
@given(layout=layouts, base_rss=st.integers(0, 1 << 30))
def test_pack_workload_equals_the_builder_oracle(layout, base_rss):
    workload = object_workload(layout, base_rss)
    assert_packed_equal(pack_workload(workload), builder_pack(workload))


def test_the_property_sees_what_it_claims_to():
    """Empty phases and streams, ``None`` and set optionals, sleeps and a
    subclass, all in one workload."""
    workload = object_workload([
        [],
        [[], [TaggedCompute(instructions=1e6, calibrated_cycles=None)]],
        [[ComputeDemand(instructions=5, calibrated_cycles=2e6, stall_ratio=0.5),
          SleepDemand(0.25), IODemand(bytes_read=3, filesystem="lustre")]],
    ])
    packed = pack_workload(workload)
    assert_packed_equal(packed, builder_pack(workload))
    assert packed.n_phases == 3 and packed.stream_first.tolist() == [0, 0, 1]
    assert np.isnan(packed.c_cc[0]) and np.isnan(packed.c_sr[0])
    assert packed.c_cc[1] == 2e6 and packed.c_sr[1] == 0.5
    assert packed.kinds.tolist() == [0, 0, 4, 1]


def test_a_subclass_runs_as_its_base_demand():
    machine = get_machine("comet")
    plain = object_workload([[[ComputeDemand(instructions=1e8, threads=2)]]])
    tagged = object_workload([[[TaggedCompute(instructions=1e8, threads=2)]]])
    assert_records_identical(
        Engine(machine, NoiseModel(seed=3, duration_sigma=0.02)).run(tagged),
        Engine(machine, NoiseModel(seed=3, duration_sigma=0.02)).run(plain),
    )


# -- error paths -----------------------------------------------------------------


@pytest.mark.parametrize("stranger", [Bogus(), "not a demand"], ids=["Bogus", "str"])
def test_unsupported_demand_type_is_named(stranger):
    workload = object_workload([[[SleepDemand(1.0), stranger]]])
    name = type(stranger).__name__
    with pytest.raises(WorkloadError, match=f"unsupported demand type {name}"):
        pack_workload(workload)
    with pytest.raises(WorkloadError, match=f"unsupported demand type {name}"):
        Engine(get_machine("thinkie")).run(workload)
