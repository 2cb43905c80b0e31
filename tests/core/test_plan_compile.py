"""The emulation plan's one-pass compile against the builder it replaced.

``EmulationPlan._build`` makes one pass over the samples into plain row
lists.  Before it, the build called a
:class:`~repro.sim.packed.PackedBuilder` a few times per sample;
``builder_build`` below is that build, kept as the oracle.  For drawn
plans — NaN, negative and zero quanta, flops above cycles — under drawn
configs (CPU, disk and memory load, threads, MPI, an efficiency target,
``"auto"`` blocks resolved from the plan) and drawn build settings the
configs cannot express (no thread, a negative stall ratio, a zero
block), the one-pass build must give the same columns, name tables and
metadata, or raise the same error with the same text.

Tier-1 runs a small derandomized set; the wide search is
``--hypothesis-profile=emulation-layout --hypothesis-seed=N``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.config import SynapseConfig
from repro.core.errors import WorkloadError
from repro.core.plan import (
    EMULATOR_BASE_RSS,
    EMULATOR_STARTUP_INSTRUCTIONS,
    EMULATOR_STARTUP_SLEEP,
    BuildSettings,
    EmulationPlan,
    PlanColumns,
)
from repro.kernels.registry import get_kernel
from repro.sim.packed import PackedBuilder

#: The wide search's profile (registered in ``tests/conftest.py``).
PROFILE = "emulation-layout"

PROPERTY = (
    settings.default
    if settings.get_current_profile_name() == PROFILE
    else settings(
        max_examples=80, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
)


def builder_build(plan: EmulationPlan, s: BuildSettings):
    """The parent's ``_build``: one builder call per demand."""
    kernel = get_kernel(s.compute_kernel)
    b = PackedBuilder(
        f"synapse-emulate {plan.command}",
        base_rss=EMULATOR_BASE_RSS + s.mem_load,
        metadata={
            "emulation_of": plan.command,
            "kernel": kernel.name,
            "command": f"synapse-emulate {plan.command}",
        },
    )
    b.phase("emulator-startup")
    b.stream("driver")
    b.sleep(EMULATOR_STARTUP_SLEEP)
    b.compute(instructions=EMULATOR_STARTUP_INSTRUCTIONS, workload_class="app.startup")
    for index, cycles, flops, alloc, freed, read, written, sent, received in (
        plan.samples.rows()
    ):
        if not (cycles or alloc or freed or read or written or sent or received):
            continue
        b.phase(f"sample-{index}")
        if cycles > 0:
            b.stream("compute")
            b.compute(
                instructions=0.0,
                workload_class=kernel.workload_class,
                calibrated_cycles=cycles,
                flops_per_instruction=min(1.0, flops / cycles),
                threads=s.threads,
                paradigm=s.paradigm,
                stall_ratio=s.stall_ratio,
            )
            if s.cpu_load > 0:
                b.stream("cpu-load")
                b.compute(
                    instructions=0.0,
                    workload_class=kernel.workload_class,
                    calibrated_cycles=cycles * s.cpu_load,
                )
        if read > 0 or written > 0:
            b.stream("storage")
            if read > 0:
                b.io(bytes_read=read, block_size=s.read_block, filesystem=s.filesystem)
            if written > 0:
                b.io(
                    bytes_written=written, block_size=s.write_block,
                    filesystem=s.filesystem,
                )
            if s.disk_load > 0:
                b.stream("disk-load")
                b.io(
                    bytes_written=round((read + written) * s.disk_load),
                    block_size=s.write_block,
                    filesystem=s.filesystem,
                )
        if alloc > 0 or freed > 0:
            b.stream("memory")
            b.memory(allocate=alloc, free=freed, block_size=s.mem_block)
        if sent > 0 or received > 0:
            b.stream("network")
            b.network(bytes_sent=sent, bytes_received=received, block_size=s.net_block)
    return b.build()


def outcome(build):
    """What a build gives: the workload, or the type and text it raised."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return (type(exc), str(exc))


def assert_same_outcome(got, want) -> None:
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    for name in (
        "name", "base_rss", "metadata", "n", "n_phases",
        "class_names", "paradigm_names", "fs_names",
    ):
        assert getattr(got, name) == getattr(want, name), name
    ours, theirs = got.column_arrays(), want.column_arrays()
    assert ours.keys() == theirs.keys()
    for name, column in theirs.items():
        assert ours[name].dtype == column.dtype, name
        assert ours[name].shape == column.shape, name
        assert ours[name].tobytes() == column.tobytes(), name


# -- drawn plans and settings -----------------------------------------------------

FLOAT_QUANTUM = st.one_of(
    st.just(0.0), st.just(-0.0), st.just(math.nan), st.just(math.inf),
    st.floats(-1e12, -1e-3), st.floats(1e-300, 1e15), st.just(5e-324),
)
BYTE_QUANTUM = st.one_of(
    st.just(0), st.integers(-(1 << 40), -1), st.integers(1, 1 << 40),
)


@st.composite
def plans(draw) -> EmulationPlan:
    rows = draw(st.lists(
        st.tuples(FLOAT_QUANTUM, FLOAT_QUANTUM, *[BYTE_QUANTUM] * 6), max_size=12,
    ))
    columns = list(zip(*rows)) if rows else [()] * 8
    info = {}
    if draw(st.booleans()):  # profiled block sizes, for ``"auto"``
        info["io.block_size_read_mean"] = float(draw(st.integers(1, 1 << 21)))
        info["io.block_size_write_mean"] = float(draw(st.integers(1, 1 << 21)))
    return EmulationPlan(
        samples=PlanColumns(np.arange(len(rows)), *columns),
        command=draw(st.sampled_from(["gromacs", "app x"])),
        info=info,
    )


CONFIGS = st.builds(
    SynapseConfig,
    compute_kernel=st.sampled_from(["asm", "c"]),
    openmp_threads=st.integers(1, 8),
    mpi_processes=st.integers(1, 4),
    efficiency_target=st.one_of(st.none(), st.floats(0.05, 1.0)),
    cpu_load=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    disk_load=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
    mem_load=st.sampled_from([0, "512MB", 4096]),
    io_block_size_read=st.sampled_from(["auto", "4KB", "1MB"]),
    io_block_size_write=st.sampled_from(["auto", "64KB", "1MB"]),
    mem_block_size=st.sampled_from(["4KB", "1MB"]),
    net_block_size=st.sampled_from(["1KB", "64KB"]),
)


@st.composite
def raw_settings(draw) -> BuildSettings:
    """Settings no config resolves to: bad threads, stall ratios and blocks."""
    return BuildSettings(
        compute_kernel=draw(st.sampled_from(["asm", "c"])),
        threads=draw(st.integers(-1, 3)),
        paradigm=draw(st.sampled_from(["openmp", "mpi", "serial"])),
        filesystem=draw(st.sampled_from(["local", "lustre"])),
        stall_ratio=draw(st.one_of(st.none(), st.floats(-1.0, 3.0))),
        cpu_load=draw(st.sampled_from([0.0, 0.5, -0.5])),
        disk_load=draw(st.sampled_from([0.0, 0.7, -0.5])),
        mem_load=draw(st.sampled_from([0, 1 << 20])),
        read_block=draw(st.sampled_from([0, -4, 4096])),
        write_block=draw(st.sampled_from([0, 4096])),
        mem_block=draw(st.sampled_from([0, 1 << 20])),
        net_block=draw(st.sampled_from([0, 1 << 16])),
    )


def sample(**quanta) -> tuple:
    keys = ("cycles", "flops", "alloc", "free", "read", "write", "sent", "received")
    return tuple(quanta.get(key, 0.0 if key in ("cycles", "flops") else 0) for key in keys)


def plan_of(*rows, info=None) -> EmulationPlan:
    return EmulationPlan(
        samples=PlanColumns(np.arange(len(rows)), *zip(*rows)), command="c",
        info=info or {},
    )


@PROPERTY
@given(plan=plans(), config=CONFIGS)
@example(  # a disk-load twin of a negative byte count
    plan=plan_of(sample(read=-100, write=10)), config=SynapseConfig(disk_load=0.5),
)
def test_the_one_pass_compile_is_the_builders(plan, config):
    settings_ = plan.build_settings(config)
    assert_same_outcome(
        outcome(lambda: plan._build(settings_)),
        outcome(lambda: builder_build(plan, settings_)),
    )


#: Settings with no thread, a negative stall ratio and every block zero.
BAD = BuildSettings("asm", 0, "openmp", "local", -1.0, 0.0, 0.0, 0, 0, 0, 0, 0)


@PROPERTY
@given(plan=plans(), settings_=raw_settings())
@example(  # a zero read block with no I/O sample stays legal
    plan=plan_of(sample(cycles=1e9, flops=2e9, alloc=5)),
    settings_=BAD._replace(threads=1, stall_ratio=None, mem_block=1),
)
@example(  # ... and raises at the first read
    plan=plan_of(sample(cycles=1e9), sample(read=3)),
    settings_=BAD._replace(threads=1, stall_ratio=None),
)
@example(  # no thread: raised at the first compute, not before
    plan=plan_of(sample(write=1), sample(cycles=5.0, flops=-1.0)),
    settings_=BAD._replace(write_block=1),
)
@example(  # a negative stall ratio, after the flops fraction is checked
    plan=plan_of(sample(cycles=5.0, flops=1.0)), settings_=BAD._replace(threads=2),
)
def test_settings_no_config_makes_fail_where_the_builder_did(plan, settings_):
    assert_same_outcome(
        outcome(lambda: plan._build(settings_)),
        outcome(lambda: builder_build(plan, settings_)),
    )


def test_an_empty_plan_is_the_startup_phase_alone():
    plan = EmulationPlan(samples=PlanColumns([], *[[]] * 8), command="idle")
    workload = plan.build_packed_workload(SynapseConfig())
    assert (workload.n, workload.n_phases) == (2, 1)
    assert workload.class_names == ("app.startup",)
    assert_same_outcome(workload, builder_build(plan, plan.build_settings(SynapseConfig())))


@pytest.mark.parametrize("quantum", ["cycles", "alloc", "sent"])
def test_a_nan_or_negative_sample_still_opens_its_phase(quantum):
    """Only an all-zero sample is skipped: a NaN cycle count or a
    negative byte count opens a phase that may hold no stream."""
    value = math.nan if quantum == "cycles" else -5
    plan = plan_of(sample(**{quantum: value}))
    workload = plan.build_packed_workload(SynapseConfig())
    assert workload.n_phases == 2 and workload.n == 2
    assert_same_outcome(workload, builder_build(plan, plan.build_settings(SynapseConfig())))


def test_the_first_bad_demand_names_the_error():
    plan = plan_of(sample(cycles=1.0, flops=-3.0), sample(alloc=-1, free=2))
    with pytest.raises(WorkloadError, match=r"flops_per_instruction must be a number in \[0, 1\]"):
        plan.build_packed_workload(SynapseConfig())
    plan = plan_of(sample(alloc=-1, free=2), sample(cycles=1.0, flops=-3.0))
    with pytest.raises(WorkloadError, match="allocate must be a finite number >= 0, not -1"):
        plan.build_packed_workload(SynapseConfig())
