"""Scalar cost oracle for the engine's batched cost stage.

The engine used to carry a per-demand scalar costing path (``_cost`` &
co., ``_phase_factors``) beside the batched kernels that actually run.
It had no caller left in ``src/``; what is still wanted of it lives
here: the closed-form cost of one demand and the contention factors of
one phase, written the obvious way against the machine model's own
methods, compared — exactly, no tolerance — against
``_compute_costs`` / ``_io_costs`` / ``_memory_costs`` /
``_network_costs`` and the durations :meth:`Engine.prepare` lays out,
on randomised workloads covering all five demand types.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_packed import random_workload

from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.engine import _KIND_COUNTERS, Engine
from repro.sim.machines import get_machine
from repro.sim.packed import pack_workload

MACHINES = ("thinkie", "stampede", "comet", "archer")

#: Counter name -> (demand kind, its noise slot after the duration's).
SLOT_OF = {
    name: (kind, slot)
    for kind, names in _KIND_COUNTERS.items()
    for slot, name in enumerate(names, start=1)
}


# -- the oracle ----------------------------------------------------------------


def cost_compute(machine, demand: ComputeDemand) -> tuple[float, dict[str, float]]:
    cpu = machine.cpu
    spec = cpu.spec(demand.workload_class)
    if demand.calibrated_cycles is not None:
        cycles = demand.calibrated_cycles * spec.cycle_bias
        instructions = cycles * spec.ipc
    else:
        instructions = demand.instructions
        cycles = cpu.cycles_for(instructions, demand.workload_class)
    scaling = machine.scaling_model(demand.paradigm)
    workers = min(demand.threads, cpu.cores)
    factor = scaling.time_factor(workers) if workers > 1 else 1.0
    overhead = scaling.overhead_cycles_fraction(workers) if workers > 1 else 0.0
    cycles_total = cycles * (1.0 + overhead)
    instr_total = instructions * (1.0 + overhead)
    duration = cpu.seconds_for_cycles(cycles) * factor
    stall_ratio = (
        demand.stall_ratio if demand.stall_ratio is not None else spec.stall_ratio
    )
    stalled = cycles_total * stall_ratio
    return duration, {
        "cpu.instructions": instr_total,
        "cpu.cycles_used": cycles_total,
        "cpu.cycles_stalled_front": stalled * spec.stall_front_fraction,
        "cpu.cycles_stalled_back": stalled * (1.0 - spec.stall_front_fraction),
        "cpu.flops": instr_total * demand.flops_per_instruction,
    }


def cost_io(machine, demand: IODemand) -> tuple[float, dict[str, float]]:
    fs = machine.filesystem(demand.filesystem)
    duration = fs.io_time(demand.bytes_read, demand.bytes_written, demand.block_size)
    return duration, {
        "io.bytes_read": float(demand.bytes_read),
        "io.bytes_written": float(demand.bytes_written),
    }


def cost_memory(machine, demand: MemoryDemand) -> tuple[float, dict[str, float]]:
    mem = machine.memory
    duration = mem.alloc_time(demand.allocate, demand.block_size) + mem.free_time(
        demand.free, demand.block_size
    )
    return duration, {
        "mem.allocated": float(demand.allocate),
        "mem.freed": float(demand.free),
    }


def cost_network(machine, demand: NetworkDemand) -> tuple[float, dict[str, float]]:
    nbytes = demand.bytes_sent + demand.bytes_received
    ops = -(-nbytes // demand.block_size) if nbytes else 0
    duration = ops * machine.net_latency + nbytes / machine.net_bandwidth
    return duration, {
        "net.bytes_written": float(demand.bytes_sent),
        "net.bytes_read": float(demand.bytes_received),
    }


def cost(machine, demand) -> tuple[float, dict[str, float]]:
    if isinstance(demand, ComputeDemand):
        return cost_compute(machine, demand)
    if isinstance(demand, IODemand):
        return cost_io(machine, demand)
    if isinstance(demand, MemoryDemand):
        return cost_memory(machine, demand)
    if isinstance(demand, NetworkDemand):
        return cost_network(machine, demand)
    assert isinstance(demand, SleepDemand)
    return demand.seconds, {}


def phase_factors(machine, phase) -> tuple[float, dict[str, float]]:
    """CPU and per-filesystem slowdown factors for one phase."""
    cores = machine.cpu.cores
    cpu_workers = 0
    fs_streams: dict[str, int] = {}
    for stream in phase.streams:
        threads = [
            min(d.threads, cores)
            for d in stream.demands
            if isinstance(d, ComputeDemand)
        ]
        if threads:
            cpu_workers += max(threads)
        for fs in {d.filesystem for d in stream.demands if isinstance(d, IODemand)}:
            fs_streams[fs] = fs_streams.get(fs, 0) + 1
    f_cpu = max(1.0, cpu_workers / cores)
    f_io = {fs: max(1.0, float(n)) for fs, n in fs_streams.items()}
    return f_cpu, f_io


# -- the comparison ------------------------------------------------------------


def _demands(workload):
    for phase in workload.phases:
        for stream in phase.streams:
            for demand in stream.demands:
                yield phase, demand


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    machine_name=st.sampled_from(MACHINES),
)
def test_batched_cost_kernels_match_the_scalar_oracle(seed, machine_name):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    engine = Engine(machine)
    g = engine._bind(pack_workload(workload))
    kernels = {
        ComputeDemand: engine._compute_costs,
        IODemand: engine._io_costs,
        MemoryDemand: engine._memory_costs,
        NetworkDemand: engine._network_costs,
    }
    positions = {
        ComputeDemand: g.c_pos, IODemand: g.i_pos,
        MemoryDemand: g.m_pos, NetworkDemand: g.n_pos,
    }
    demands = [demand for _, demand in _demands(workload)]
    for kind, kernel in kernels.items():
        pos = positions[kind]
        if not pos.size:
            continue
        group = kernel(g)
        for row, index in enumerate(pos.tolist()):
            assert isinstance(demands[index], kind)
            duration, counters = cost(machine, demands[index])
            assert group["duration"][row] == duration
            for name, amount in counters.items():
                assert group[name][row] == amount, name


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    machine_name=st.sampled_from(MACHINES),
    packed=st.booleans(),
)
def test_prepared_durations_and_amounts_match_the_scalar_oracle(
    seed, machine_name, packed
):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    plan = Engine(machine).prepare(pack_workload(workload) if packed else workload)
    seen: dict[str, int] = {}
    factors = {id(phase): phase_factors(machine, phase) for phase in workload.phases}
    for index, (phase, demand) in enumerate(_demands(workload)):
        duration, counters = cost(machine, demand)
        f_cpu, f_io = factors[id(phase)]
        if isinstance(demand, ComputeDemand):
            duration *= f_cpu
        elif isinstance(demand, IODemand):
            duration *= f_io[demand.filesystem]
        assert plan.slot_values[plan.slot_bases[index]] == duration
        for name, amount in counters.items():
            row = seen.get(name, 0)
            kind, slot = SLOT_OF[name]
            assert plan.slot_values[plan.slot_groups[kind][row] + slot] == amount, name
            seen[name] = row + 1
    assert plan.n == workload.n_demands
