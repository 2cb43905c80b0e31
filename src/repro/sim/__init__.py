"""Simulation plane: virtual machines, clock, engine and backend.

This subpackage lets the *same* profiler/emulator code that observes real
Linux processes run against deterministic models of the paper's six
experiment machines — the "profile once, emulate anywhere" loop without
the testbed.  The profiler sees only counters, so a model that produces
the counters the paper reports stands in for the hardware.
"""

from repro.sim.backend import SimBackend
from repro.sim.clock import VirtualClock
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.engine import Engine, ExecutionRecord, IOEvent, Prepared
from repro.sim.filesystem import FilesystemModel
from repro.sim.machines import get_machine, list_machines
from repro.sim.noise import NoiseModel, seed_from
from repro.sim.process import SimProcess
from repro.sim.resource import CPUModel, MachineSpec, MemoryModel, WorkloadClassSpec
from repro.sim.workload import Phase, SimWorkload, Stream

__all__ = [
    "ComputeDemand",
    "CPUModel",
    "Engine",
    "ExecutionRecord",
    "FilesystemModel",
    "IODemand",
    "IOEvent",
    "MachineSpec",
    "MemoryDemand",
    "MemoryModel",
    "NetworkDemand",
    "NoiseModel",
    "Phase",
    "Prepared",
    "SimBackend",
    "SimProcess",
    "SimWorkload",
    "SleepDemand",
    "Stream",
    "VirtualClock",
    "WorkloadClassSpec",
    "get_machine",
    "list_machines",
    "seed_from",
]
