"""CPU/memory resource models and the machine specification.

A :class:`MachineSpec` is the simulation plane's description of one
compute resource (the paper's Thinkie, Stampede, Archer, Supermic, Comet,
Titan).  It owns:

* a :class:`CPUModel` — clock frequency, core count, and a table of
  :class:`WorkloadClassSpec` entries giving per-workload-class IPC and
  stall behaviour.  Workload classes separate *applications* (e.g.
  ``app.md`` for the Gromacs-like model) from *emulation kernels*
  (``kernel.asm``, ``kernel.c``, ...), which is how the E.3 fidelity
  differences arise: the machine executes different instruction mixes at
  different IPC;
* a :class:`MemoryModel` — allocation cost model;
* named :class:`~repro.sim.filesystem.FilesystemModel` mounts;
* per-paradigm :class:`~repro.parallel.scaling.ScalingModel` entries
  (``openmp``, ``mpi``) used by parallel compute demands.

The *calibration IPC* of a kernel class deserves a note.  Emulation
kernels are calibrated with short runs ("the loop's efficiency represents
the maximum efficiency at which this atom can emulate", §4.2); sustained
execution then runs at a different effective IPC because caches, TLBs and
frequency governors behave differently under load.  The ratio
``calib_ipc / ipc`` is the kernel's systematic cycle-consumption bias —
the quantity whose convergence E.3 measures (Fig 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import UnknownNameError, number, whole_number
from repro.parallel.scaling import ScalingModel
from repro.sim.filesystem import FilesystemModel

__all__ = ["WorkloadClassSpec", "CPUModel", "MemoryModel", "MachineSpec"]


@dataclass(frozen=True)
class WorkloadClassSpec:
    """Execution characteristics of one workload class on one machine."""

    #: Sustained instructions per used cycle.
    ipc: float
    #: IPC observed during short calibration runs (kernels only).  The
    #: kernel's cycle-consumption bias is ``calib_ipc / ipc``; ``None``
    #: means calibration is exact (bias 1.0).
    calib_ipc: float | None = None
    #: (stalled_frontend + stalled_backend) / used cycles.
    stall_ratio: float = 0.5
    #: Fraction of stalled cycles attributed to the frontend.
    stall_front_fraction: float = 0.45

    def __post_init__(self) -> None:
        number("ipc", self.ipc, above=0)
        if self.calib_ipc is not None:
            number("calib_ipc", self.calib_ipc, above=0)
        number("stall_ratio", self.stall_ratio, 0)
        number("stall_front_fraction", self.stall_front_fraction, 0, 1)

    @property
    def cycle_bias(self) -> float:
        """Systematic factor between requested and consumed cycles."""
        if self.calib_ipc is None:
            return 1.0
        return self.calib_ipc / self.ipc


@dataclass(frozen=True)
class CPUModel:
    """Clock, cores and per-class execution characteristics."""

    frequency: float
    cores: int
    classes: dict[str, WorkloadClassSpec] = field(default_factory=dict)
    default_class: WorkloadClassSpec = WorkloadClassSpec(ipc=1.5)

    def __post_init__(self) -> None:
        number("frequency", self.frequency, above=0)
        whole_number("cores", self.cores, 1)

    def spec(self, workload_class: str) -> WorkloadClassSpec:
        """Class spec lookup with fallback to the machine default."""
        return self.classes.get(workload_class, self.default_class)

    def cycles_for(self, instructions: float, workload_class: str) -> float:
        """Used cycles needed to execute ``instructions`` of a class."""
        return instructions / self.spec(workload_class).ipc

    def seconds_for_cycles(self, cycles: float) -> float:
        """Single-core wall time for ``cycles`` used cycles (§5 E.3:
        Tx ≈ cycles / clock speed for compute-bound runs)."""
        return cycles / self.frequency


@dataclass(frozen=True)
class MemoryModel:
    """malloc/free cost model (per-request latency + zeroing bandwidth)."""

    alloc_latency: float = 2e-7
    free_latency: float = 1e-7
    touch_bandwidth: float = 8e9

    def __post_init__(self) -> None:
        number("alloc_latency", self.alloc_latency, 0)
        number("free_latency", self.free_latency, 0)
        number("touch_bandwidth", self.touch_bandwidth, above=0)

    def alloc_time(self, nbytes: int, block_size: int) -> float:
        """Seconds to allocate-and-touch ``nbytes`` in blocks."""
        if nbytes <= 0:
            return 0.0
        ops = max(1, -(-nbytes // block_size))
        return ops * self.alloc_latency + nbytes / self.touch_bandwidth

    def free_time(self, nbytes: int, block_size: int) -> float:
        """Seconds to free ``nbytes`` in blocks."""
        if nbytes <= 0:
            return 0.0
        ops = max(1, -(-nbytes // block_size))
        return ops * self.free_latency


@dataclass(frozen=True)
class MachineSpec:
    """Complete description of one simulated resource."""

    name: str
    description: str
    cpu: CPUModel
    memory_bytes: int
    memory: MemoryModel = MemoryModel()
    filesystems: dict[str, FilesystemModel] = field(default_factory=dict)
    default_fs: str = "local"
    scaling: dict[str, ScalingModel] = field(default_factory=dict)
    #: Network model: flat per-message latency + bandwidth.
    net_latency: float = 100e-6
    net_bandwidth: float = 1e9
    #: Relative noise applied to demand durations on this machine.
    noise_sigma: float = 0.01

    def __post_init__(self) -> None:
        whole_number("memory_bytes", self.memory_bytes, 1)
        number("net_latency", self.net_latency, 0)
        number("net_bandwidth", self.net_bandwidth, above=0)

    def filesystem(self, name: str | None = None) -> FilesystemModel:
        """Look up a mounted filesystem (``None``/"default" -> default)."""
        key = name if name not in (None, "", "default") else self.default_fs
        if key not in self.filesystems:
            raise UnknownNameError(
                f"machine {self.name!r} has no filesystem {key!r}; "
                f"available: {sorted(self.filesystems)}"
            )
        return self.filesystems[key]

    def scaling_model(self, paradigm: str) -> ScalingModel:
        """Scaling model for ``openmp``/``mpi`` (default model if absent)."""
        return self.scaling.get(paradigm, ScalingModel())

    def info(self) -> dict[str, object]:
        """Machine description embedded into profiles (system watcher)."""
        return {
            "name": self.name,
            "description": self.description,
            "cores": self.cpu.cores,
            "frequency": self.cpu.frequency,
            "memory": self.memory_bytes,
            "filesystems": sorted(self.filesystems),
            "default_fs": self.default_fs,
            "backend": "sim",
        }
