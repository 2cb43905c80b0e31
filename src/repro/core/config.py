"""Global Synapse configuration.

A single :class:`SynapseConfig` object travels through the profiler and
the emulator.  It captures every tunable the paper exposes:

* the profiler sampling rate (max 10 Hz — the ``perf stat`` limit, §4.1);
* the compute kernel used for emulation (default ``"asm"``, §4.2);
* I/O block sizes and target filesystem for the storage atom (E.5);
* OpenMP thread / MPI process counts for parallel emulation (E.4);
* artificial background loads (§4.3, "stress"-like);
* the optional CPU efficiency target (Table 1 lists efficiency emulation
  as partially supported: it is a manual tunable).
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ConfigError
from repro.util.units import parse_bytes

__all__ = ["SynapseConfig", "MAX_SAMPLE_RATE", "DEFAULT_WATCHERS", "DEFAULT_ATOMS"]

#: Hard upper bound on the profiler sampling rate (Hz).  The paper caps at
#: one sample per 100 ms because ``perf stat`` cannot sample faster.
MAX_SAMPLE_RATE = 10.0

#: Watchers enabled by default, mirroring Fig 1 of the paper.
DEFAULT_WATCHERS = ("system", "cpu", "memory", "storage", "rusage")

#: Emulation atoms enabled by default.
DEFAULT_ATOMS = ("compute", "memory", "storage")


@dataclass
class SynapseConfig:
    """Tunables for profiling and emulation runs.

    All byte-size fields accept either integers or strings like ``"4KB"``.
    Validation happens in ``__post_init__`` so an invalid configuration
    fails at construction, not mid-run.
    """

    # --- profiling ---------------------------------------------------------
    sample_rate: float = 1.0
    watchers: tuple[str, ...] = DEFAULT_WATCHERS
    #: Extra settle time (s) the profiler waits after process exit so that
    #: the final, partial sample period completes (§4.5 "Overheads").
    drain_final_sample: bool = True
    #: Sampling policy: ``"constant"`` (fixed ``sample_rate``) or
    #: ``"adaptive"`` (§6 future work: high-rate startup capture that
    #: settles to ``sample_rate`` after ``adaptive_settle_seconds``).
    sampling_policy: str = "constant"
    adaptive_initial_rate: float = MAX_SAMPLE_RATE
    adaptive_settle_seconds: float = 5.0

    # --- emulation ---------------------------------------------------------
    atoms: tuple[str, ...] = DEFAULT_ATOMS
    compute_kernel: str = "asm"
    #: I/O block sizes: a byte quantity, or ``"auto"`` to use block sizes
    #: inferred by the experimental blktrace watcher from the profiled
    #: application (§6 future work: "We consider using this data in
    #: Synapse emulation when applications require that granularity").
    io_block_size_read: int | str = "1MB"
    io_block_size_write: int | str = "1MB"
    io_filesystem: str = "default"
    io_file_count: int = 1
    mem_block_size: int | str = "1MB"
    net_block_size: int | str = "64KB"

    # --- parallel emulation (E.4) ------------------------------------------
    openmp_threads: int = 1
    mpi_processes: int = 1

    # --- artificial load (§4.3) --------------------------------------------
    cpu_load: float = 0.0
    mem_load: int | str = 0
    disk_load: float = 0.0

    # --- partially supported tunables (Table 1) -----------------------------
    efficiency_target: float | None = None

    # --- bookkeeping --------------------------------------------------------
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 < self.sample_rate <= MAX_SAMPLE_RATE):
            raise ConfigError(
                f"sample_rate must be in (0, {MAX_SAMPLE_RATE}] Hz, got {self.sample_rate}"
            )
        try:
            if self.io_block_size_read != "auto":
                self.io_block_size_read = parse_bytes(self.io_block_size_read)
                if self.io_block_size_read <= 0:
                    raise ConfigError("I/O block sizes must be positive")
            if self.io_block_size_write != "auto":
                self.io_block_size_write = parse_bytes(self.io_block_size_write)
                if self.io_block_size_write <= 0:
                    raise ConfigError("I/O block sizes must be positive")
            self.mem_block_size = parse_bytes(self.mem_block_size)
            self.net_block_size = parse_bytes(self.net_block_size)
            self.mem_load = parse_bytes(self.mem_load)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.mem_block_size <= 0:
            raise ConfigError("memory block size must be positive")
        if self.openmp_threads < 1:
            raise ConfigError("openmp_threads must be >= 1")
        if self.mpi_processes < 1:
            raise ConfigError("mpi_processes must be >= 1")
        if not (0.0 <= self.cpu_load):
            raise ConfigError("cpu_load must be non-negative")
        if self.disk_load < 0:
            raise ConfigError("disk_load must be non-negative")
        if self.efficiency_target is not None and not (0.0 < self.efficiency_target <= 1.0):
            raise ConfigError("efficiency_target must be in (0, 1]")
        if not self.watchers:
            raise ConfigError("at least one watcher must be enabled")
        if self.sampling_policy not in ("constant", "adaptive"):
            raise ConfigError(
                f"sampling_policy must be 'constant' or 'adaptive', "
                f"got {self.sampling_policy!r}"
            )
        if not (0.0 < self.adaptive_initial_rate <= MAX_SAMPLE_RATE):
            raise ConfigError(
                f"adaptive_initial_rate must be in (0, {MAX_SAMPLE_RATE}]"
            )
        if self.adaptive_settle_seconds < 0:
            raise ConfigError("adaptive_settle_seconds must be non-negative")

    @property
    def sample_interval(self) -> float:
        """Seconds between two profiler samples."""
        return 1.0 / self.sample_rate

    def replace(self, **changes: Any) -> "SynapseConfig":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Serialise to a plain dict (stored inside every profile)."""
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["watchers"] = list(self.watchers)
        data["atoms"] = list(self.atoms)
        data["extra"] = copy.deepcopy(self.extra)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SynapseConfig":
        """Inverse of :meth:`to_dict` (unknown keys are ignored)."""
        known = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if "watchers" in kwargs:
            kwargs["watchers"] = tuple(kwargs["watchers"])
        if "atoms" in kwargs:
            kwargs["atoms"] = tuple(kwargs["atoms"])
        return cls(**kwargs)


#: Field names in declaration order (the key order of :meth:`to_dict`).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SynapseConfig))
