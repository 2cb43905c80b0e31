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

The three loads take effect when an emulation plan is built for the
simulation plane (:meth:`~repro.core.plan.EmulationPlan.build_packed_workload`):

* ``cpu_load`` adds a ``cpu-load`` stream to each sample with cycles,
  burning ``cpu_load`` times the sample's cycle budget beside it;
* ``disk_load`` adds a ``disk-load`` stream to each sample with I/O,
  writing ``disk_load`` times the sample's read plus written bytes to
  the same filesystem.  Filesystem bandwidth is shared by stream count,
  so any non-zero ``disk_load`` takes one stream's share;
* ``mem_load`` is memory held resident for the whole emulation: it
  raises ``mem.rss`` and ``mem.peak`` by exactly its size and changes
  nothing else.

The host plane applies no load: an emulation there refuses a non-zero
load with :class:`~repro.core.errors.ConfigError` instead of silently
running without it.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ConfigError, flag, mapping, names, number, text, whole_number
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
    #: Fixed at 1: the storage atom replays into one file.  The field
    #: stays because every profile stores ``to_dict()`` of its config,
    #: which feeds each ledger digest.
    io_file_count: int = 1
    mem_block_size: int | str = "1MB"
    net_block_size: int | str = "64KB"

    # --- parallel emulation (E.4) ------------------------------------------
    openmp_threads: int = 1
    mpi_processes: int = 1

    # --- artificial load (§4.3; simulation plane only, see above) ---------
    #: Extra CPU work as a fraction of each sample's cycles.
    cpu_load: float = 0.0
    #: Bytes held resident for the whole emulation.
    mem_load: int | str = 0
    #: Extra bytes written as a fraction of each sample's I/O bytes.
    disk_load: float = 0.0

    # --- partially supported tunables (Table 1) -----------------------------
    efficiency_target: float | None = None

    # --- bookkeeping --------------------------------------------------------
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        number("sample_rate", self.sample_rate, above=0.0, most=MAX_SAMPLE_RATE)
        self.watchers = names("watchers", self.watchers)
        self.atoms = names("atoms", self.atoms)
        flag("drain_final_sample", self.drain_final_sample)
        for name in ("compute_kernel", "io_filesystem"):
            text(name, getattr(self, name))
        blocks = [
            name for name in ("io_block_size_read", "io_block_size_write")
            if getattr(self, name) != "auto"
        ] + ["mem_block_size", "net_block_size"]
        for name in (*blocks, "mem_load"):
            value = getattr(self, name)
            if not isinstance(value, str):
                number(name, value, 0)
            try:
                setattr(self, name, parse_bytes(value))
            except (ValueError, OverflowError) as exc:  # a malformed byte string
                raise ConfigError(f"{name}: {exc}") from exc
        for name in blocks:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)!r}")
        # Checked, not converted: a whole float stays a float, as every
        # stored config (and so every ledger digest) carries it.
        whole_number("openmp_threads", self.openmp_threads, 1)
        whole_number("mpi_processes", self.mpi_processes, 1)
        number("cpu_load", self.cpu_load, 0.0)
        number("disk_load", self.disk_load, 0.0)
        if number("io_file_count", self.io_file_count) != 1:
            raise ConfigError(
                f"io_file_count must be 1 (the storage atom writes one file), "
                f"got {self.io_file_count!r}"
            )
        if self.efficiency_target is not None:
            number("efficiency_target", self.efficiency_target, above=0.0, most=1.0)
        if self.sampling_policy not in ("constant", "adaptive"):
            raise ConfigError(
                f"sampling_policy must be 'constant' or 'adaptive', "
                f"got {self.sampling_policy!r}"
            )
        number(
            "adaptive_initial_rate", self.adaptive_initial_rate,
            above=0.0, most=MAX_SAMPLE_RATE,
        )
        number("adaptive_settle_seconds", self.adaptive_settle_seconds, 0.0)
        mapping("extra", self.extra)
        if self.sampling_policy == "adaptive":
            # The profiler builds the policy only once a run starts.
            from repro.core.sampling import policy_from_config  # noqa: PLC0415 (cycle)

            policy_from_config(self)

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
        return cls(**{k: v for k, v in data.items() if k in _FIELD_NAMES})


#: Field names in declaration order (the key order of :meth:`to_dict`).
_FIELD_NAMES = tuple(f.name for f in dataclasses.fields(SynapseConfig))
