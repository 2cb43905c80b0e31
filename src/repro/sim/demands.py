"""Resource demand primitives executed by the simulation engine.

A *demand* is one contiguous consumption of one resource type — the
simulation-plane counterpart of what an emulation atom does on the host
plane (§3.3 of the paper).  Virtual applications and emulation plans are
both expressed as sequences of demands, so the profiler observes the two
through exactly the same counters.

Each kind of demand states its rules once, in one ``check_*`` function
below, which every path that builds a demand calls once per demand (see
:mod:`repro.sim.packed`).  Its ``not lo <= x < inf`` tests fail NaN and
±inf, and it raises :class:`~repro.core.errors.WorkloadError` naming
the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any

from repro.core.errors import WorkloadError

__all__ = [
    "Demand",
    "ComputeDemand",
    "IODemand",
    "MemoryDemand",
    "NetworkDemand",
    "SleepDemand",
    "check_compute",
    "check_io",
    "check_memory",
    "check_network",
    "check_sleep",
]

_INF = float("inf")
#: The rules, as the error messages state them.
_AT_LEAST_0 = "a finite number >= 0"
_AT_LEAST_1 = "a finite number >= 1"
_ABOVE_0 = "a finite number > 0"
_FRACTION = "a number in [0, 1]"


def _bad(field: str, value: Any, rule: str) -> WorkloadError:
    value = value.item() if hasattr(value, "item") else value  # a NumPy scalar
    return WorkloadError(f"{field} must be {rule}, not {value!r}")


def check_compute(
    instructions: Any, flops_per_instruction: Any, threads: Any,
    calibrated_cycles: Any, stall_ratio: Any,
) -> None:
    """The rules of one compute demand (``None`` leaves an optional unset)."""
    if not 0 <= instructions < _INF:
        raise _bad("instructions", instructions, _AT_LEAST_0)
    if not 1 <= threads < _INF:
        raise _bad("threads", threads, _AT_LEAST_1)
    if not 0 <= flops_per_instruction <= 1:
        raise _bad("flops_per_instruction", flops_per_instruction, _FRACTION)
    if calibrated_cycles is not None and not 0 <= calibrated_cycles < _INF:
        raise _bad("calibrated_cycles", calibrated_cycles, _AT_LEAST_0)
    if stall_ratio is not None and not 0 <= stall_ratio < _INF:
        raise _bad("stall_ratio", stall_ratio, _AT_LEAST_0)


def _check_transfer(
    names: tuple[str, str, str], first: Any, second: Any, block_size: Any
) -> None:
    """The rules of two byte counts and a block size, the fields named
    ``names``: one I/O, memory or network demand."""
    if not 0 <= first < _INF:
        raise _bad(names[0], first, _AT_LEAST_0)
    if not 0 <= second < _INF:
        raise _bad(names[1], second, _AT_LEAST_0)
    if not 0 < block_size < _INF:
        raise _bad(names[2], block_size, _ABOVE_0)


#: ``check_io(bytes_read, bytes_written, block_size)`` and its twins.
check_io = partial(_check_transfer, ("bytes_read", "bytes_written", "block_size"))
check_memory = partial(_check_transfer, ("allocate", "free", "block_size"))
check_network = partial(_check_transfer, ("bytes_sent", "bytes_received", "block_size"))


def check_sleep(seconds: Any) -> None:
    """The rule of one sleep demand."""
    if not 0 <= seconds < _INF:
        raise _bad("seconds", seconds, _AT_LEAST_0)


class Demand:
    """Marker base class for all demand types."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class ComputeDemand(Demand):
    """Execute ``instructions`` machine instructions.

    ``workload_class`` selects the machine's IPC/stall characteristics
    (an application class such as ``"app.md"``, or a kernel class such as
    ``"kernel.asm"``).  ``calibrated_cycles`` is set by the compute atom
    when the demand was derived from a target cycle count: the engine then
    charges the kernel's *calibration-biased* cycle consumption instead of
    deriving cycles from instructions (this reproduces the E.3 kernel
    fidelity differences mechanistically).
    """

    instructions: float
    workload_class: str = "app.generic"
    flops_per_instruction: float = 0.0
    threads: int = 1
    paradigm: str = "serial"
    calibrated_cycles: float | None = None
    #: Override of the machine class's stalled/used cycle ratio.  Set by
    #: the emulator when a CPU-efficiency target is configured (Table 1
    #: lists efficiency emulation as partially supported — a manual
    #: tunable): efficiency = 1 / (1 + stall_ratio).
    stall_ratio: float | None = None

    def __post_init__(self) -> None:
        check_compute(
            self.instructions, self.flops_per_instruction, self.threads,
            self.calibrated_cycles, self.stall_ratio,
        )


@dataclass(frozen=True, slots=True)
class IODemand(Demand):
    """Read/write bytes from/to a named filesystem in fixed-size blocks."""

    bytes_read: int = 0
    bytes_written: int = 0
    block_size: int = 1 << 20
    filesystem: str = "local"

    def __post_init__(self) -> None:
        check_io(self.bytes_read, self.bytes_written, self.block_size)


@dataclass(frozen=True, slots=True)
class MemoryDemand(Demand):
    """Allocate and/or free bytes of memory (libc malloc/free analogue)."""

    allocate: int = 0
    free: int = 0
    block_size: int = 1 << 20

    def __post_init__(self) -> None:
        check_memory(self.allocate, self.free, self.block_size)


@dataclass(frozen=True, slots=True)
class NetworkDemand(Demand):
    """Send/receive bytes over a (virtual) socket connection."""

    bytes_sent: int = 0
    bytes_received: int = 0
    block_size: int = 64 << 10
    endpoint: str = "peer"

    def __post_init__(self) -> None:
        check_network(self.bytes_sent, self.bytes_received, self.block_size)


@dataclass(frozen=True, slots=True)
class SleepDemand(Demand):
    """Consume wall time without consuming any other resource.

    This models the paper's ``sleep(3)`` limitation example (§4.5): lots
    of Tx, almost no cycles.
    """

    seconds: float

    def __post_init__(self) -> None:
        check_sleep(self.seconds)
