"""A fully tunable synthetic application.

E.5 of the paper "uses a synthetic workload designed to characterize
Synapse's I/O emulation capabilities in isolation"; the same class also
serves as the generic proxy-application building block of the use cases
in §2 (task-parallel middleware development needs tasks with arbitrary
resource footprints).

Every dimension is an explicit constructor argument, mirroring the
paper's malleability requirement E.3: compute amount and workload class,
read/write volumes with block sizes and target filesystem, memory
footprint, network traffic, sleep time and single-node parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import ApplicationModel
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["SyntheticApp"]


@dataclass
class SyntheticApp(ApplicationModel):
    """A proxy application with directly specified resource consumption."""

    instructions: float = 0.0
    workload_class: str = "app.generic"
    flop_fraction: float = 0.2
    bytes_read: int = 0
    bytes_written: int = 0
    io_block_size: int = 1 << 20
    filesystem: str = "default"
    memory_bytes: int = 0
    mem_block_size: int = 1 << 20
    net_sent: int = 0
    net_received: int = 0
    sleep_seconds: float = 0.0
    threads: int = 1
    paradigm: str = "openmp"
    chunks: int = 16
    #: Run compute and I/O in *concurrent* streams instead of serially
    #: (exercises the engine's intra-phase concurrency, Fig 2 semantics).
    overlap_io: bool = False
    name: str = field(default="synapse_synthetic", repr=False)

    def __post_init__(self) -> None:
        if self.chunks < 1:
            raise ValueError("chunks must be >= 1")
        if self.instructions < 0:
            raise ValueError("instructions must be non-negative")

    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        workload = SimWorkload(
            name=self.command(),
            base_rss=2 << 20,
            metadata={"app": "synthetic"},
        )
        fs = self.filesystem if self.filesystem != "default" else machine.default_fs

        phase = workload.phase("main")
        compute_stream = phase.stream("compute")
        io_stream = compute_stream if not self.overlap_io else phase.stream("io")

        if self.memory_bytes:
            compute_stream.add(
                MemoryDemand(allocate=self.memory_bytes, block_size=self.mem_block_size)
            )
        if self.sleep_seconds:
            compute_stream.add(SleepDemand(self.sleep_seconds))

        for chunk in range(self.chunks):
            if self.instructions:
                compute_stream.add(
                    ComputeDemand(
                        instructions=self.instructions / self.chunks,
                        workload_class=self.workload_class,
                        flops_per_instruction=self.flop_fraction,
                        threads=self.threads,
                        paradigm=self.paradigm,
                    )
                )
            read_lo = self.bytes_read * chunk // self.chunks
            read_hi = self.bytes_read * (chunk + 1) // self.chunks
            write_lo = self.bytes_written * chunk // self.chunks
            write_hi = self.bytes_written * (chunk + 1) // self.chunks
            if read_hi > read_lo or write_hi > write_lo:
                io_stream.add(
                    IODemand(
                        bytes_read=read_hi - read_lo,
                        bytes_written=write_hi - write_lo,
                        block_size=self.io_block_size,
                        filesystem=fs,
                    )
                )
        if self.net_sent or self.net_received:
            compute_stream.add(
                NetworkDemand(bytes_sent=self.net_sent, bytes_received=self.net_received)
            )

        if self.memory_bytes:
            teardown = workload.phase("teardown")
            teardown.stream("main").add(
                MemoryDemand(free=self.memory_bytes, block_size=self.mem_block_size)
            )
        return workload

    def command(self) -> str:
        return self.name

    def tags(self) -> dict[str, object]:
        return {
            "instructions": self.instructions,
            "read": self.bytes_read,
            "written": self.bytes_written,
            "bs": self.io_block_size,
            "fs": self.filesystem,
        }
