"""A Gromacs-like molecular-dynamics application model.

Gromacs is the validation application of the paper (§5): all of E.1–E.4
run it with iteration counts between 1e3 and 1e7.  The model reproduces
the resource-consumption trace the paper documents:

* CPU work grows linearly with the iteration count (Fig 6 top shows
  total operations spanning 1e9–1e12 over 1e4–1e7 iterations); on the
  Thinkie model this yields Tx between ~0.5 s and ~210 s (Fig 4);
* disk *output* grows with iterations (trajectory frames) while disk
  *input* (topology) and memory are constant in the problem size
  ("the number of steps influences both CPU consumption and disk output,
  but leaves disk input and memory consumption constant", §5);
* the resident set ramps up during startup to ~5.8 MB and is released
  before exit — which is exactly why low sampling rates *underestimate*
  resident memory in Fig 6 (bottom): a single sample taken at exit sees
  the torn-down heap;
* per-machine ``compiled_factor`` entries capture resource-specific
  compile-time optimisation: the same iteration count executes a
  different instruction stream on different resources (§4.5
  "Application Optimization" and §7 name this the dominant source of
  cross-resource emulation uncertainty).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import ApplicationModel
from repro.core.errors import mapping, number, text, whole_number
from repro.sim.demands import ComputeDemand, IODemand, MemoryDemand
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["GromacsModel"]

#: Instructions executed per MD iteration (single-core reference build).
_INSTRUCTIONS_PER_ITERATION = 1.08e5
#: Setup instructions independent of the iteration count.
_BASE_INSTRUCTIONS = 5.0e8
#: Startup (binary + input parsing) instructions, at startup IPC.
_STARTUP_INSTRUCTIONS = 6.0e8
#: Topology/input bytes read at startup — constant in iterations.
_INPUT_BYTES = 2 << 20
#: Trajectory bytes written per iteration plus a constant log tail.
_OUTPUT_BYTES_PER_ITERATION = 0.42
_OUTPUT_BYTES_BASE = 4096
#: Resident-set model: interpreter/code base plus the simulation heap.
_BASE_RSS = int(2.2e6)
_HEAP_BYTES = int(3.6e6)
#: Fraction of instructions that are floating-point operations.
_FLOP_FRACTION = 0.35


@dataclass
class GromacsModel(ApplicationModel):
    """``gmx mdrun`` stand-in, parameterised by MD iteration count.

    Parameters
    ----------
    iterations:
        Number of MD steps (the paper sweeps 1e3 ... 1e7).
    threads:
        Single-node parallelism degree (Figs 13/14 scaling runs).
    paradigm:
        ``"openmp"`` (threads) or ``"mpi"`` (ranks); selects the
        machine's scaling model.
    chunks:
        Number of compute/I/O interleaving chunks; purely a trace
        granularity knob (totals are invariant to it).
    """

    iterations: int = 10_000
    threads: int = 1
    paradigm: str = "openmp"
    chunks: int = 64
    name: str = field(default="gmx_mdrun", repr=False)
    #: Per-machine instruction-count factor (compile-time optimisation).
    compiled_factor: dict[str, float] = field(
        default_factory=lambda: {
            "thinkie": 1.00,
            "stampede": 1.89,
            "archer": 0.87,
            "comet": 1.00,
            "supermic": 1.00,
            "titan": 1.00,
            "localhost": 1.00,
        }
    )

    def __post_init__(self) -> None:
        # Checked, not converted: a whole float stays in the command.
        whole_number("iterations", self.iterations, 1)
        whole_number("threads", self.threads, 1)
        text("paradigm", self.paradigm)
        whole_number("chunks", self.chunks, 1)
        for machine, factor in mapping("compiled_factor", self.compiled_factor).items():
            number(f"compiled_factor {machine!r}", factor, above=0)

    # -- demand model ------------------------------------------------------

    def instructions(self, machine: MachineSpec) -> float:
        """Total MD-loop instructions executed on ``machine``."""
        base = _BASE_INSTRUCTIONS + _INSTRUCTIONS_PER_ITERATION * self.iterations
        return base * self.compiled_factor.get(machine.name, 1.0)

    def bytes_written(self) -> int:
        """Total trajectory/log output bytes (machine independent)."""
        return int(_OUTPUT_BYTES_BASE + _OUTPUT_BYTES_PER_ITERATION * self.iterations)

    def bytes_read(self) -> int:
        """Input bytes (constant in the iteration count)."""
        return _INPUT_BYTES

    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        workload = SimWorkload(
            name=self.command(),
            base_rss=_BASE_RSS,
            metadata={"app": "gromacs", "iterations": self.iterations},
        )
        fs = machine.default_fs

        # Startup: binary load, input read, heap allocation ramp.
        startup = workload.phase("startup")
        stream = startup.stream("main")
        stream.add(
            ComputeDemand(
                instructions=_STARTUP_INSTRUCTIONS * 0.3,
                workload_class="app.startup",
            )
        )
        stream.add(IODemand(bytes_read=self.bytes_read(), block_size=256 << 10, filesystem=fs))
        ramp_steps = 8
        for _ in range(ramp_steps):
            stream.add(MemoryDemand(allocate=_HEAP_BYTES // ramp_steps, block_size=256 << 10))
            stream.add(
                ComputeDemand(
                    instructions=_STARTUP_INSTRUCTIONS * 0.7 / ramp_steps,
                    workload_class="app.startup",
                )
            )

        # Main MD loop: compute chunks interleaved with trajectory writes.
        main = workload.phase("mdrun")
        stream = main.stream("main")
        instructions = self.instructions(machine)
        out_bytes = self.bytes_written()
        for chunk in range(self.chunks):
            stream.add(
                ComputeDemand(
                    instructions=instructions / self.chunks,
                    workload_class="app.md",
                    flops_per_instruction=_FLOP_FRACTION,
                    threads=self.threads,
                    paradigm=self.paradigm,
                )
            )
            lo = out_bytes * chunk // self.chunks
            hi = out_bytes * (chunk + 1) // self.chunks
            if hi > lo:
                stream.add(
                    IODemand(bytes_written=hi - lo, block_size=64 << 10, filesystem=fs)
                )

        # Teardown: release the simulation heap before exit.  This is what
        # makes single-sample (low-rate) profiles under-report RSS (Fig 6).
        teardown = workload.phase("teardown")
        stream = teardown.stream("main")
        stream.add(MemoryDemand(free=_HEAP_BYTES, block_size=1 << 20))
        stream.add(
            ComputeDemand(instructions=2e7, workload_class="app.startup")
        )
        return workload

    # -- profile indexing -----------------------------------------------------

    def command(self) -> str:
        return f"gmx mdrun -nsteps {self.iterations}"

    def tags(self) -> dict[str, object]:
        tags: dict[str, object] = {"tag_step": self.iterations}
        if self.threads > 1:
            tags["threads"] = self.threads
            tags["paradigm"] = self.paradigm
        return tags
