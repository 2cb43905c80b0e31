"""An ensemble-application model (use case §2.3, Ensemble Toolkit).

Ensemble-based applications run *stages* of concurrent tasks with
barriers between stages; the paper motivates Synapse as a proxy that can
"vary the duration and number of task instances between different stages
... and change the coupling between tasks".  This model expresses such a
pipeline directly in the engine's phase/stream structure: each stage is
one phase, each task one stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import ApplicationModel
from repro.core.errors import ConfigError, number, text, whole_number
from repro.sim.demands import ComputeDemand, IODemand
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["EnsembleStage", "EnsembleApp"]


@dataclass(frozen=True)
class EnsembleStage:
    """One stage: ``tasks`` concurrent tasks of ``instructions`` each."""

    tasks: int
    instructions: float
    bytes_written: int = 0
    workload_class: str = "app.md"

    def __post_init__(self) -> None:
        whole_number("tasks", self.tasks, 1)
        number("instructions", self.instructions, 0)
        whole_number("bytes_written", self.bytes_written, 0)
        text("workload_class", self.workload_class)


@dataclass
class EnsembleApp(ApplicationModel):
    """A barrier-synchronised multi-stage ensemble workload.

    The default three stages mimic an advanced-sampling pipeline:
    a wide simulation stage, a narrow analysis stage, and a second
    simulation stage re-seeded from the analysis (§2.3).
    """

    stages: tuple[EnsembleStage, ...] = (
        EnsembleStage(tasks=8, instructions=4e9),
        EnsembleStage(tasks=1, instructions=1e9, workload_class="app.generic"),
        EnsembleStage(tasks=8, instructions=4e9),
    )
    name: str = field(default="ensemble_md", repr=False)

    def __post_init__(self) -> None:
        if not self.stages:
            raise ConfigError("stages must not be empty")

    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        workload = SimWorkload(name=self.command(), metadata={"app": "ensemble"})
        for index, stage in enumerate(self.stages):
            phase = workload.phase(f"stage-{index}")
            for task in range(stage.tasks):
                stream = phase.stream(f"task-{task}")
                stream.add(
                    ComputeDemand(
                        instructions=stage.instructions,
                        workload_class=stage.workload_class,
                        flops_per_instruction=0.3,
                    )
                )
                if stage.bytes_written:
                    stream.add(
                        IODemand(
                            bytes_written=stage.bytes_written,
                            block_size=256 << 10,
                            filesystem=machine.default_fs,
                        )
                    )
        return workload

    def command(self) -> str:
        return f"ensemble x{len(self.stages)}"

    def tags(self) -> dict[str, object]:
        return {
            "stages": len(self.stages),
            "tasks": "x".join(str(s.tasks) for s in self.stages),
        }
