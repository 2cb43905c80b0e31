"""A sleep-dominated application: the paper's semantics limitation.

§4.5 ("Application Semantics"): "the POSIX system call sleep(3) will
consume a very small number of flops (or cycles), but will show
significant contributions to Tx.  ...  that is considered out of scope
for Synapse".  This model makes the limitation testable: profiling it
yields a profile whose cycle total reconstructs only a tiny fraction of
Tx, and a default (compute-kernel) emulation finishes far too early —
unless the user selects the ``sleep`` kernel, the mitigation the paper
describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.base import ApplicationModel
from repro.sim.demands import ComputeDemand, SleepDemand
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["SleeperApp"]


@dataclass
class SleeperApp(ApplicationModel):
    """Sleeps for ``sleep_seconds``, computing almost nothing."""

    sleep_seconds: float = 10.0
    #: Housekeeping instructions (signal handling, loop bookkeeping).
    instructions: float = 1e7
    name: str = field(default="sleeper", repr=False)

    def __post_init__(self) -> None:
        if self.sleep_seconds < 0:
            raise ValueError("sleep_seconds must be non-negative")

    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        workload = SimWorkload(name=self.command(), metadata={"app": "sleeper"})
        stream = workload.phase("main").stream("main")
        stream.add(ComputeDemand(instructions=self.instructions / 2, workload_class="app.startup"))
        stream.add(SleepDemand(self.sleep_seconds))
        stream.add(ComputeDemand(instructions=self.instructions / 2, workload_class="app.startup"))
        return workload

    def command(self) -> str:
        return f"sleep {self.sleep_seconds:g}"

    def tags(self) -> dict[str, object]:
        return {"seconds": self.sleep_seconds}
