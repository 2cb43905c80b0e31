"""Application model protocol for the simulation plane.

An *application model* is a parameterised generator of resource demands:
the simulation plane's stand-in for a real executable.  The profiler
treats it as a black box — it only ever sees the counters the engine
produces — so the models only need to reproduce the resource-consumption
*trace shape* of the application they replace; a Gromacs model whose
counters grow as the paper reports is as good a profiling subject as
the binary.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.core.errors import WorkloadError
from repro.sim.packed import PackedWorkload, pack_workload
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["ApplicationModel"]


class ApplicationModel(ABC):
    """Base class of all virtual applications."""

    #: Short executable-like name; used as the profile command index.
    name: str = "app"

    @abstractmethod
    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        """Emit the demand workload this application runs on ``machine``.

        Machine-dependence captures compile-time effects: the *same*
        science problem may execute a different number of instructions on
        different resources (the paper's main source of emulation
        uncertainty, §7).
        """

    def build_packed(self, machine: MachineSpec) -> PackedWorkload:
        """Columnar form of :meth:`build_workload` (same demands), which
        the engine executes bit-identically.

        A demand the model's parameters make invalid raises
        :class:`WorkloadError`, not the demand's ``ValueError``: the
        failure is the request's own, and a retry policy must not
        re-attempt it.
        """
        try:
            workload = self.build_workload(machine)
        except ValueError as exc:
            raise WorkloadError(str(exc)) from exc
        return pack_workload(workload)

    def command(self) -> str:
        """The command string under which profiles of this app are indexed."""
        return self.name

    def tags(self) -> dict[str, object]:
        """Tags distinguishing this parameterisation (e.g. iteration count)."""
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag_text = ",".join(f"{k}={v}" for k, v in self.tags().items())
        return f"{type(self).__name__}({tag_text})"
