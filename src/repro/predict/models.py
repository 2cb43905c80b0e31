"""Demand vectors: the workload abstraction of the prediction subsystem.

The placement paper (Merzky & Jha, arXiv:1506.00272) predicts execution
characteristics on resources an application never ran on by reducing its
profile to a small *demand vector* — total compute, memory, I/O and
network consumption — and mapping that vector onto resource models.  This
module performs the reduction:

* :func:`demand_vector` — one stored :class:`~repro.core.samples.Profile`
  to one :class:`DemandVector` (Table 1 totals become vector components);
* :func:`demand_vector_from_profiles` — many repeats of one command/tag
  combination, aggregated with :func:`repro.core.statistics.aggregate`
  so the vector carries the *mean* demand (the paper's E.1 statistics);
* :func:`extract` — the store-facing entry: command/tags/Mongo-query
  lookup through :meth:`~repro.storage.base.ProfileStore.find`.

A :class:`Task` is a named demand vector with dependencies — the unit the
placement planner schedules.  :func:`tasks_from_ensemble` and
:func:`tasks_from_skeleton` decompose the existing application models
into task graphs without running them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence

from repro.core.errors import ProfileNotFoundError, WorkloadError, number, whole_number
from repro.core.samples import Profile
from repro.core.statistics import aggregate
from repro.sim.demands import (
    ComputeDemand,
    Demand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.storage.base import ProfileStore

__all__ = [
    "DemandVector",
    "Task",
    "demand_vector",
    "demand_vector_from_profiles",
    "extract",
    "tasks_from_ensemble",
    "tasks_from_skeleton",
]


@dataclass(frozen=True)
class DemandVector:
    """Total resource demand of one workload, machine-independently.

    Components mirror the engine's demand primitives so a vector can be
    both *predicted* analytically (:mod:`repro.predict.predictor`) and
    *replayed* exactly on the simulation plane (:meth:`to_demands` +
    :class:`~repro.sim.engine.Engine`); the closed loop of
    :mod:`repro.predict.validate` depends on this equivalence.
    """

    instructions: float = 0.0
    flops: float = 0.0
    io_read_bytes: float = 0.0
    io_write_bytes: float = 0.0
    mem_alloc_bytes: float = 0.0
    mem_free_bytes: float = 0.0
    net_bytes: float = 0.0
    sleep_seconds: float = 0.0
    workload_class: str = "app.generic"
    threads: int = 1
    paradigm: str = "serial"
    io_block_size: int = 1 << 20
    net_block_size: int = 64 << 10

    def __post_init__(self) -> None:
        for name in (
            "instructions",
            "flops",
            "io_read_bytes",
            "io_write_bytes",
            "mem_alloc_bytes",
            "mem_free_bytes",
            "net_bytes",
            "sleep_seconds",
        ):
            number(name, getattr(self, name), 0)
        whole_number("threads", self.threads, 1)
        whole_number("io_block_size", self.io_block_size, 1)
        whole_number("net_block_size", self.net_block_size, 1)

    @property
    def empty(self) -> bool:
        """Whether the vector describes no resource consumption at all."""
        return not (
            self.instructions
            or self.io_read_bytes
            or self.io_write_bytes
            or self.mem_alloc_bytes
            or self.mem_free_bytes
            or self.net_bytes
            or self.sleep_seconds
        )

    def scaled(self, factor: float) -> "DemandVector":
        """Copy with all consumption components multiplied by ``factor``."""
        number("scale factor", factor, 0)
        return replace(
            self,
            instructions=self.instructions * factor,
            flops=self.flops * factor,
            io_read_bytes=self.io_read_bytes * factor,
            io_write_bytes=self.io_write_bytes * factor,
            mem_alloc_bytes=self.mem_alloc_bytes * factor,
            mem_free_bytes=self.mem_free_bytes * factor,
            net_bytes=self.net_bytes * factor,
            sleep_seconds=self.sleep_seconds * factor,
        )

    def to_demands(
        self,
        filesystem: str | None = None,
        calibrated_for: "MachineSpec | None" = None,  # noqa: F821
    ) -> list[Demand]:
        """Engine demands that consume exactly this vector (serially).

        ``filesystem`` names the target mount of the I/O portion;
        ``None`` resolves to the executing machine's default mount.
        ``calibrated_for`` emits the compute portion as a *calibrated*
        demand for that machine (target cycles = instructions / IPC), so
        the engine charges the kernel's E.3 cycle bias exactly as
        ``Predictor(calibrated=True)`` predicts it.
        """
        demands: list[Demand] = []
        if self.instructions > 0:
            flops_per_instruction = min(1.0, self.flops / self.instructions)
            calibrated_cycles = (
                self.instructions
                / calibrated_for.cpu.spec(self.workload_class).ipc
                if calibrated_for is not None
                else None
            )
            demands.append(
                ComputeDemand(
                    instructions=self.instructions,
                    workload_class=self.workload_class,
                    flops_per_instruction=flops_per_instruction,
                    threads=self.threads,
                    paradigm=self.paradigm,
                    calibrated_cycles=calibrated_cycles,
                )
            )
        if self.mem_alloc_bytes > 0 or self.mem_free_bytes > 0:
            demands.append(
                MemoryDemand(
                    allocate=int(self.mem_alloc_bytes),
                    free=int(self.mem_free_bytes),
                )
            )
        if self.io_read_bytes > 0 or self.io_write_bytes > 0:
            demands.append(
                IODemand(
                    bytes_read=int(self.io_read_bytes),
                    bytes_written=int(self.io_write_bytes),
                    block_size=self.io_block_size,
                    filesystem=filesystem if filesystem else "default",
                )
            )
        if self.net_bytes > 0:
            demands.append(
                NetworkDemand(
                    bytes_sent=int(self.net_bytes),
                    block_size=self.net_block_size,
                )
            )
        if self.sleep_seconds > 0:
            demands.append(SleepDemand(seconds=self.sleep_seconds))
        return demands


@dataclass(frozen=True)
class Task:
    """A named, schedulable unit of work with optional dependencies."""

    name: str
    demand: DemandVector
    depends_on: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")


# -- profile reduction --------------------------------------------------------

#: Profile total -> vector component (message volume counts both ways, as
#: the placement paper folds send+receive into one communication demand).
_TOTAL_FIELDS = {
    "cpu.instructions": "instructions",
    "cpu.flops": "flops",
    "io.bytes_read": "io_read_bytes",
    "io.bytes_written": "io_write_bytes",
    "mem.allocated": "mem_alloc_bytes",
    "mem.freed": "mem_free_bytes",
}
_NET_FIELDS = ("net.bytes_read", "net.bytes_written")


def _vector_from_totals(
    totals: Mapping[str, float], **overrides: Any
) -> DemandVector:
    kwargs: dict[str, Any] = {}
    for metric, attr in _TOTAL_FIELDS.items():
        value = float(totals.get(metric, 0.0))
        if value > 0:
            kwargs[attr] = value
    net = sum(float(totals.get(name, 0.0)) for name in _NET_FIELDS)
    if net > 0:
        kwargs["net_bytes"] = net
    kwargs.update(overrides)
    return DemandVector(**kwargs)


def demand_vector(profile: Profile, **overrides: Any) -> DemandVector:
    """Reduce one stored profile to its demand vector.

    Keyword overrides set vector attributes the totals cannot carry
    (``workload_class``, ``threads``, ``paradigm``, block sizes).
    """
    return _vector_from_totals(profile.totals(), **overrides)


def demand_vector_from_profiles(
    profiles: Iterable[Profile], **overrides: Any
) -> DemandVector:
    """Mean demand vector over repeated profiles of one command/tag key.

    Aggregation uses :func:`repro.core.statistics.aggregate`, so the
    vector components are the per-metric means the paper reports with
    error bars (E.1/E.3).
    """
    stats = aggregate(profiles)
    means = {name: stat.mean for name, stat in stats.metrics.items()}
    return _vector_from_totals(means, **overrides)


def extract(
    store: ProfileStore,
    command: object,
    tags: object = None,
    query: Mapping[str, Any] | None = None,
    **overrides: Any,
) -> DemandVector:
    """Demand vector for all stored profiles matching a search key.

    ``query`` is a Mongo-style filter (see :mod:`repro.storage.query`),
    e.g. restricting to profiles taken on one machine::

        extract(store, "gmx mdrun", query={"machine.name": "thinkie"})
    """
    profiles = store.find(command, tags, query=query)
    if not profiles:
        raise ProfileNotFoundError(
            f"no stored profiles for command={command!r} tags={tags!r}"
        )
    return demand_vector_from_profiles(profiles, **overrides)


# -- application decomposition ------------------------------------------------


def tasks_from_ensemble(app: "EnsembleApp") -> list[Task]:  # noqa: F821
    """Decompose an ensemble app into one task per stage instance.

    Stage barriers become dependencies: every task of stage *n+1* depends
    on all tasks of stage *n*, exactly mirroring how
    :meth:`EnsembleApp.build_workload` maps stages onto engine phases.
    """
    from repro.apps.ensemble import EnsembleApp  # noqa: PLC0415 (cycle)

    if not isinstance(app, EnsembleApp):
        raise WorkloadError(f"expected an EnsembleApp, got {type(app).__name__}")
    tasks: list[Task] = []
    previous: tuple[str, ...] = ()
    for index, stage in enumerate(app.stages):
        names = tuple(f"stage{index}-task{i}" for i in range(stage.tasks))
        vector = DemandVector(
            instructions=stage.instructions,
            flops=stage.instructions * 0.3,
            io_write_bytes=float(stage.bytes_written),
            io_block_size=256 << 10,
            workload_class=stage.workload_class,
        )
        tasks.extend(
            Task(name=name, demand=vector, depends_on=previous) for name in names
        )
        previous = names
    return tasks


def tasks_from_skeleton(
    app: "SkeletonApp",  # noqa: F821
    machine: "MachineSpec | str" = "localhost",  # noqa: F821
) -> list[Task]:
    """Decompose a skeleton DAG into one task per component node.

    Component demand vectors come from building each component's workload
    on a *reference machine* (default ``localhost``) and summing its
    demands; edges become task dependencies.  The reference machine only
    matters for machine-dependent models (§7's compile-time effects).
    """
    from repro.apps.skeleton import SkeletonApp  # noqa: PLC0415 (cycle)
    from repro.sim.machines import resolve_machine  # noqa: PLC0415 (cycle)

    if not isinstance(app, SkeletonApp):
        raise WorkloadError(f"expected a SkeletonApp, got {type(app).__name__}")
    machine = resolve_machine(machine)
    tasks: list[Task] = []
    for node in app.graph.nodes:
        component = app.component(node)
        workload = component.build_workload(machine)
        demands = [
            demand
            for phase in workload.phases
            for stream in phase.streams
            for demand in stream.demands
        ]
        tasks.append(
            Task(
                name=str(node),
                demand=_vector_from_demands(demands),
                depends_on=tuple(sorted(str(p) for p in app.graph.predecessors(node))),
            )
        )
    return tasks


def _vector_from_demands(demands: Sequence[Demand]) -> DemandVector:
    """Sum raw engine demands into one vector (dominant compute class)."""
    kwargs: dict[str, Any] = dict.fromkeys(
        (
            "instructions",
            "flops",
            "io_read_bytes",
            "io_write_bytes",
            "mem_alloc_bytes",
            "mem_free_bytes",
            "net_bytes",
            "sleep_seconds",
        ),
        0.0,
    )
    dominant: tuple[float, ComputeDemand] | None = None
    io_blocks: list[int] = []
    for demand in demands:
        if isinstance(demand, ComputeDemand):
            kwargs["instructions"] += demand.instructions
            kwargs["flops"] += demand.instructions * demand.flops_per_instruction
            if dominant is None or demand.instructions > dominant[0]:
                dominant = (demand.instructions, demand)
        elif isinstance(demand, IODemand):
            kwargs["io_read_bytes"] += float(demand.bytes_read)
            kwargs["io_write_bytes"] += float(demand.bytes_written)
            io_blocks.append(demand.block_size)
        elif isinstance(demand, MemoryDemand):
            kwargs["mem_alloc_bytes"] += float(demand.allocate)
            kwargs["mem_free_bytes"] += float(demand.free)
        elif isinstance(demand, NetworkDemand):
            kwargs["net_bytes"] += float(demand.bytes_sent + demand.bytes_received)
        elif isinstance(demand, SleepDemand):
            kwargs["sleep_seconds"] += demand.seconds
    if dominant is not None:
        kwargs["workload_class"] = dominant[1].workload_class
        kwargs["threads"] = dominant[1].threads
        kwargs["paradigm"] = dominant[1].paradigm
    if io_blocks:
        kwargs["io_block_size"] = min(io_blocks)
    return DemandVector(**kwargs)
