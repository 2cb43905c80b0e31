"""Workload placement across heterogeneous machine sets.

The planner answers the placement paper's core question: *given demand
vectors for a set of coupled tasks and resource models for a set of
machines, where should each task run?*  Scheduling uses the same
level-synchronised semantics as the simulation engine and the DAG
middleware it models (§7): the dependency graph's topological levels are
global barriers, tasks of one level run concurrently on their assigned
machines, and the plan's makespan is the sum over levels of the slowest
machine's *wave* time.

Wave times are contention-aware, mirroring the engine's phase model
(the contention stage of :meth:`repro.sim.engine.Engine.prepare`):
oversubscribing a machine's cores slows all compute on it
proportionally, and concurrent I/O streams share the filesystem
bandwidth.  Because predictor and
engine agree demand-by-demand, a plan's predicted makespan replays
exactly on the sim plane (see :mod:`repro.predict.validate`).

Two assignment heuristics are provided:

* ``eft`` — greedy earliest-finish-time: tasks (largest first) go to the
  machine that finishes them earliest under a per-core-slot model
  (CPU capacity counts, intra-level I/O contention does not);
* ``makespan`` — min-makespan: tasks (largest first) go to the machine
  whose contended wave time grows least, directly minimising the level's
  barrier time.

Both can be followed by a contention-aware refinement pass
(:func:`refine_plan`-style local search) that moves tasks off each
level's critical machine while doing so shrinks the wave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.errors import WorkloadError
from repro.predict.models import Task
from repro.predict.predictor import Predictor
from repro.sim.machines import resolve_machine
from repro.sim.resource import MachineSpec
from repro.util.tables import Table

__all__ = [
    "Assignment",
    "PlacementPlan",
    "plan",
    "plan_greedy_eft",
    "plan_min_makespan",
    "levelize",
    "wave_time",
]

_METHODS = ("eft", "makespan")


@dataclass(frozen=True)
class Assignment:
    """One task's placement: machine, barrier level, and time window."""

    task: str
    machine: str
    level: int
    start: float
    finish: float

    @property
    def seconds(self) -> float:
        """Contended runtime of the task within its level."""
        return self.finish - self.start


@dataclass
class PlacementPlan:
    """A complete placement decision for one task set."""

    method: str
    assignments: list[Assignment]
    makespan: float
    machines: tuple[str, ...]
    #: Per-level ``(start, end)`` barrier windows.
    level_spans: list[tuple[float, float]] = field(default_factory=list)
    refined: bool = False

    def machine_of(self, task: str) -> str:
        """The machine one task was placed on (raises for unknown tasks)."""
        for assignment in self.assignments:
            if assignment.task == task:
                return assignment.machine
        raise KeyError(f"task {task!r} not in plan")

    def tasks_on(self, machine: str) -> list[Assignment]:
        """All assignments placed on one machine, in start order."""
        picked = [a for a in self.assignments if a.machine == machine]
        picked.sort(key=lambda a: (a.start, a.task))
        return picked

    @property
    def n_levels(self) -> int:
        """Number of barrier levels in the plan."""
        return len(self.level_spans)

    def load(self) -> dict[str, float]:
        """Total contended busy seconds per machine."""
        out = dict.fromkeys(self.machines, 0.0)
        for assignment in self.assignments:
            out[assignment.machine] += assignment.seconds
        return out

    def table(self) -> Table:
        """Render the plan as an ASCII table (CLI output)."""
        table = Table(
            ["task", "machine", "level", "start [s]", "finish [s]"],
            title=(
                f"placement plan ({self.method}"
                f"{'+refine' if self.refined else ''}): "
                f"makespan {self.makespan:.3f} s"
            ),
        )
        for a in sorted(self.assignments, key=lambda a: (a.level, a.machine, a.task)):
            table.add_row([a.task, a.machine, a.level, a.start, a.finish])
        return table


# -- dependency levelling -----------------------------------------------------


def levelize(tasks: Sequence[Task]) -> list[list[Task]]:
    """Group tasks into topological levels (barrier-synchronised waves).

    A task's level is one past its deepest dependency.  Unknown
    dependency names and cycles raise :class:`WorkloadError`.
    """
    if not tasks:
        raise WorkloadError("cannot place an empty task set")
    by_name = {task.name: task for task in tasks}
    if len(by_name) != len(tasks):
        raise WorkloadError("task names must be unique")
    # Kahn's algorithm (iterative, so arbitrarily deep chains work).
    children: dict[str, list[str]] = {name: [] for name in by_name}
    pending: dict[str, int] = {}
    for task in tasks:
        deps = set(task.depends_on)
        for dep in deps:
            if dep not in by_name:
                raise WorkloadError(f"unknown dependency {dep!r}")
            children[dep].append(task.name)
        pending[task.name] = len(deps)
    levels: dict[str, int] = {}
    ready = [task.name for task in tasks if pending[task.name] == 0]
    for name in ready:
        levels[name] = 0
    while ready:
        name = ready.pop()
        for child in children[name]:
            levels[child] = max(levels.get(child, 0), levels[name] + 1)
            pending[child] -= 1
            if pending[child] == 0:
                ready.append(child)
    if len(levels) != len(tasks):
        stuck = sorted(name for name, n in pending.items() if n > 0)
        raise WorkloadError(f"dependency cycle involving tasks {stuck}")
    grouped: list[list[Task]] = [[] for _ in range(max(levels.values()) + 1)]
    for task in tasks:
        grouped[levels[task.name]].append(task)
    return grouped


# -- contended wave model -----------------------------------------------------


def _task_times(
    tasks: Sequence[Task], machine: MachineSpec, predictor: Predictor
) -> dict[str, float]:
    """Contended per-task runtimes of one concurrent wave on one machine.

    Mirrors the engine's phase contention: compute slows by the
    core-oversubscription factor, I/O by the number of concurrent streams
    hitting the (default) filesystem.
    """
    if not tasks:
        return {}
    cores = machine.cpu.cores
    cpu_workers = sum(
        min(task.demand.threads, cores)
        for task in tasks
        if task.demand.instructions > 0
    )
    f_cpu = max(1.0, cpu_workers / cores)
    n_io = sum(
        1
        for task in tasks
        if task.demand.io_read_bytes > 0 or task.demand.io_write_bytes > 0
    )
    f_io = max(1.0, float(n_io))
    out: dict[str, float] = {}
    for task in tasks:
        p = predictor.predict(task.demand, machine)
        out[task.name] = (
            p.compute_seconds * f_cpu
            + p.io_seconds * f_io
            + p.memory_seconds
            + p.network_seconds
            + p.sleep_seconds
        )
    return out


def wave_time(
    tasks: Sequence[Task],
    machine: MachineSpec | str,
    predictor: Predictor,
) -> float:
    """Barrier-to-barrier duration of one concurrent wave on one machine.

    This is the contended-wave model the planner optimises (0 for an
    empty wave); exposed publicly so external search strategies (e.g.
    exhaustive baselines) can score candidate assignments consistently.
    """
    times = _task_times(tasks, resolve_machine(machine), predictor)
    return max(times.values()) if times else 0.0



# -- assignment heuristics ----------------------------------------------------


def _order_largest_first(
    tasks: Sequence[Task], machines: Sequence[MachineSpec], predictor: Predictor
) -> list[Task]:
    """LPT order: descending best-case (uncontended) runtime."""

    def best_case(task: Task) -> float:
        return min(predictor.predict(task.demand, m).seconds for m in machines)

    return sorted(tasks, key=best_case, reverse=True)


def _assign_level_eft(
    tasks: Sequence[Task], machines: Sequence[MachineSpec], predictor: Predictor
) -> dict[str, list[Task]]:
    """Greedy EFT: place each task on the machine where it finishes
    earliest, modelling each machine as ``cores`` parallel slots.

    A task occupies ``min(threads, cores)`` slots starting when they all
    free up, so CPU oversubscription delays later tasks.  I/O contention
    within the level is ignored here (the refinement pass and the final
    contended schedule account for it)."""
    waves: dict[str, list[Task]] = {m.name: [] for m in machines}
    slots: dict[str, list[float]] = {m.name: [0.0] * m.cpu.cores for m in machines}
    for task in _order_largest_first(tasks, machines, predictor):
        best: tuple[float, MachineSpec, int] | None = None
        for machine in machines:
            free = slots[machine.name]
            workers = min(task.demand.threads, machine.cpu.cores)
            free.sort()
            start = free[workers - 1]
            finish = start + predictor.predict(task.demand, machine).seconds
            if best is None or finish < best[0]:
                best = (finish, machine, workers)
        assert best is not None
        finish, machine, workers = best
        waves[machine.name].append(task)
        free = slots[machine.name]
        for index in range(workers):
            free[index] = finish
    return waves


def _assign_level_makespan(
    tasks: Sequence[Task], machines: Sequence[MachineSpec], predictor: Predictor
) -> dict[str, list[Task]]:
    """Min-makespan: place each task where the *contended* wave grows least."""
    by_name = {m.name: m for m in machines}
    waves: dict[str, list[Task]] = {m.name: [] for m in machines}
    for task in _order_largest_first(tasks, machines, predictor):
        best_name, best_wave = None, float("inf")
        for name, machine in by_name.items():
            candidate = wave_time(waves[name] + [task], machine, predictor)
            if candidate < best_wave:
                best_name, best_wave = name, candidate
        assert best_name is not None
        waves[best_name].append(task)
    return waves


def _refine_level(
    waves: dict[str, list[Task]],
    machines: Mapping[str, MachineSpec],
    predictor: Predictor,
    max_moves: int = 64,
) -> bool:
    """Contention-aware local search: move tasks off the critical machine.

    Repeatedly finds the machine defining the level's wave time and tries
    relocating each of its tasks; the best strictly-improving move is
    applied.  Returns whether any move was made.
    """
    improved = False
    for _ in range(max_moves):
        times = {
            name: wave_time(tasks, machines[name], predictor)
            for name, tasks in waves.items()
        }
        critical = max(times, key=lambda name: times[name])
        current = times[critical]
        if current <= 0.0:
            break
        best: tuple[float, str, Task] | None = None
        for task in waves[critical]:
            remaining = [t for t in waves[critical] if t.name != task.name]
            shrunk = wave_time(remaining, machines[critical], predictor)
            for name, machine in machines.items():
                if name == critical:
                    continue
                grown = wave_time(waves[name] + [task], machine, predictor)
                candidate = max(
                    shrunk,
                    grown,
                    *(times[other] for other in waves if other not in (critical, name)),
                )
                if candidate < current and (best is None or candidate < best[0]):
                    best = (candidate, name, task)
        if best is None:
            break
        _, target, task = best
        waves[critical] = [t for t in waves[critical] if t.name != task.name]
        waves[target].append(task)
        improved = True
    return improved


# -- public planning API ------------------------------------------------------


def plan(
    tasks: Iterable[Task],
    machines: Sequence[MachineSpec | str],
    method: str = "eft",
    refine: bool = True,
    predictor: Predictor | None = None,
) -> PlacementPlan:
    """Place ``tasks`` across ``machines`` and schedule the result.

    ``method`` selects the per-level assignment heuristic (``"eft"`` or
    ``"makespan"``); ``refine`` runs the contention-aware local search
    afterwards.  The returned plan's times use the contended wave model
    regardless of heuristic, so makespans are comparable across methods.
    """
    if method not in _METHODS:
        raise WorkloadError(f"unknown placement method {method!r}; use {_METHODS}")
    specs = [resolve_machine(m) for m in machines]
    if not specs:
        raise WorkloadError("cannot place onto an empty machine set")
    if len({m.name for m in specs}) != len(specs):
        raise WorkloadError("machine names must be unique")
    predictor = predictor if predictor is not None else Predictor()
    by_name = {m.name: m for m in specs}
    assign = _assign_level_eft if method == "eft" else _assign_level_makespan

    levels = levelize(list(tasks))
    assignments: list[Assignment] = []
    level_spans: list[tuple[float, float]] = []
    refined_any = False
    t = 0.0
    for level_index, level_tasks in enumerate(levels):
        waves = assign(level_tasks, specs, predictor)
        if refine:
            refined_any |= _refine_level(waves, by_name, predictor)
        level_end = t
        for name, wave in waves.items():
            times = _task_times(wave, by_name[name], predictor)
            for task in wave:
                finish = t + times[task.name]
                assignments.append(
                    Assignment(
                        task=task.name,
                        machine=name,
                        level=level_index,
                        start=t,
                        finish=finish,
                    )
                )
                level_end = max(level_end, finish)
        level_spans.append((t, level_end))
        t = level_end
    return PlacementPlan(
        method=method,
        assignments=assignments,
        makespan=t,
        machines=tuple(m.name for m in specs),
        level_spans=level_spans,
        refined=refine and refined_any,
    )


def plan_greedy_eft(
    tasks: Iterable[Task],
    machines: Sequence[MachineSpec | str],
    refine: bool = True,
    predictor: Predictor | None = None,
) -> PlacementPlan:
    """Greedy earliest-finish-time placement (see :func:`plan`)."""
    return plan(tasks, machines, method="eft", refine=refine, predictor=predictor)


def plan_min_makespan(
    tasks: Iterable[Task],
    machines: Sequence[MachineSpec | str],
    refine: bool = True,
    predictor: Predictor | None = None,
) -> PlacementPlan:
    """Min-makespan placement (see :func:`plan`)."""
    return plan(tasks, machines, method="makespan", refine=refine, predictor=predictor)
