"""The simulation execution backend.

``SimBackend`` runs :class:`~repro.sim.workload.SimWorkload`s (or
application models that can build one) on a named machine model, under a
shared virtual clock.  Spawning is eager — the engine computes the whole
counter history — but the returned handle reveals it only as virtual time
passes, preserving black-box profiling semantics.

:meth:`SimBackend.spawn_many` is the batch entry point: it executes a
whole list of targets, optionally fanned out over the persistent worker
pool of the process-wide :class:`~repro.runtime.service.RunService`.
Parallel spawning is deterministic — each slot's noise seed derives from
its spawn index, so the records are identical to sequential
:meth:`spawn` calls.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.backend import ExecutionBackend, ProcessHandle
from repro.core.errors import WorkloadError
from repro.sim.clock import VirtualClock
from repro.sim.engine import Engine, ExecutionRecord, Prepared
from repro.sim.noise import NoiseModel, seed_from
from repro.sim.packed import PackedWorkload
from repro.sim.process import SimProcess
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

__all__ = ["SimBackend"]


def _noise_for(
    machine: MachineSpec,
    workload: SimWorkload | PackedWorkload | Prepared,
    noisy: bool,
    seed: int,
    index: int,
) -> NoiseModel:
    """The deterministic noise model of spawn number ``index``.

    This derivation is the noise contract of the whole sim plane: the
    run service's engine executor
    (:mod:`repro.runtime.execute`) reproduces it bit-exactly from a
    request's ``(seed, index)``, which is what makes service execution
    interchangeable with sequential spawning.
    """
    if not noisy:
        return NoiseModel.silent()
    return NoiseModel(
        seed=seed_from(machine.name, workload.name, seed, index),
        duration_sigma=machine.noise_sigma,
        counter_sigma=machine.noise_sigma / 3.0,
    )


def _resolve_target(target: Any, machine: MachineSpec) -> SimWorkload | PackedWorkload:
    """The workload ``target`` runs on ``machine``: a workload as it is,
    else what its ``build_packed`` or ``build_workload`` builds.  The
    one target resolution of the sim plane — the run service's engine
    executor (:mod:`repro.runtime.execute`) resolves through it too."""
    if isinstance(target, (SimWorkload, PackedWorkload)):
        return target
    for method in ("build_packed", "build_workload"):
        builder = getattr(target, method, None)
        if callable(builder):
            return builder(machine)
    raise WorkloadError(
        f"cannot execute {target!r} on the sim plane: expected a "
        "SimWorkload, a PackedWorkload, or an object with "
        "build_workload(machine)"
    )


class SimBackend(ExecutionBackend):
    """Execution backend over one simulated machine.

    Parameters
    ----------
    machine:
        A :class:`MachineSpec` or the name of a registered machine
        (see :mod:`repro.sim.machines`).
    noisy:
        When True (default) demand durations and counters receive the
        machine's deterministic measurement noise; False gives exact,
        repeat-identical runs (useful in tests).
    seed:
        Extra entropy mixed into every spawn's noise seed, so different
        experiment repeats draw independent noise.
    spawn_offset:
        Number of spawn slots to skip: the first spawn draws the noise
        of slot ``spawn_offset + 1``.  The run service uses this to
        rebuild, inside a worker, a backend whose next spawn is
        bit-identical to slot *k* of a sequential run.
    """

    name = "sim"

    def __init__(
        self,
        machine: MachineSpec | str,
        noisy: bool = True,
        seed: int = 0,
        spawn_offset: int = 0,
    ) -> None:
        if isinstance(machine, str):
            from repro.sim.machines import get_machine  # noqa: PLC0415 (cycle)

            machine = get_machine(machine)
        self.machine = machine
        self.noisy = noisy
        self.seed = seed
        self.clock = VirtualClock()
        self._spawn_count = spawn_offset

    # -- ExecutionBackend ---------------------------------------------------

    def now(self) -> float:
        return self.clock.now()

    def sleep(self, seconds: float) -> None:
        self.clock.advance(seconds)

    def machine_info(self) -> dict[str, Any]:
        return self.machine.info()

    def spawn(self, target: Any, **kwargs: Any) -> ProcessHandle:
        """Run a workload (or application model) as a virtual process.

        ``target`` may be a :class:`SimWorkload`, a
        :class:`PackedWorkload`, any object with a ``build_packed`` /
        ``build_workload(machine)`` method (the application models in
        :mod:`repro.apps`), a :class:`~repro.sim.engine.Prepared` plan
        for this machine, or an :class:`ExecutionRecord` — a history
        already replayed under this spawn slot's noise, which the run
        service hands over when it replayed a batch's seeds of one
        plan as one block.  Every form takes one spawn slot.
        """
        self._spawn_count += 1
        if isinstance(target, ExecutionRecord):
            record = target
        else:
            workload = (
                target if isinstance(target, Prepared)
                else _resolve_target(target, self.machine)
            )
            noise = _noise_for(
                self.machine, workload, self.noisy, self.seed, self._spawn_count
            )
            record = Engine(self.machine, noise).run(workload)
        return SimProcess(record, self.clock, start_time=self.clock.now())

    def spawn_many(
        self,
        targets: Iterable[Any],
        processes: int | None = 1,
    ) -> list[SimProcess]:
        """Run a batch of targets; returns one handle per target.

        All processes start at the current virtual time (they are
        concurrent from the profiler's point of view).  With
        ``processes=1`` (default) the engine runs serially in-process;
        ``processes=None`` fans the engine runs out over all cores, and
        any other value over that many worker processes (the shared
        :class:`~repro.runtime.service.RunService` pool).  Records are
        bit-identical either way: spawn slot *i* always draws its noise
        from the same per-index seed the sequential :meth:`spawn` path
        would use.  Targets that are all :class:`ExecutionRecord`s are
        not run again.
        """
        targets = list(targets)
        if targets and all(isinstance(each, ExecutionRecord) for each in targets):
            # Histories replayed already (see :meth:`spawn`): a slot each.
            self._spawn_count += len(targets)
            records = targets
        else:
            records = self.run_many(targets, processes=processes)
        start = self.clock.now()
        return [
            SimProcess(record, self.clock, start_time=start) for record in records
        ]

    def run_many(
        self,
        targets: Sequence[Any],
        processes: int | None = 1,
        reduce: Callable[[ExecutionRecord], Any] | None = None,
        service: Any = None,
    ) -> list[Any]:
        """Batch-execute targets; returns raw engine output per target.

        The batch is submitted as engine requests to the run service
        (``service`` overrides the process-wide default), whose
        **persistent** pool fans them out — repeated ``run_many`` calls
        reuse the same workers instead of paying pool startup per
        batch.  Without ``reduce`` this yields one
        :class:`ExecutionRecord` per target.  ``reduce`` — a picklable,
        module-level callable ``record -> value`` — runs *inside* the
        worker processes, so parallel experiment fan-out that only
        needs summaries (totals, durations, phase bounds) never
        serialises full counter histories across the pool.  Determinism
        matches :meth:`spawn_many`: distinct workload objects still
        ship once per batch however many requests reference them.
        """
        from repro.runtime.service import RunRequest, get_service  # noqa: PLC0415 (cycle)

        workloads = [_resolve_target(target, self.machine) for target in targets]
        first_index = self._spawn_count + 1
        self._spawn_count += len(workloads)
        requests = [
            RunRequest(
                kind="engine",
                target=workload,
                machine=self.machine,
                noisy=self.noisy,
                seed=self.seed,
                index=first_index + offset,
                reduce=reduce,
            )
            for offset, workload in enumerate(workloads)
        ]
        svc = service if service is not None else get_service()
        return [result.value for result in svc.run(requests, processes=processes)]
