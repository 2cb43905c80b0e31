"""The simulation execution backend.

``SimBackend`` runs :class:`~repro.sim.workload.SimWorkload`s (or
application models that can build one) on a named machine model, under a
shared virtual clock.  Spawning is eager — the engine computes the whole
counter history — but the returned handle reveals it only as virtual time
passes, preserving black-box profiling semantics.

:meth:`SimBackend.spawn_many` starts a batch of targets together, one
spawn slot each: each slot's noise seed derives from its spawn index, so
the records are identical to sequential :meth:`spawn` calls.  The
backend runs everything in-process; the run service above it fans
engine runs over a worker pool.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

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
    """The deterministic noise model of spawn number ``index``
    (:func:`_noise_for_many` of one row)."""
    return _noise_for_many(machine, workload, [(noisy, seed, index, None)])[0]


def _noise_for_many(
    machine: MachineSpec,
    workload: SimWorkload | PackedWorkload | Prepared,
    rows: Sequence[tuple[bool, int, int, int | None]],
) -> list[NoiseModel]:
    """The noise model of each ``(noisy, seed, index, noise_seed)`` row:
    silent unless ``noisy``, else seeded from spawn slot ``index`` of
    ``seed`` on ``machine`` — or ``noise_seed`` where that is not
    ``None`` — with the machine's ``noise_sigma`` on durations and a
    third of it on counters, checked once for all rows.

    This derivation is the noise contract of the whole sim plane: the
    run service (:mod:`repro.runtime.execute`) draws a block's noise
    through it from its requests' ``(seed, index)``, which is what makes
    service execution interchangeable with sequential spawning.
    """
    seeds = [
        seed_from(machine.name, workload.name, seed, index) if noise_seed is None
        else noise_seed
        for noisy, seed, index, noise_seed in rows if noisy
    ]
    sigma = machine.noise_sigma
    models = iter(NoiseModel.many(seeds, sigma, sigma / 3.0) if seeds else ())
    return [next(models) if row[0] else NoiseModel.silent() for row in rows]


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
        of slot ``spawn_offset + 1``, so a fresh backend's next spawn
        is bit-identical to slot *k* of a sequential run.
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
        return SimProcess(self._record(target), self.clock, start_time=self.clock.now())

    def spawn_many(self, targets: Iterable[Any]) -> list[SimProcess]:
        """Run a batch of targets; returns one handle per target.

        All processes start at the current virtual time (they are
        concurrent from the profiler's point of view), and each takes
        one spawn slot, so the records equal those of sequential
        :meth:`spawn` calls.  Pooled fan-out of engine runs is the run
        service's (``RunService.run`` with ``engine`` requests).
        """
        records = [self._record(target) for target in targets]
        start = self.clock.now()
        return [
            SimProcess(record, self.clock, start_time=start) for record in records
        ]

    def _record(self, target: Any) -> ExecutionRecord:
        """The history of ``target`` in the next spawn slot."""
        self._spawn_count += 1
        if isinstance(target, ExecutionRecord):
            return target
        workload = (
            target if isinstance(target, Prepared)
            else _resolve_target(target, self.machine)
        )
        noise = _noise_for(
            self.machine, workload, self.noisy, self.seed, self._spawn_count
        )
        return Engine(self.machine, noise).run(workload)
