"""The Synapse emulator: replay profiles as resource consumption (§4.2).

The emulator is "driven by a global loop which feeds sequences of profile
samples to the atoms".  Semantics per sample (Fig 2):

* all resource consumptions of a sample start immediately and
  concurrently (one thread per atom on the host plane; one stream per
  atom on the simulation plane);
* the sample ends when its last consumption completes (barrier);
* samples replay strictly in recorded order, which is how implicit
  cross-resource dependencies survive (§4.4).

``Emulator.run`` accepts a :class:`Profile` directly, or a command/tag
pair resolved through the profile store — the ``emulate(command, tags)``
call of the paper's public API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro.atoms.base import AtomBase
from repro.atoms.registry import get_atom
from repro.core.backend import ExecutionBackend
from repro.core.config import SynapseConfig
from repro.core.errors import ConfigError, EmulationError
from repro.core.plan import EmulationPlan
from repro.core.samples import Profile
from repro.storage.base import ProfileStore

__all__ = ["Emulator", "EmulationResult"]


@dataclass
class EmulationResult:
    """Outcome of one emulation run."""

    #: Execution time of the emulation (the paper's emulated Tx).
    tx: float
    #: The replayed plan.
    plan: EmulationPlan
    #: Name of the backend the emulation ran on (``host`` / ``sim``).
    backend: str
    #: Machine description of the emulating resource.
    machine: dict[str, Any] = field(default_factory=dict)
    #: Wall duration of each replayed sample (host plane only).
    sample_durations: list[float] = field(default_factory=list)
    #: The spawned virtual process (simulation plane only); lets callers
    #: re-profile the emulation — the paper's E.2 sanity check.  Its
    #: record's counters (``handle.record.totals()``) fold on first read.
    handle: Any = None
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def startup_delay(self) -> float:
        """Time spent before the first sample replay began."""
        return float(self.info.get("startup_delay", 0.0))


class Emulator:
    """Replays emulation plans on one backend with one configuration."""

    def __init__(
        self,
        backend: ExecutionBackend | None = None,
        config: SynapseConfig | None = None,
        store: ProfileStore | None = None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else SynapseConfig()
        self.store = store

    # -- public API ----------------------------------------------------------

    def run(
        self, source: Profile | EmulationPlan | str, tags: object = None
    ) -> EmulationResult:
        """Emulate a profile, a prepared plan, or a stored command."""
        return self.replay(self._resolve_plan(source, tags))

    def replay(self, plan: EmulationPlan, record: Any = None) -> EmulationResult:
        """Execute one resolved plan on this emulator's backend.

        ``record`` (sim plane only) is the plan's history already
        replayed for the backend's next spawn slot — what the run
        service's emulate executor hands over after replaying a batch's
        seeds of one compiled plan as one block; the backend spawns it
        as it is instead of building and running the plan.
        """
        if self.backend is not None and getattr(self.backend, "name", "") == "sim":
            return self._run_sim(plan, record)
        if record is not None:
            raise EmulationError("only a sim backend spawns a replayed record")
        return self._run_host(plan)

    def _resolve_plan(self, source: Profile | EmulationPlan | str, tags: object) -> EmulationPlan:
        if isinstance(source, EmulationPlan):
            return source
        if isinstance(source, Profile):
            return EmulationPlan.from_profile(source, self.config)
        if isinstance(source, str):
            if self.store is None:
                raise EmulationError(
                    "emulating by command requires a profile store"
                )
            profile = self.store.get(source, tags)
            return EmulationPlan.from_profile(profile, self.config)
        raise EmulationError(
            f"cannot emulate {type(source).__name__}: expected Profile, "
            "EmulationPlan or command string"
        )

    # -- simulation plane --------------------------------------------------------

    def _run_sim(self, plan: EmulationPlan, record: Any) -> EmulationResult:
        assert self.backend is not None
        target = record
        if target is None:
            machine = getattr(self.backend, "machine", None)
            target = plan.build_packed_workload(self.config, machine)
        handle = self.backend.spawn(target)
        handle.wait()
        record = handle.record
        startup = record.phase_bounds[0][1] if record.phase_bounds else 0.0
        return EmulationResult(
            tx=record.duration,
            plan=plan,
            backend="sim",
            machine=self.backend.machine_info(),
            handle=handle,
            info={"startup_delay": startup, "kernel": self.config.compute_kernel},
        )

    # -- host plane -----------------------------------------------------------------

    def _run_host(self, plan: EmulationPlan) -> EmulationResult:
        import threading

        for knob in ("cpu_load", "disk_load", "mem_load"):
            if getattr(self.config, knob):
                raise ConfigError(
                    f"{knob}: the host plane applies no artificial load; "
                    "emulate on a sim backend, or set it to 0"
                )
        config = plan.effective_config(self.config)
        atoms: list[AtomBase] = [get_atom(name)(config) for name in config.atoms]
        t_begin = time.perf_counter()
        for atom in atoms:
            atom.setup()
        startup_delay = time.perf_counter() - t_begin

        durations: list[float] = []
        errors: list[BaseException] = []

        def run_atom(atom: AtomBase, work) -> None:
            try:
                atom.execute(work)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        try:
            for plan_sample in plan.samples:
                work = plan_sample.work
                workers = [
                    threading.Thread(
                        target=run_atom,
                        args=(atom, work),
                        name=f"atom-{atom.name}-{plan_sample.index}",
                    )
                    for atom in atoms
                    if atom.wants(work)
                ]
                t_sample = time.perf_counter()
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join()
                durations.append(time.perf_counter() - t_sample)
                if errors:
                    raise EmulationError(
                        f"atom failed during sample {plan_sample.index}: {errors[0]!r}"
                    ) from errors[0]
        finally:
            for atom in atoms:
                atom.teardown()

        tx = time.perf_counter() - t_begin
        machine_info = (
            self.backend.machine_info() if self.backend is not None else {}
        )
        return EmulationResult(
            tx=tx,
            plan=plan,
            backend="host",
            machine=machine_info,
            sample_durations=durations,
            info={
                "startup_delay": startup_delay,
                "kernel": config.compute_kernel,
            },
        )
