"""Request executors: how each :class:`~repro.runtime.service.RunRequest`
kind actually runs.

These functions are the worker-side half of the run service.  They are
deliberately *declarative-in, deterministic-out*: a request plus its
(unpacked) target and machine fully determine the result, including the
noise stream — ``seed_from(machine, workload, seed, index)`` is exactly
the per-spawn-slot derivation :meth:`repro.sim.backend.SimBackend.spawn`
uses, so service execution is bit-identical to the sequential paths it
replaced, regardless of worker count or chunking.

The executors call down into the profiler, the emulator and the sim
engine; nothing below the run service calls back up into it.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterable, Iterator, Mapping
from contextvars import ContextVar
from typing import Any

from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.errors import ConfigError, WorkloadError
from repro.core.plan import BuildSettings, EmulationPlan
from repro.core.profiler import Profiler
from repro.core.samples import Profile
from repro.core.tags import normalize_command, normalize_tags
from repro.faults import inject
from repro.runtime.service import RunRequest
from repro.sim.backend import SimBackend, _noise_for, _resolve_target
from repro.sim.engine import Engine, Layout, block_rows
from repro.sim.machines import resolve_machine
from repro.sim.noise import NoiseModel
from repro.sim.process import SimProcess
from repro.telemetry.spans import span

__all__ = [
    "Emulation", "PlanGroup", "PlanScope", "dispatch", "noise_row", "plan_scope",
]

#: What determines a record given the plan: ``(noisy, seed, index,
#: noise_seed)``.  Rows are keyed by it, not by request identity, because
#: a request object does not outlive its batch.
NoiseRow = tuple[bool, int, int, int | None]


def noise_row(request: RunRequest) -> NoiseRow:
    """The noise identity of an ``engine``/``profile`` request
    (``noise_seed`` only overrides the derivation of ``engine`` ones,
    see :func:`_noise_model`)."""
    return (
        request.noisy, request.seed, request.index,
        request.noise_seed if request.kind == "engine" else None,
    )


class PlanGroup:
    """One (target, machine) pair of a :class:`PlanScope`: the rows
    declared for it that no block has replayed yet, and — once a request
    has built it — the pair's engine plan and the records replayed from
    it that nobody has taken, with the profiles a ``profile`` request
    took of them under its config.

    It keeps ``target`` and ``machine`` alive because the scope finds it
    by their identity.
    """

    __slots__ = ("target", "machine", "pending", "plan", "records", "profiles", "config")

    def __init__(
        self, target: Any, machine: Any, rows: Iterable[NoiseRow] = ()
    ) -> None:
        self.target = target
        self.machine = machine
        #: Declared rows in declaration order; equal rows stay apart.
        self.pending: list[NoiseRow] = list(rows)
        self.plan: Any = None
        #: Row -> the ``ExecutionRecord`` of each request still to ask
        #: for it; never more than one block's worth in all.
        self.records: dict[NoiseRow, list[Any]] = {}
        #: Row -> the ``Profile`` of each of those records, in step with
        #: ``records`` (empty when the block was not profiled), taken
        #: under ``config``.
        self.profiles: dict[NoiseRow, list[Any]] = {}
        self.config: Any = None

    def take(self, row: NoiseRow) -> tuple[Any, Any]:
        """A waiting record of ``row`` and the profile waiting with it;
        ``None`` for what is not there."""
        waiting = self.records.get(row)
        if not waiting:
            return None, None
        record = waiting.pop()
        profiles = self.profiles.get(row)
        profile = profiles.pop() if profiles else None
        if not waiting:
            del self.records[row]
            self.profiles.pop(row, None)
        return record, profile

    def claim(self, row: NoiseRow, limit: int) -> list[NoiseRow]:
        """Take the next block out of the pending rows: up to ``limit``
        of them from ``row`` on, wrapping round to the rows declared
        before it; nothing when ``row`` is not pending."""
        try:
            at = self.pending.index(row)
        except ValueError:
            return []
        order = self.pending[at:] + self.pending[:at]
        self.pending = order[limit:]
        return order[:limit]


class Emulation:
    """A profile or plan emulated under one :class:`BuildSettings`: the
    ``target`` of its pairs in a plan scope, one per machine.

    ``source`` is what the requests name (the scope finds the emulation
    by its identity and the settings), ``plan`` the emulation plan made
    of it.  :meth:`layout` compiles the plan (``workload``) and lays it
    out for the engine (``laid_out``) the first time a pair prepares,
    and hands every later pair the same layout: neither step depends on
    the machine, so an emulation on four machines compiles and lays out
    once and binds four times.  Both go with the emulation when the
    scope lets go of it.  ``pairs`` counts the scope's live pairs of it.
    """

    __slots__ = (
        "source", "plan", "config", "settings", "workload", "laid_out", "pairs",
    )

    def __init__(self, source: Any, plan: EmulationPlan, config: SynapseConfig) -> None:
        self.source, self.plan, self.config = source, plan, config
        self.settings: BuildSettings = plan.build_settings(config)
        self.workload: Any = None
        self.laid_out: Layout | None = None
        self.pairs = 0

    def layout(self, machine: Any) -> Layout:
        if self.laid_out is None:
            self.workload = self.plan.build_packed_workload(self.config, machine)
            self.laid_out = Engine.layout(self.workload)
        return self.laid_out


def _emulation_plan(target: Any, config: SynapseConfig) -> EmulationPlan:
    if isinstance(target, EmulationPlan):
        return target
    if isinstance(target, Profile):
        return EmulationPlan.from_profile(target, config)
    raise WorkloadError(
        f"cannot emulate {type(target).__name__} through the run "
        "service: expected a Profile or EmulationPlan (resolve "
        "stored commands before building the request)"
    )


class PlanScope:
    """The ``(target, machine) -> PlanGroup`` table and whoever opened
    it (see :func:`plan_scope`): one run-service batch, one pooled
    chunk, or one ``run_campaign``/``elastic_worker`` invocation.

    Pairs are found by the *identity* of target and machine.  The owner
    answers for what that takes: the objects are not mutated while the
    scope is open, and the scope dies with the invocation that opened
    it.  What it holds is bounded per live pair — the plan and under a
    block of records — and a pair stops being live when its last
    declared row is taken.

    An ``emulate`` request's pair is (:class:`Emulation`, machine): the
    scope keeps an emulation, and the workload compiled for it, while a
    pair of it is live.  It also resolves each distinct request config
    mapping once.
    """

    def __init__(self) -> None:
        self.groups: dict[tuple[int, int], PlanGroup] = {}
        #: ``id(source) -> {settings: Emulation}``.
        self.emulations: dict[int, dict[BuildSettings, Emulation]] = {}
        self._configs: dict[Any, Any] = {}

    def group(self, target: Any, machine: Any) -> PlanGroup | None:
        return self.groups.get((id(target), id(machine)))

    def declare(
        self, target: Any, machine: Any, rows: Iterable[NoiseRow]
    ) -> None:
        """Say which rows requests for (target, machine) will ask for,
        in the order they will; a pair that is live keeps its rows."""
        key = (id(target), id(machine))
        if key not in self.groups:
            self.groups[key] = PlanGroup(target, machine, rows)
            if isinstance(target, Emulation):
                self._keep(target)
                target.pairs += 1

    def declare_requests(self, requests: Iterable[RunRequest]) -> "PlanScope":
        """Declare the rows ``requests`` will ask for, pair by pair, in
        request order (what the first of a pair to be attempted needs to
        replay their seeds as blocks); returns the scope.

        An ``emulate`` request's emulation is found or made here, and
        kept, so every machine it is emulated on shares one compile.  A
        request whose emulation cannot be made (its config or target
        does not resolve) declares nothing: its attempt meets the same
        error as its own failure.
        """
        pairs: dict[tuple[int, int], tuple[Any, Any, list[NoiseRow]]] = {}
        for request in requests:
            target = request.target
            if request.kind == "emulate":
                try:
                    target = self.emulation(target, self.config(request.config))
                except Exception:  # noqa: BLE001 - the request's own failure
                    continue
                self._keep(target)
            pairs.setdefault(
                (id(target), id(request.machine)), (target, request.machine, [])
            )[2].append(noise_row(request))
        for target, machine, rows in pairs.values():
            self.declare(target, machine, rows)
        return self

    def emulation(self, source: Any, config: SynapseConfig) -> Emulation:
        """The emulation of ``source`` under ``config``'s build settings
        that the scope keeps, else a new one it does not keep (its plan
        made once per source while the scope keeps any)."""
        kept = self.emulations.get(id(source))
        if kept:
            plan = next(iter(kept.values())).plan
            found = kept.get(plan.build_settings(config))
            return found if found is not None else Emulation(source, plan, config)
        return Emulation(source, _emulation_plan(source, config), config)

    def _keep(self, emulation: Emulation) -> None:
        self.emulations.setdefault(id(emulation.source), {}).setdefault(
            emulation.settings, emulation
        )

    def drop(self, group: PlanGroup) -> None:
        """Forget a pair (and an emulation with its last live pair)."""
        if self.groups.pop((id(group.target), id(group.machine)), None) is None:
            return
        emulation = group.target
        if isinstance(emulation, Emulation):
            emulation.pairs -= 1
            kept = self.emulations.get(id(emulation.source), {})
            if not emulation.pairs and kept.get(emulation.settings) is emulation:
                del kept[emulation.settings]
                if not kept:
                    del self.emulations[id(emulation.source)]

    def close(self) -> None:
        self.groups.clear()
        self.emulations.clear()
        self._configs.clear()

    def config(self, config: Any):
        """:func:`_as_config`, once per distinct mapping (by the types
        and values of its items; one with an unhashable value is
        resolved on every call).  A mapping that does not validate
        raises here and caches nothing."""
        if not isinstance(config, Mapping):
            return _as_config(config)
        try:
            key = frozenset((k, type(v), v) for k, v in config.items())
            resolved = self._configs.get(key)
        except TypeError:
            return _as_config(config)
        if resolved is None:
            resolved = self._configs[key] = _as_config(config)
        return resolved

    # A pooled chunk's scope crosses to the worker in the same pickle as
    # the chunk's targets and machines, so the groups' objects are the
    # worker's copies of those: re-key by their identity there.

    def __getstate__(self) -> list[PlanGroup]:
        return list(self.groups.values())

    def __setstate__(self, groups: list[PlanGroup]) -> None:
        self.__init__()
        for group in groups:
            self.groups[id(group.target), id(group.machine)] = group
            if isinstance(group.target, Emulation):
                self._keep(group.target)


_ACTIVE: ContextVar[PlanScope | None] = ContextVar("repro_plan_scope", default=None)


@contextlib.contextmanager
def plan_scope() -> Iterator[PlanScope]:
    """The plan scope requests execute in: the active one if there is
    one, else a new one that is closed on exit.

    ``RunService.run`` executes its batch in it, so a batch on its own
    prepares each (target, machine) once for itself, and the batches
    run inside one ``with plan_scope():`` — a campaign's waves — once
    for all of them.  It travels as a context variable, like spans,
    because services are wrapped and overridden at ``run(requests,
    processes, rethrow)``.
    """
    plans = _ACTIVE.get()
    if plans is not None:
        yield plans
        return
    plans = PlanScope()
    token = _ACTIVE.set(plans)
    try:
        yield plans
    finally:
        _ACTIVE.reset(token)
        plans.close()


def dispatch(
    request: RunRequest, target: Any, machine: Any,
    plans: PlanScope | None = None,
) -> Any:
    """Execute one request; ``target``/``machine`` are passed separately
    because pooled requests ship them in their chunk's tables.

    ``plans`` is the scope the request executes in (see
    :func:`_replayed`): the run service passes it so that requests
    sharing (target, machine) prepare once and replay their seeds in
    blocks.  Without it the request prepares and replays for itself
    alone.
    """
    # Chaos plane: fires in whichever process executes the request — a
    # pool worker for pooled requests (so ``crash`` rules emulate real
    # worker death), the parent otherwise.
    inject("worker.execute", key=request.key)
    if request.kind == "engine":
        return _execute_engine(request, target, machine, plans)
    if request.kind == "profile":
        return _execute_profile(request, target, machine, plans)
    if request.kind == "emulate":
        return _execute_emulate(request, target, machine, plans)
    raise WorkloadError(f"cannot execute run kind {request.kind!r}")


def _reduced(request: RunRequest, outcome: Any) -> Any:
    return request.reduce(outcome) if request.reduce is not None else outcome


def _as_config(config: Any) -> SynapseConfig:
    if config is None:
        return SynapseConfig()
    if isinstance(config, SynapseConfig):
        return config
    if isinstance(config, Mapping):
        return SynapseConfig(**dict(config))
    raise ConfigError(
        f"request config must be a SynapseConfig or mapping, not "
        f"{type(config).__name__}"
    )


def _sim_backend(request: RunRequest, machine: Any):
    """Fresh sim backend reproducing the request's spawn-slot identity."""
    return SimBackend(
        machine,
        noisy=request.noisy,
        seed=request.seed,
        spawn_offset=request.index - 1,
    )


def _noise_model(row: NoiseRow, spec: Any, workload: Any):
    """The noise model of one row: the spawn-slot derivation of
    :func:`repro.sim.backend._noise_for`, which ``noise_seed`` overrides
    for ``engine`` requests (a profile is a spawn on a rebuilt backend,
    and has always drawn its slot's noise)."""
    noisy, seed, index, noise_seed = row
    if noisy and noise_seed is not None:
        return NoiseModel(
            seed=noise_seed,
            duration_sigma=spec.noise_sigma,
            counter_sigma=spec.noise_sigma / 3.0,
        )
    return _noise_for(spec, workload, noisy, seed, index)


def _replayed(
    request: RunRequest, target: Any, machine: Any, plans: PlanScope | None
) -> tuple[Any, Any, PlanGroup, list[tuple[NoiseRow, Any]]]:
    """The request's ``ExecutionRecord``; with it the profile that
    waited beside it (or ``None``), the pair's group, and the rows and
    records this call replayed and left waiting in the group.

    A request whose record is waiting in its pair's group takes it.
    Otherwise it replays one block itself: the first of a pair to get
    here resolves the machine, builds the workload (for an emulation,
    the layout all its machines share) and prepares the plan, and every
    one replays the next
    :func:`~repro.sim.engine.block_rows` declared rows from its own on
    (:meth:`PlanGroup.claim`) with
    :meth:`~repro.sim.engine.Engine.replay_many`, keeps its own record
    and leaves the others waiting.  A request whose row is not pending —
    its pair was never declared, or it took its record and is being
    retried — replays alone.  A new block replaces what the one before
    left (rows nobody came for, and their profiles), so under a block
    of records wait per pair, and the pair is dropped from the scope
    with its plan when its last declared row is taken.

    All of it runs inside the request's attempt: a failure is that
    request's failure, is retried under its policy, and stores nothing.
    A failed *build* leaves the group as it was, so the next attempt
    builds again.  A failed *block* is not tried twice: the pair's
    pending rows are forgotten, so the next attempt and every other
    request of the pair replay alone (sharing the plan the first of
    them prepares), and one request's trouble cannot fail the others.
    """
    group = plans.group(target, machine) if plans is not None else None
    if group is None:
        group = PlanGroup(target, machine)  # shares nothing
    row = noise_row(request)
    record, profile = group.take(row)
    declared = record is not None
    left: list[tuple[NoiseRow, Any]] = []
    if record is None:
        plan = group.plan
        engine = Engine(resolve_machine(machine) if plan is None else plan.machine)
        spec = engine.machine
        if plan is None:
            plan = engine.prepare(
                target.layout(spec) if isinstance(target, Emulation)
                else _resolve_target(target, spec)
            )
        rows = group.claim(row, block_rows(plan))
        declared = bool(rows)
        rows = rows or [row]
        try:
            record, *others = engine.replay_many(
                plan, [_noise_model(each, spec, plan) for each in rows]
            )
        except Exception:
            group.pending = []
            raise
        group.plan = plan
        if declared:
            group.records, group.profiles = {}, {}
            left = list(zip(rows[1:], others))
            for each, other in left:
                group.records.setdefault(each, []).append(other)
    if declared and plans is not None and not (group.pending or group.records):
        plans.drop(group)  # its last declared row was taken
    return record, profile, group, left


def _execute_engine(
    request: RunRequest, target: Any, machine: Any, plans: PlanScope | None = None
) -> Any:
    """Raw engine execution; yields an ``ExecutionRecord`` (or its
    ``reduce``-tion), noise-seeded exactly like ``SimBackend.spawn``.

    A ``reduce`` that reads only ``duration`` / ``phase_bounds`` /
    ``io_events`` / ``metadata`` never pays for the counter and level
    folds.  A record returned as it is — no ``reduce``, or one that hands
    it back — leaves folded: an unfolded one holds the plan and the noise
    of its replay block, and those go with the batch."""
    record = _replayed(request, target, machine, plans)[0]
    outcome = _reduced(request, record)
    if outcome is record:
        record.block  # noqa: B018 (read for the fold)
    return outcome


def _execute_profile(
    request: RunRequest, target: Any, machine: Any, plans: PlanScope | None = None
) -> Any:
    """A full profiling run; yields a ``Profile`` (or its reduction).

    On the sim plane the request that replays a block also profiles it
    — its own record and the ones it leaves waiting, in one
    :meth:`~repro.core.profiler.Profiler.run_many` under its config —
    and leaves the profiles waiting beside the records.  A request
    whose record waits with a profile taken under the config it asks
    for takes both, and the profile is its own from there on: its tags
    and command go on it, and the time and the pid of the process it
    would have started now.  Anything else — another config, a retry,
    watchers that cannot watch rows — profiles its record alone, and a
    block pass that fails is the failure of the request that made it:
    the records stay, the rest of the pair profile alone.
    """
    config = (
        plans.config(request.config) if plans is not None
        else _as_config(request.config)
    )
    record, profile, group, left = _replayed(request, target, machine, plans)
    if profile is not None and group.config is not config:
        profile = None  # taken under another config
    block = None
    if profile is None and left:
        # Every row on the clock of a backend of its own: at zero.
        block = Profiler(SimBackend(record.machine), config=config)
    if profile is None and not (block is not None and block.watches_rows):
        # The backend spawns the already replayed history: the run is
        # this request's spawn slot either way.
        profile = Profiler(_sim_backend(request, record.machine), config=config).run(
            record, tags=request.tags, command=request.command
        )
        return _reduced(request, profile)
    with span("profile.run", backend="sim") as sp:
        if profile is None:
            profile, *others = block.run_many([record, *(each for _, each in left)])
            group.config = config
            for (row, _), other in zip(left, others):
                group.profiles.setdefault(row, []).append(other)
        else:
            profile.stamp(SimProcess.next_pid())
        profile.tags = normalize_tags(request.tags)
        if request.command is not None:
            profile.command = normalize_command(request.command)
        sp.set(
            command=profile.command, samples=profile.n_samples,
            exit_code=profile.exit_code,
        )
    return _reduced(request, profile)


def _execute_emulate(
    request: RunRequest, target: Any, machine: Any, plans: PlanScope | None = None
) -> Any:
    """Replay a profile or plan; yields an ``EmulationResult`` (or its
    reduction).

    The request's :class:`Emulation` — the scope's, or one of its own —
    is the target of its pair, so the pair replays through
    :func:`_replayed` like any other: the first of the emulation's pairs
    to prepare compiles and lays out the plan, each pair binds that
    layout to its machine and replays its seeds as blocks.  The record
    reaches the result through the emulator's ``replay(plan, record)``,
    which spawns it on a backend in the request's spawn slot.
    """
    config = (
        plans.config(request.config) if plans is not None
        else _as_config(request.config)
    )
    emulation = (
        plans.emulation(target, config) if plans is not None
        else Emulation(target, _emulation_plan(target, config), config)
    )
    record = _replayed(request, emulation, machine, plans)[0]
    emulator = Emulator(backend=_sim_backend(request, record.machine), config=config)
    return _reduced(request, emulator.replay(emulation.plan, record))
