"""Request executors: how each :class:`~repro.runtime.service.RunRequest`
kind actually runs.

These functions are the worker-side half of the run service.  They are
deliberately *declarative-in, deterministic-out*: a request plus its
(unpacked) target and machine fully determine the result, including the
noise stream — ``seed_from(machine, workload, seed, index)`` is exactly
the per-spawn-slot derivation :meth:`repro.sim.backend.SimBackend.spawn`
uses, so service execution is bit-identical to the sequential paths it
replaced, regardless of worker count or chunking.

All imports of the execution planes happen lazily inside the executors:
the planes themselves (profiler, emulator, sim backend) import the run
service, and this module must stay importable from either side.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Iterable, Iterator, Mapping
from contextvars import ContextVar
from typing import Any

from repro.core.errors import ConfigError, WorkloadError
from repro.faults import inject
from repro.runtime.service import RunRequest
from repro.telemetry.spans import span

__all__ = ["PlanGroup", "PlanScope", "dispatch", "noise_row", "plan_scope"]

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

    It also resolves each distinct request config mapping once.
    """

    def __init__(self) -> None:
        self.groups: dict[tuple[int, int], PlanGroup] = {}
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

    def drop(self, group: PlanGroup) -> None:
        self.groups.pop((id(group.target), id(group.machine)), None)

    def close(self) -> None:
        self.groups.clear()
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
    if request.kind == "call":
        return request.runner()  # type: ignore[misc]
    if request.kind == "engine":
        return _execute_engine(request, target, machine, plans)
    if request.kind == "profile":
        return _execute_profile(request, target, machine, plans)
    if request.kind == "emulate":
        return _execute_emulate(request, target, machine)
    raise WorkloadError(f"cannot execute run kind {request.kind!r}")


def _reduced(request: RunRequest, outcome: Any) -> Any:
    return request.reduce(outcome) if request.reduce is not None else outcome


def _as_config(config: Any):
    from repro.core.config import SynapseConfig  # noqa: PLC0415 (cycle)

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
    from repro.sim.backend import SimBackend  # noqa: PLC0415 (cycle)

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
    from repro.sim.backend import _noise_for  # noqa: PLC0415 (cycle)
    from repro.sim.noise import NoiseModel  # noqa: PLC0415 (cycle)

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
    here resolves the machine, builds the workload and prepares the
    plan, and every one replays the next
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
    from repro.sim.backend import _resolve_target  # noqa: PLC0415 (cycle)
    from repro.sim.engine import Engine, block_rows  # noqa: PLC0415 (cycle)
    from repro.sim.machines import resolve_machine  # noqa: PLC0415 (cycle)

    group = plans.group(target, machine) if plans is not None else None
    if group is None:
        group = PlanGroup(target, machine)  # shares nothing
    row = noise_row(request)
    record, profile = group.take(row)
    declared = record is not None
    left: list[tuple[NoiseRow, Any]] = []
    if record is None:
        plan = group.plan
        if plan is None:
            spec = resolve_machine(machine)
            plan = Engine(spec).prepare(_resolve_target(target, spec))
        spec = plan.machine
        rows = group.claim(row, block_rows(plan))
        declared = bool(rows)
        rows = rows or [row]
        try:
            record, *others = Engine(spec).replay_many(
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
    if machine is None:
        raise WorkloadError("engine requests need a machine model")
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
    from repro.core.profiler import Profiler  # noqa: PLC0415 (cycle)
    from repro.core.tags import normalize_command, normalize_tags  # noqa: PLC0415 (cycle)
    from repro.sim.backend import SimBackend  # noqa: PLC0415 (cycle)
    from repro.sim.process import SimProcess  # noqa: PLC0415 (cycle)

    config = (
        plans.config(request.config) if plans is not None
        else _as_config(request.config)
    )
    backend = request.backend
    if backend is None and machine is None:
        from repro.core.api import default_backend_for  # noqa: PLC0415 (cycle)

        backend = default_backend_for(target)
    if backend is not None:
        profile = Profiler(backend, config=config).run(
            target, tags=request.tags, command=request.command
        )
        return _reduced(request, profile)

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
            profile.created = time.time()
            profile.info["process"]["pid"] = SimProcess.next_pid()
        profile.tags = normalize_tags(request.tags)
        if request.command is not None:
            profile.command = normalize_command(request.command)
        sp.set(
            command=profile.command, samples=profile.n_samples,
            exit_code=int(profile.info.get("exit_code", 0)),
        )
    return _reduced(request, profile)


def _execute_emulate(request: RunRequest, target: Any, machine: Any) -> Any:
    """Replay a profile or plan; yields an ``EmulationResult``."""
    from repro.core.emulator import Emulator  # noqa: PLC0415 (cycle)
    from repro.core.plan import EmulationPlan  # noqa: PLC0415 (cycle)
    from repro.core.samples import Profile  # noqa: PLC0415 (cycle)

    config = _as_config(request.config)
    backend = request.backend
    if backend is None and machine is not None:
        backend = _sim_backend(request, machine)
    if isinstance(target, EmulationPlan):
        plan = target
    elif isinstance(target, Profile):
        plan = EmulationPlan.from_profile(target, config)
    else:
        raise WorkloadError(
            f"cannot emulate {type(target).__name__} through the run "
            "service: expected a Profile or EmulationPlan (resolve "
            "stored commands before building the request)"
        )
    emulator = Emulator(backend=backend, config=config)
    return _reduced(request, emulator.replay(plan))
