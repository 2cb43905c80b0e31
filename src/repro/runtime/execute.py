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

from collections.abc import Mapping
from typing import Any

from repro.core.errors import ConfigError, WorkloadError
from repro.faults import inject
from repro.runtime.service import RunRequest

__all__ = ["PlanGroup", "dispatch"]


class PlanGroup:
    """One entry of a batch's plan table: the ``engine``/``profile``
    requests that share a (target, machine), and — once the first of
    them to be attempted has built them — their engine plan and the
    records replayed from it that nobody has taken yet.

    ``block`` says whether the group's seeds may still be replayed as
    one block; it is spent by the first attempt that gets as far as
    replaying, whatever comes of it (see :func:`_replayed`).
    """

    __slots__ = ("requests", "plan", "records", "block")

    def __init__(self, requests: Any = ()) -> None:
        self.requests: list[RunRequest] = list(requests)
        self.plan: Any = None
        #: ``id(request)`` -> its ``ExecutionRecord``, until taken.
        self.records: dict[int, Any] = {}
        self.block = True


def dispatch(
    request: RunRequest, target: Any, machine: Any,
    group: PlanGroup | None = None,
) -> Any:
    """Execute one request; ``target``/``machine`` are passed separately
    because pooled requests ship them via the batch's shared payload.

    ``group`` is the request's entry in the batch's plan table (see
    :func:`_replayed`): the run service passes it so that requests
    sharing (target, machine) prepare once and replay their seeds as one
    block.  Without it the request prepares and replays for itself
    alone.
    """
    # Chaos plane: fires in whichever process executes the request — a
    # pool worker for pooled requests (so ``crash`` rules emulate real
    # worker death), the parent otherwise.
    inject("worker.execute", key=request.key)
    if request.kind == "call":
        return request.runner()  # type: ignore[misc]
    if request.kind == "engine":
        return _execute_engine(request, target, machine, group)
    if request.kind == "profile":
        return _execute_profile(request, target, machine, group)
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


def _noise_model(request: RunRequest, spec: Any, workload: Any):
    """The request's noise model: the spawn-slot derivation of
    :func:`repro.sim.backend._noise_for`, which ``noise_seed`` overrides
    for ``engine`` requests (a profile is a spawn on a rebuilt backend,
    and has always drawn its slot's noise)."""
    from repro.sim.backend import _noise_for  # noqa: PLC0415 (cycle)
    from repro.sim.noise import NoiseModel  # noqa: PLC0415 (cycle)

    if request.noisy and request.kind == "engine" and request.noise_seed is not None:
        return NoiseModel(
            seed=request.noise_seed,
            duration_sigma=spec.noise_sigma,
            counter_sigma=spec.noise_sigma / 3.0,
        )
    return _noise_for(spec, workload, request.noisy, request.seed, request.index)


def _resolve_workload(target: Any, spec: Any):
    from repro.sim.packed import PackedWorkload  # noqa: PLC0415 (cycle)
    from repro.sim.workload import SimWorkload  # noqa: PLC0415 (cycle)

    if isinstance(target, (SimWorkload, PackedWorkload)):
        return target
    # Prefer the columnar builder — same demands, no per-demand objects.
    builder = getattr(target, "build_packed", None)
    if callable(builder):
        return builder(spec)
    builder = getattr(target, "build_workload", None)
    if callable(builder):
        return builder(spec)
    raise WorkloadError(
        f"cannot execute {target!r} on the sim plane: expected a "
        "SimWorkload, a PackedWorkload, or an object with "
        "build_workload(machine)"
    )


def _replayed(
    request: RunRequest, target: Any, machine: Any, group: PlanGroup | None
):
    """The request's ``ExecutionRecord``.

    The first request of a group to be attempted resolves the machine,
    builds the workload, prepares the plan *and* replays the seeds of
    every request of the group as one block
    (:meth:`~repro.sim.engine.Engine.replay_many`); the others take
    their record from the group.  A request that finds the plan but no
    record replays alone: it took its record and is being retried, or
    the group's rows do not fit one block
    (:func:`~repro.sim.engine.block_rows`).  Records wait in the group
    until taken, so a group holds at most a block's worth of them; a
    plan too big for that is still shared, and its records are made
    one at a time.

    All of it runs inside the request's attempt: a failure is that
    request's failure, is retried under its policy, and stores nothing.
    A failed *build* leaves the group as it was, so the next attempt
    builds again.  A failed *block* is not tried twice: the next
    attempt prepares again and replays alone, and so does every other
    request of the group, so one request's trouble cannot fail the
    others.

    The group is an entry of the batch's plan table, which is keyed by
    the slots of the batch's shared target and machine tables and dies
    with the batch — so there is nothing to invalidate, and an app
    mutated between batches is seen.
    """
    from repro.sim.engine import Engine, block_rows  # noqa: PLC0415 (cycle)
    from repro.sim.machines import resolve_machine  # noqa: PLC0415 (cycle)

    if group is None:
        group = PlanGroup([request])
    record = group.records.pop(id(request), None)
    if record is not None:
        return record
    plan = group.plan
    if plan is not None:
        spec = plan.machine
        return Engine(spec, _noise_model(request, spec, plan)).run(plan)
    spec = resolve_machine(machine)
    engine = Engine(spec)
    plan = engine.prepare(_resolve_workload(target, spec))
    rows = [request]
    if group.block and len(group.requests) <= block_rows(plan):
        rows = group.requests
    group.block = False
    records = dict(zip(
        map(id, rows),
        engine.replay_many(plan, [_noise_model(row, spec, plan) for row in rows]),
    ))
    record = records.pop(id(request))
    group.plan, group.records = plan, records
    return record


def _execute_engine(
    request: RunRequest, target: Any, machine: Any, group: PlanGroup | None = None
) -> Any:
    """Raw engine execution; yields an ``ExecutionRecord`` (or its
    ``reduce``-tion), noise-seeded exactly like ``SimBackend.spawn``."""
    if machine is None:
        raise WorkloadError("engine requests need a machine model")
    return _reduced(request, _replayed(request, target, machine, group))


def _execute_profile(
    request: RunRequest, target: Any, machine: Any, group: PlanGroup | None = None
) -> Any:
    """A full profiling run; yields a ``Profile`` (or its reduction)."""
    from repro.core.profiler import Profiler  # noqa: PLC0415 (cycle)

    backend = request.backend
    if backend is None:
        if machine is not None:
            # The backend spawns the already replayed history: the run
            # is this request's spawn slot either way.
            target = _replayed(request, target, machine, group)
            backend = _sim_backend(request, target.machine)
        else:
            from repro.core.api import default_backend_for  # noqa: PLC0415 (cycle)

            backend = default_backend_for(target)
    profiler = Profiler(backend, config=_as_config(request.config))
    profile = profiler.run(target, tags=request.tags, command=request.command)
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
