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

__all__ = ["dispatch"]


def dispatch(
    request: RunRequest, target: Any, machine: Any,
    plans: dict[tuple[int, int], Any] | None = None,
) -> Any:
    """Execute one request; ``target``/``machine`` are passed separately
    because pooled requests ship them via the batch's shared payload.

    ``plans`` is the batch's plan table (see :func:`_prepared`): the run
    service passes one per batch so requests sharing (target, machine)
    prepare once and replay per seed.  Without it the request prepares
    for itself alone.
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


def _noise_model(request: RunRequest, spec: Any, workload: Any):
    from repro.sim.noise import NoiseModel, seed_from  # noqa: PLC0415 (cycle)

    if not request.noisy:
        return NoiseModel.silent()
    seed = request.noise_seed
    if seed is None:
        seed = seed_from(spec.name, workload.name, request.seed, request.index)
    return NoiseModel(
        seed=seed,
        duration_sigma=spec.noise_sigma,
        counter_sigma=spec.noise_sigma / 3.0,
    )


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


def _prepared(target: Any, machine: Any, plans: dict | None):
    """The engine plan of ``(target, machine)``: machine resolved,
    workload built and prepared by the first request of the batch that
    needs it, replayed by every later one.

    The table is keyed by identity, like the batch's shared target and
    machine tables (which keep both objects alive as long as it lives),
    and dies with the batch — so there is nothing to invalidate, and an
    app mutated between batches is seen.  This runs inside the request's
    attempt: a failure here is that request's failure, is retried under
    its policy, and stores nothing — the next request builds again.
    """
    from repro.sim.engine import Engine  # noqa: PLC0415 (cycle)
    from repro.sim.machines import resolve_machine  # noqa: PLC0415 (cycle)

    key = (id(target), id(machine))
    plan = plans.get(key) if plans is not None else None
    if plan is None:
        spec = resolve_machine(machine)
        plan = Engine(spec).prepare(_resolve_workload(target, spec))
        if plans is not None:
            plans[key] = plan
    return plan


def _execute_engine(
    request: RunRequest, target: Any, machine: Any, plans: dict | None = None
) -> Any:
    """Raw engine execution; yields an ``ExecutionRecord`` (or its
    ``reduce``-tion), noise-seeded exactly like ``SimBackend.spawn``."""
    from repro.sim.engine import Engine  # noqa: PLC0415 (cycle)

    if machine is None:
        raise WorkloadError("engine requests need a machine model")
    plan = _prepared(target, machine, plans)
    spec = plan.machine
    record = Engine(spec, _noise_model(request, spec, plan)).run(plan)
    return _reduced(request, record)


def _execute_profile(
    request: RunRequest, target: Any, machine: Any, plans: dict | None = None
) -> Any:
    """A full profiling run; yields a ``Profile`` (or its reduction)."""
    from repro.core.profiler import Profiler  # noqa: PLC0415 (cycle)

    backend = request.backend
    if backend is None:
        if machine is not None:
            target = _prepared(target, machine, plans)
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
