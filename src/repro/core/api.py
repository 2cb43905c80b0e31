"""Public API: ``profile`` and ``emulate`` (§4 of the paper).

The original module exposes::

    radical.synapse.profile(command, tags=None)
    radical.synapse.emulate(command, tags=None)

This reproduction keeps those two calls (plus ``stats``) and generalises
the target: a shell command string, a Python callable, or — on the
simulation plane — an application model / workload, with the backend
selecting the plane.

On top of the paper's pair, :func:`predict` and :func:`place` expose the
prediction & placement subsystem (:mod:`repro.predict`): analytical
runtime prediction of stored profiles on machines they never ran on, and
placement planning of task sets across heterogeneous machine sets.

Batches of runs go through the unified run service
(:mod:`repro.runtime`), which sits above the profiler and the emulator:
sim-plane ``profile(repeats=...)`` and plan validation submit run
requests to its persistent-pool runtime, and :func:`campaign` exposes
its declarative sweep layer (apps x machines x seeds x repeats with a
resumable on-store ledger).
:func:`campaign_report` aggregates a finished ledger into the
paper's consistency/error tables.
"""

from __future__ import annotations

from typing import Any

from repro.apps.base import ApplicationModel
from repro.core.backend import ExecutionBackend
from repro.core.config import SynapseConfig
from repro.core.emulator import EmulationResult, Emulator
from repro.core.errors import ProfilingError, WorkloadError
from repro.core.profiler import Profiler
from repro.core.samples import Profile
from repro.core.statistics import ProfileStats, aggregate
from repro.core.tags import normalize_command, normalize_tags
from repro.sim.backend import SimBackend
from repro.sim.workload import SimWorkload
from repro.storage.base import ProfileStore

__all__ = [
    "profile",
    "emulate",
    "stats",
    "predict",
    "place",
    "campaign",
    "campaign_report",
    "traffic",
    "default_backend_for",
]


def default_backend_for(target: Any) -> ExecutionBackend:
    """Pick the natural backend for a profiling target.

    Shell commands and Python callables run on the host plane;
    application models and sim workloads need an explicit
    :class:`~repro.sim.backend.SimBackend` (there is no default machine
    to guess).
    """
    if isinstance(target, (str, list, tuple)) or callable(target):
        from repro.host.backend import HostBackend  # noqa: PLC0415 (lazy)

        return HostBackend()
    raise WorkloadError(
        f"no default backend for {type(target).__name__}; pass "
        "backend=SimBackend(machine) for application models"
    )


def profile(
    target: Any,
    tags: object = None,
    *,
    backend: ExecutionBackend | None = None,
    config: SynapseConfig | None = None,
    store: ProfileStore | None = None,
    command: str | None = None,
    repeats: int = 1,
) -> Profile | list[Profile]:
    """Profile ``target``; returns one profile (or a list for repeats).

    ``target`` is a shell command, Python callable, application model or
    sim workload.  Profiles are written to ``store`` when given.  For
    application models, command and tags default to the model's own
    ``command()`` / ``tags()``.

    ``repeats`` profiles that many independent executions under one
    search key (the paper's consistency statistics, E.1 / E.3).  On a
    :class:`~repro.sim.backend.SimBackend` they are profile requests to
    the shared run service, which may fan them over its worker pool;
    on any other backend they are ``repeats`` profiler runs.
    """
    if backend is None:
        backend = default_backend_for(target)
    if isinstance(target, ApplicationModel):
        if command is None:
            command = target.command()
        if tags is None:
            tags = target.tags()
    elif isinstance(target, SimWorkload):
        if command is None:
            command = target.name
    elif command is None:
        command = normalize_command(target)
    profiler = Profiler(backend, config=config, store=store)
    if repeats == 1:
        return profiler.run(target, tags=tags, command=command)
    if repeats < 1:
        raise ProfilingError("repeats must be >= 1")
    if type(backend) is not SimBackend:
        # A host or custom backend (a SimBackend subclass may override
        # what a request cannot describe) runs its repeats itself.
        return [
            profiler.run(target, tags=tags, command=command)
            for _ in range(repeats)
        ]
    from repro.runtime.service import RunRequest, get_service  # noqa: PLC0415 (lazy)

    # One declarative request per repeat, in the spawn slots this many
    # run() calls would take, so the profiles are theirs bit for bit
    # and later spawns on the backend draw the same seeds either way.
    first_index = backend._spawn_count + 1
    backend._spawn_count += repeats
    results = get_service().run(
        RunRequest(
            kind="profile", target=target, machine=backend.machine,
            config=profiler.config, noisy=backend.noisy, seed=backend.seed,
            index=first_index + offset, tags=tags, command=command,
        )
        for offset in range(repeats)
    )
    profiles = [result.value for result in results]
    if store is not None:
        store.put_many(profiles)
    return profiles


def emulate(
    source: Any,
    tags: object = None,
    *,
    backend: ExecutionBackend | None = None,
    config: SynapseConfig | None = None,
    store: ProfileStore | None = None,
) -> EmulationResult:
    """Emulate a profile, plan, or stored command/tag combination.

    With a string ``source`` the profile is looked up in ``store`` by
    command and tags, exactly like the paper's ``emulate(command, tags)``.
    Without a backend the emulation runs on the host plane.
    """
    emulator = Emulator(backend=backend, config=config, store=store)
    return emulator.run(source, tags=tags)


def stats(
    command: Any,
    tags: object = None,
    *,
    store: ProfileStore,
) -> ProfileStats:
    """Aggregate statistics over all stored profiles of one command/tags."""
    profiles = store.find(normalize_command(command), normalize_tags(tags))
    return aggregate(profiles)


def predict(
    source: Any,
    machines: Any,
    *,
    tags: object = None,
    query: Any = None,
    store: ProfileStore | None = None,
    predictor: Any = None,
):
    """Predict the runtime of a workload on machines it never ran on.

    ``source`` is a demand vector, a :class:`Profile`, a list of
    profiles (aggregated to their mean demand), or a command string
    looked up in ``store`` by command/tags/Mongo-``query`` — the
    placement-paper analogue of ``emulate(command, tags)``.  ``machines``
    is one machine (name or spec) for a single
    :class:`~repro.predict.predictor.Prediction`, or a sequence for a
    ``{machine name: Prediction}`` mapping.
    """
    from repro.predict.models import (  # noqa: PLC0415 (lazy)
        DemandVector,
        demand_vector,
        demand_vector_from_profiles,
        extract,
    )
    from repro.predict.predictor import Predictor  # noqa: PLC0415 (lazy)

    if isinstance(source, DemandVector):
        vector = source
    elif isinstance(source, Profile):
        vector = demand_vector(source)
    elif isinstance(source, (list, tuple)) and source and all(
        isinstance(item, Profile) for item in source
    ):
        vector = demand_vector_from_profiles(source)
    elif isinstance(source, str):
        if store is None:
            raise WorkloadError("predicting a stored command needs a store")
        vector = extract(store, source, tags, query=query)
    else:
        raise WorkloadError(
            f"cannot predict {type(source).__name__}; expected a DemandVector, "
            "Profile, list of Profiles, or stored command string"
        )
    predictor = predictor if predictor is not None else Predictor()
    if isinstance(machines, (str,)) or hasattr(machines, "cpu"):
        return predictor.predict(vector, machines)
    machines = list(machines)
    if not machines:
        raise WorkloadError("cannot predict onto an empty machine set")
    predictions = [predictor.predict(vector, m) for m in machines]
    names = [p.machine for p in predictions]
    if len(set(names)) != len(names):
        raise WorkloadError(
            "machine names must be unique to key a prediction mapping; "
            "rename replace()'d variants before comparing them"
        )
    return dict(zip(names, predictions))


def _resolve_campaign_spec(spec: Any):
    import os  # noqa: PLC0415 (lazy)

    from repro.runtime.campaign import CampaignSpec  # noqa: PLC0415 (lazy)

    if isinstance(spec, (str, os.PathLike)):
        return CampaignSpec.from_json(spec)
    return spec


def campaign(
    spec: Any,
    *,
    store: ProfileStore,
    processes: int | None = None,
    limit: int | None = None,
):
    """Run (or resume) a declarative experiment campaign.

    ``spec`` is a :class:`~repro.runtime.campaign.CampaignSpec`, a
    spec dict, or a path to a spec JSON file.  The sweep (apps x
    machines x seeds x repeats) executes through the shared run service
    and records every cell in ``store``; cells already present are
    skipped, so interrupted campaigns resume where they stopped.
    Several hosts sharing one store split a sweep with
    :func:`repro.runtime.coordinator.elastic_worker`.
    Returns the :class:`~repro.runtime.campaign.CampaignReport`.
    """
    from repro.runtime.campaign import run_campaign  # noqa: PLC0415 (lazy)

    return run_campaign(
        _resolve_campaign_spec(spec), store,
        processes=processes, limit=limit,
    )


def campaign_report(
    spec: Any,
    *,
    store: ProfileStore,
    reference: str | None = None,
):
    """Aggregate a campaign's ledger into the paper-style analysis.

    Per ``app x machine`` group: mean/std/CV of durations over the
    group's cells, relative errors of every counter against the
    ``reference`` machine's means (default: the spec's first machine),
    and the sampling-overhead columns.  Returns the
    :class:`~repro.runtime.analyze.CampaignAnalysis`; render it with
    ``.table()``, ``.to_dict()`` or ``.to_csv()``.
    """
    from repro.runtime.analyze import analyze_campaign  # noqa: PLC0415 (lazy)

    return analyze_campaign(
        _resolve_campaign_spec(spec), store, reference=reference
    )


def traffic(
    process: Any,
    machines: Any,
    *,
    requests: int,
    mix: Any = None,
    discipline: str = "fifo",
    dispatch: str = "eft",
    alloc_cost: float = 0.0,
    engine: bool = True,
    autoscale: Any = None,
    closed_loop: int | None = None,
    think: float = 0.1,
    chunk: int = 8192,
    seed: int = 0,
    keep_records: bool = False,
):
    """Simulate serving traffic through a queue-aware machine fleet.

    ``process`` is an :class:`~repro.traffic.arrivals.ArrivalProcess` or
    a spec string (``"poisson:rate=500"``, ``"mmpp:rates=50/500"``,
    ``"diurnal:rate=200,amplitude=0.8"``, ``"trace:<path>"``); it drives
    an **open-loop** run unless ``closed_loop=N`` switches to a closed
    loop of ``N`` clients with exponential ``think`` time (the arrival
    process is then unused — arrivals come from request completions).
    ``autoscale`` is an :class:`~repro.traffic.sim.AutoscalePolicy` to
    scale the fleet against a p99 SLO in-sim.  Returns the
    :class:`~repro.traffic.sim.TrafficReport` (render with
    ``.table()``/``.to_dict()``).
    """
    from repro.traffic.sim import ClosedLoopSim, TrafficSim  # noqa: PLC0415 (lazy)

    if closed_loop is not None:
        sim = ClosedLoopSim(
            machines,
            mix,
            clients=closed_loop,
            think=think,
            dispatch=dispatch,
            alloc_cost=alloc_cost,
            engine=engine,
            keep_records=keep_records,
            seed=seed,
        )
        return sim.run(requests)
    sim = TrafficSim(
        process,
        machines,
        mix,
        discipline=discipline,
        dispatch=dispatch,
        alloc_cost=alloc_cost,
        engine=engine,
        autoscale=autoscale,
        keep_records=keep_records,
        seed=seed,
    )
    return sim.run(requests, chunk=chunk)


def place(
    source: Any,
    machines: Any,
    *,
    method: str = "eft",
    refine: bool = True,
    validate: bool = False,
    predictor: Any = None,
):
    """Plan the placement of a task set across heterogeneous machines.

    ``source`` is a list of :class:`~repro.predict.models.Task`, an
    :class:`~repro.apps.ensemble.EnsembleApp`, or a
    :class:`~repro.apps.skeleton.SkeletonApp` (decomposed automatically).
    Returns a :class:`~repro.predict.placement.PlacementPlan`; with
    ``validate=True`` returns ``(plan, report)`` where the report replays
    the plan on the simulation plane (E.1/E.2-style accuracy check).
    """
    from repro.predict.models import (  # noqa: PLC0415 (lazy)
        Task,
        tasks_from_ensemble,
        tasks_from_skeleton,
    )
    from repro.predict.placement import plan as plan_tasks  # noqa: PLC0415 (lazy)
    from repro.predict.validate import validate_plan  # noqa: PLC0415 (lazy)

    machines = (
        [machines] if isinstance(machines, str) or hasattr(machines, "cpu")
        else list(machines)
    )
    tasks = source
    if not isinstance(source, (list, tuple)):
        from repro.apps.ensemble import EnsembleApp  # noqa: PLC0415 (lazy)
        from repro.apps.skeleton import SkeletonApp  # noqa: PLC0415 (lazy)

        if isinstance(source, EnsembleApp):
            tasks = tasks_from_ensemble(source)
        elif isinstance(source, SkeletonApp):
            tasks = tasks_from_skeleton(source)
        else:
            raise WorkloadError(
                f"cannot place {type(source).__name__}; expected a task list, "
                "EnsembleApp or SkeletonApp"
            )
    elif not all(isinstance(item, Task) for item in tasks):
        raise WorkloadError("task lists must contain only predict.Task items")
    result = plan_tasks(
        tasks, machines, method=method, refine=refine, predictor=predictor
    )
    if not validate:
        return result
    report = validate_plan(
        result,
        tasks,
        machines=machines,
        calibrated=bool(getattr(predictor, "calibrated", False)),
    )
    return result, report
