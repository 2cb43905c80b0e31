"""Synapse — SYNthetic Application Profiler and Emulator (reproduction).

A faithful, laptop-runnable reproduction of *"Synapse: Synthetic
Application Profiler and Emulator"* (Merzky, Ha, Turilli, Jha; IPPS 2016,
arXiv:1808.00684).  Basic usage mirrors the paper's API::

    import repro as synapse

    profile = synapse.profile("sleep 1", store=store)
    result  = synapse.emulate("sleep 1", store=store)

and the simulation plane regenerates the paper's cross-machine
experiments::

    from repro.sim import SimBackend
    from repro.apps import GromacsModel

    backend = SimBackend("thinkie")
    prof = synapse.profile(GromacsModel(iterations=100_000), backend=backend)
    res  = synapse.emulate(prof, backend=SimBackend("stampede"))

Prediction & placement
----------------------

The :mod:`repro.predict` subsystem closes the loop the companion paper
("Synapse: Bridging the Gap Towards Predictable Workload Placement",
arXiv:1506.00272) motivates: stored profiles become *demand vectors*,
vectors are costed analytically on any machine model (no emulation run
needed), and task sets are placed across heterogeneous machine sets::

    prediction = synapse.predict("gmx mdrun", "titan", store=store)
    plan, report = synapse.place(
        EnsembleApp(), ["titan", "comet", "supermic"], validate=True
    )

``predict`` evaluates thousands of (workload, machine) candidate pairs
per millisecond via ``repro.predict.Predictor.predict_many``; ``place``
supports greedy earliest-finish-time and min-makespan heuristics plus a
contention-aware refinement pass, and ``validate=True`` replays the plan
through the simulation engine to report predicted-vs-emulated error.
The CLI mirrors both calls as ``repro predict`` and ``repro place``.

See README.md for the architecture, plane by plane (*Performance*,
*Traffic*, *Observability*, *Robustness*), and ``tests/paper/`` — the
paper's experiments E.1–E.6 as tier-1 checks, each table written under
``benchmarks/results/`` — for the paper-versus-measured record.
"""

from repro.core import (
    EmulationPlan,
    EmulationResult,
    Emulator,
    Profile,
    Profiler,
    ProfileStats,
    Sample,
    SynapseConfig,
    SynapseError,
    aggregate,
    emulate,
    error_percent,
    place,
    profile,
    traffic,
    stats,
)
from repro.storage import FileStore, MemoryStore, MongoStore, open_store

# The callable repro.predict package is both the prediction subsystem
# namespace and the predict() API entry point (see its module docstring).
import repro.predict as predict  # noqa: E402,PLC0414 (deliberate rebinding)

__version__ = "0.11.0"

__all__ = [
    "EmulationPlan",
    "EmulationResult",
    "Emulator",
    "FileStore",
    "MemoryStore",
    "MongoStore",
    "Profile",
    "ProfileStats",
    "Profiler",
    "Sample",
    "SynapseConfig",
    "SynapseError",
    "__version__",
    "aggregate",
    "emulate",
    "error_percent",
    "open_store",
    "place",
    "predict",
    "profile",
    "stats",
    "traffic",
]
