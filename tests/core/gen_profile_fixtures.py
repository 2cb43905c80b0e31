"""Generate the golden profiles the sim-plane profiler is pinned to.

Run as a script to (re)create ``tests/core/fixtures/golden_profiles.json``::

    PYTHONPATH=src python tests/core/gen_profile_fixtures.py

The fixture holds one sha256 per profile of
:func:`repro.runtime.comparable_artifact` (the whole stored document
minus *when* and *by which process* it was taken) for every
configuration in :data:`CONFIGS` × every application in :data:`APPS` ×
every ``(seed, spawn slot)`` in :data:`ROWS`, plus the special cases of
:func:`special_cases`.  It was generated with one ``Profiler.run`` per
profile **before** the grid path went block-wide (PR 21), so it is the
refactoring contract of that change: ``test_profile_goldens.py``
reproduces it through ``Profiler.run``, ``Profiler.run_many`` and a
run-service batch.  Regenerate only when what a profile *says* changes
on purpose — never to paper over an accidental difference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

from repro.apps import GromacsModel, SleeperApp, SyntheticApp
from repro.core.config import DEFAULT_WATCHERS, SynapseConfig
from repro.core.profiler import Profiler
from repro.runtime import comparable_artifact
from repro.sim.backend import SimBackend
from repro.sim.workload import SimWorkload

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_profiles.json"

MACHINE = "comet"

#: ``(seed, spawn slot)`` of the rows of one case; at 10 Hz their sample
#: counts differ.
ROWS = [(0, 1), (1, 1), (2, 1), (3, 1), (3, 2), (11, 1)]

APPS: dict[str, Callable[[], Any]] = {
    "gromacs": lambda: GromacsModel(iterations=20_000),
    "sleeper": lambda: SleeperApp(sleep_seconds=1.0),
    # The one with disk and network traffic, for the experimental watchers.
    "synthetic": lambda: SyntheticApp(
        instructions=2e9, bytes_read=24 << 20, bytes_written=32 << 20,
        memory_bytes=32 << 20, net_sent=4 << 20, net_received=2 << 20,
        sleep_seconds=0.25, chunks=6,
    ),
}

CONFIGS: dict[str, dict[str, Any]] = {
    "constant-0.1": {"sample_rate": 0.1},
    "constant-2": {"sample_rate": 2.0},
    "constant-10": {"sample_rate": 10.0},
    "adaptive": {
        "sample_rate": 1.0, "sampling_policy": "adaptive",
        "adaptive_initial_rate": 10.0, "adaptive_settle_seconds": 0.5,
    },
    "no-drain": {"sample_rate": 2.0, "drain_final_sample": False},
    "network-blktrace": {
        "sample_rate": 2.0,
        "watchers": (*DEFAULT_WATCHERS, "network", "blktrace"),
    },
    "no-rusage": {"sample_rate": 2.0, "watchers": ("system", "cpu", "memory")},
}


def digest(profile: Any) -> str:
    payload = json.dumps(comparable_artifact(profile), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def backend_for(seed: int, slot: int) -> SimBackend:
    return SimBackend(MACHINE, noisy=True, seed=seed, spawn_offset=slot - 1)


def case_names() -> list[tuple[str, str, str]]:
    """``(fixture key, config name, app name)`` of every grid case."""
    return [
        (f"{config}/{app}", config, app) for config in CONFIGS for app in APPS
    ]


def special_cases(profiler_cls: type[Profiler] = Profiler) -> dict[str, list[str]]:
    """The cases that are not one fresh backend per profile."""
    out: dict[str, list[str]] = {}
    config = SynapseConfig(sample_rate=2.0)
    # A workload that takes no time at all: one interval, one drain sample.
    out["zero-duration"] = [
        digest(profiler_cls(backend_for(seed, slot), config=config).run(
            SimWorkload(name="noop")
        ))
        for seed, slot in ROWS[:2]
    ]
    # Three runs back to back on one backend: the second and third start
    # with the clock where the one before left it.
    for name, factory in APPS.items():
        backend = backend_for(5, 1)
        profiler = profiler_cls(backend, config=config)
        app = factory()
        out[f"shared-clock/{name}"] = [
            digest(profiler.run(app, tags={"run": run})) for run in range(3)
        ]
    return out


def grid_case(
    config_name: str, app_name: str, profiler_cls: type[Profiler] = Profiler
) -> list[str]:
    config = SynapseConfig(**CONFIGS[config_name])
    app = APPS[app_name]()
    return [
        digest(profiler_cls(backend_for(seed, slot), config=config).run(
            app, tags=app.tags(), command=app.command()
        ))
        for seed, slot in ROWS
    ]


def generate() -> dict[str, list[str]]:
    fixture = {key: grid_case(config, app) for key, config, app in case_names()}
    fixture.update(special_cases())
    return fixture


if __name__ == "__main__":
    FIXTURE_PATH.parent.mkdir(exist_ok=True)
    FIXTURE_PATH.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE_PATH}")
