"""The sim-plane profiler, pinned to profiles taken before its grid pass
went block-wide.

``fixtures/golden_profiles.json`` (see ``gen_profile_fixtures.py``) was
generated one ``Profiler.run`` per profile at the parent of PR 21.  Every
road to a profile has to reproduce it: a lone ``run``, ``run_many`` over
the replayed block of the same rows, the lockstep driver the grid pass
replaced (which stays the oracle), and a run-service batch.
"""

from __future__ import annotations

import json

import pytest
from gen_profile_fixtures import (
    APPS,
    CONFIGS,
    FIXTURE_PATH,
    MACHINE,
    ROWS,
    backend_for,
    case_names,
    digest,
    grid_case,
    special_cases,
)
from test_profiler_fastpath import LockstepOnlyProfiler

from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.runtime import RunRequest, RunService
from repro.sim.backend import SimBackend, _noise_for
from repro.sim.engine import Engine
from repro.sim.machines import get_machine

GOLDEN = json.loads(FIXTURE_PATH.read_text())
CASES = [pytest.param(config, app, id=key) for key, config, app in case_names()]


def replayed(app) -> list:
    """The rows of a case replayed as one block."""
    spec = get_machine(MACHINE)
    plan = Engine(spec).prepare(app.build_packed(spec))
    return Engine(spec).replay_many(
        plan, [_noise_for(spec, plan, True, seed, slot) for seed, slot in ROWS]
    )


def test_fixture_covers_every_case():
    assert set(GOLDEN) == {key for key, _, _ in case_names()} | {
        "zero-duration", *(f"shared-clock/{app}" for app in APPS)
    }


@pytest.mark.parametrize("config, app", CASES)
def test_lone_run_reproduces_the_goldens(config, app):
    assert grid_case(config, app) == GOLDEN[f"{config}/{app}"]


@pytest.mark.parametrize("profiler_cls", [Profiler, LockstepOnlyProfiler])
def test_special_cases_reproduce_the_goldens(profiler_cls):
    for key, digests in special_cases(profiler_cls).items():
        assert digests == GOLDEN[key], key


@pytest.mark.parametrize("config, app", CASES)
def test_block_pass_reproduces_the_goldens(config, app):
    model = APPS[app]()
    profiles = Profiler(
        SimBackend(MACHINE), config=SynapseConfig(**CONFIGS[config])
    ).run_many(replayed(model), tags=model.tags(), command=model.command())
    assert [digest(profile) for profile in profiles] == GOLDEN[f"{config}/{app}"]


@pytest.mark.parametrize("config, app", CASES)
def test_block_pass_equals_lockstep_row_by_row(config, app):
    """Not through the fixture: whatever ``run_many`` makes of a block
    is what the stepping driver makes of each of its rows alone."""
    model = APPS[app]()
    settings = SynapseConfig(**CONFIGS[config])
    records = replayed(model)
    together = Profiler(SimBackend(MACHINE), config=settings).run_many(records)
    alone = [
        LockstepOnlyProfiler(SimBackend(MACHINE), config=settings).run(record)
        for record in records
    ]
    assert [digest(profile) for profile in together] == [
        digest(profile) for profile in alone
    ]
    if config == "constant-10" and app != "synthetic":
        assert len({profile.n_samples for profile in together}) > 1


def test_block_pass_of_unlike_targets_equals_lone_runs():
    """Processes of different folds — and one of a record built by hand
    — are watched a block each, on one clock."""
    settings = SynapseConfig(sample_rate=2.0)
    models = [APPS["gromacs"](), APPS["sleeper"](), APPS["gromacs"]()]
    together = Profiler(backend_for(4, 1), config=settings).run_many(models)
    alone = [
        Profiler(backend_for(4, slot), config=settings).run(model)
        for slot, model in enumerate(models, start=1)
    ]
    assert [digest(profile) for profile in together] == [
        digest(profile) for profile in alone
    ]


@pytest.mark.parametrize(
    "config", ["constant-2", "constant-10", "no-drain", "network-blktrace", "no-rusage"]
)
def test_service_batch_reproduces_the_goldens(config):
    for app, factory in APPS.items():
        model = factory()
        requests = [
            RunRequest(
                kind="profile", target=model, machine=MACHINE,
                config=dict(CONFIGS[config]), seed=seed, index=slot,
                tags=model.tags(), command=model.command(),
            )
            for seed, slot in ROWS
        ]
        with RunService(processes=1) as service:
            results = service.run(requests)
        assert [digest(r.value) for r in results] == GOLDEN[f"{config}/{app}"], app
