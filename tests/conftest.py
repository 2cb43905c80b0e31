"""Shared fixtures for the Synapse reproduction test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.apps import GromacsModel
from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.faults import ENV_VAR, reset
from repro.sim.backend import SimBackend

#: The wide search of the emulation-layout properties —
#: ``tests/sim/test_layout.py`` (layout bound per machine, the draw
#: table) and ``tests/core/test_plan_compile.py`` (the one-pass
#: compile); tier-1 runs a small derandomized set of each:
#: ``--hypothesis-profile=emulation-layout --hypothesis-seed=N``.
#: Registered here, before pytest loads the profile named on its
#: command line.
settings.register_profile(
    "emulation-layout", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts and ends with no fault plan and no env
    activation, so a plan one test activates never slows or breaks the
    tests after it."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    reset()
    yield
    reset()


def make_backend(machine: str = "thinkie", noisy: bool = False, seed: int = 0) -> SimBackend:
    """Fresh simulation backend (exact by default for deterministic tests)."""
    return SimBackend(machine, noisy=noisy, seed=seed)


@pytest.fixture
def thinkie():
    """Exact (noise-free) backend on the profiling machine."""
    return make_backend("thinkie")


@pytest.fixture
def fast_config():
    """High-rate profiling configuration."""
    return SynapseConfig(sample_rate=10.0)


@pytest.fixture(scope="session")
def gromacs_profile():
    """A session-cached profile of a small Gromacs run on Thinkie."""
    backend = make_backend("thinkie")
    profiler = Profiler(backend, config=SynapseConfig(sample_rate=2.0))
    app = GromacsModel(iterations=50_000)
    return profiler.run(app, tags=app.tags(), command=app.command())


@pytest.fixture(scope="session")
def gromacs_profile_large():
    """A session-cached profile of a longer Gromacs run on Thinkie."""
    backend = make_backend("thinkie")
    profiler = Profiler(backend, config=SynapseConfig(sample_rate=1.0))
    app = GromacsModel(iterations=1_000_000)
    return profiler.run(app, tags=app.tags(), command=app.command())
