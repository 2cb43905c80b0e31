"""Shared fixtures for the traffic suite (its statistical tolerance is
``tests/traffic/traffic_stats.py``)."""

from __future__ import annotations

import pytest

from repro.traffic.arrivals import DiurnalProcess, MMPPProcess, PoissonProcess
from repro.traffic.workload import default_mix


@pytest.fixture
def poisson_process() -> PoissonProcess:
    """A seeded 100 req/s Poisson stream."""
    return PoissonProcess(rate=100.0, seed=1234)


@pytest.fixture
def mmpp_process() -> MMPPProcess:
    """A seeded calm/bursty MMPP stream (20 vs 400 req/s)."""
    return MMPPProcess(rates=(20.0, 400.0), dwells=(8.0, 2.0), seed=99)


@pytest.fixture
def diurnal_process() -> DiurnalProcess:
    """A seeded day/night stream: 100 req/s mean, 80% swing, 24 h period."""
    return DiurnalProcess(rate=100.0, amplitude=0.8, period=86400.0, seed=7)


@pytest.fixture
def mix():
    """The default three-class request mix, seeded."""
    return default_mix(seed=42)
