"""Sampling policies, including the paper's adaptive-rate future work.

§6 ("Sampling Rate"): "A high sampling rate has been shown to be able
to capture application startup more accurately, and is necessary to
profile short-running jobs.  ...  We thus consider an adaptive scheme,
starting with a high sampling rate (10/sec), and after a few seconds,
when we can expect to have captured the application startup, decrease
the rate.  Synapse's codebase does not assume a constant rate."

This module implements that scheme.  A policy maps elapsed run time to
the *next* sampling interval; the profiler queries it each iteration and
builds the (now possibly non-uniform) sample grid from it.  Profiles
carry per-sample ``dt``, so nothing downstream assumes a constant rate —
exactly the property the paper claims of the original codebase.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.core.config import MAX_SAMPLE_RATE, SynapseConfig
from repro.core.errors import ConfigError, number

__all__ = [
    "SamplingPolicy",
    "ConstantRate",
    "AdaptiveRate",
    "policy_from_config",
]


class SamplingPolicy(ABC):
    """Maps elapsed profiling time to the next sampling interval."""

    @abstractmethod
    def interval_at(self, elapsed: float) -> float:
        """Seconds until the next sample, given ``elapsed`` run time."""

    def grid(self, runtime: float) -> list[tuple[float, float]]:
        """The ``(t, dt)`` sample grid covering ``runtime`` seconds.

        The final interval is always completed in full (the profiler
        "only terminates when full sample periods have passed", §4.5).
        """
        if runtime <= 0:
            return [(0.0, self.interval_at(0.0))]
        grid: list[tuple[float, float]] = []
        t = 0.0
        while t < runtime:
            dt = self.interval_at(t)
            grid.append((t, dt))
            t += dt
        return grid

    def describe(self) -> dict[str, Any]:
        """Serialisable description stored in profile metadata."""
        return {"policy": type(self).__name__}


@dataclass(frozen=True)
class ConstantRate(SamplingPolicy):
    """The default fixed-rate policy of §4.1."""

    rate: float

    def __post_init__(self) -> None:
        number("sampling rate", self.rate, above=0.0, most=MAX_SAMPLE_RATE)

    def interval_at(self, elapsed: float) -> float:
        return 1.0 / self.rate

    def describe(self) -> dict[str, Any]:
        return {"policy": "constant", "rate": self.rate}


@dataclass(frozen=True)
class AdaptiveRate(SamplingPolicy):
    """High-rate startup capture, then settle to a base rate (§6).

    Attributes
    ----------
    initial_rate:
        Rate during the startup window (paper suggests the 10 Hz cap).
    settle_seconds:
        Length of the startup window ("after a few seconds ... decrease
        the rate").
    base_rate:
        Steady-state rate after the window.
    """

    initial_rate: float = MAX_SAMPLE_RATE
    settle_seconds: float = 5.0
    base_rate: float = 1.0

    def __post_init__(self) -> None:
        number("initial_rate", self.initial_rate, above=0.0, most=MAX_SAMPLE_RATE)
        number("base_rate", self.base_rate, above=0.0, most=MAX_SAMPLE_RATE)
        if self.initial_rate < self.base_rate:
            raise ConfigError("initial_rate must be >= base_rate")
        number("settle_seconds", self.settle_seconds, 0.0)

    def interval_at(self, elapsed: float) -> float:
        # The epsilon absorbs float accumulation when grid timestamps are
        # built by summing many small intervals up to the settle boundary.
        if elapsed < self.settle_seconds - 1e-9:
            return 1.0 / self.initial_rate
        return 1.0 / self.base_rate

    def describe(self) -> dict[str, Any]:
        return {
            "policy": "adaptive",
            "initial_rate": self.initial_rate,
            "settle_seconds": self.settle_seconds,
            "base_rate": self.base_rate,
        }


def policy_from_config(config: SynapseConfig) -> SamplingPolicy:
    """Resolve the sampling policy selected by a configuration.

    ``config.sampling_policy`` chooses ``"constant"`` (default; uses
    ``sample_rate``) or ``"adaptive"`` (uses ``adaptive_initial_rate`` /
    ``adaptive_settle_seconds`` for the startup window and
    ``sample_rate`` as the steady-state rate).
    """
    name = getattr(config, "sampling_policy", "constant")
    if name == "constant":
        return ConstantRate(rate=config.sample_rate)
    if name == "adaptive":
        return AdaptiveRate(
            initial_rate=config.adaptive_initial_rate,
            settle_seconds=config.adaptive_settle_seconds,
            base_rate=config.sample_rate,
        )
    raise ConfigError(f"unknown sampling policy {name!r}")
