"""Multi-profile statistics (§4: "basic statistics analysis on the
resource consumption recorded across those profiles").

E.1 and E.3 report means with error bars — E.3 specifically uses 99 %
confidence intervals — over repeated profiling runs of the same
command/tag combination.  :func:`aggregate` reproduces that analysis over
any collection of profiles sharing a search key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.core.errors import SynapseError
from repro.core.samples import Profile
from repro.util.tables import Table

__all__ = ["MetricStats", "ProfileStats", "aggregate", "error_percent"]


@dataclass(frozen=True)
class MetricStats:
    """Summary statistics of one metric across repeated runs."""

    name: str
    n: int
    mean: float
    std: float
    minimum: float
    maximum: float
    #: Half-width of the 99 % confidence interval of the mean (Student t).
    ci99: float

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.n) if self.n > 0 else float("nan")

    def compatible_with(self, other: "MetricStats", sigmas: float = 4.0) -> bool:
        """Loose agreement check: means within ``sigmas`` combined spread."""
        spread = max(self.std + other.std, 1e-12 * (abs(self.mean) + abs(other.mean)))
        return abs(self.mean - other.mean) <= sigmas * spread


@dataclass
class ProfileStats:
    """Per-metric statistics over a set of profiles with one search key."""

    command: str
    tags: tuple[str, ...]
    n_profiles: int
    metrics: dict[str, MetricStats] = field(default_factory=dict)

    def metric(self, name: str) -> MetricStats:
        """Statistics of one metric (raises for unknown names)."""
        try:
            return self.metrics[name]
        except KeyError:
            raise SynapseError(
                f"metric {name!r} not present; have {sorted(self.metrics)}"
            ) from None

    def mean(self, name: str) -> float:
        """Shortcut for ``metric(name).mean``."""
        return self.metric(name).mean

    def table(self, names: Iterable[str] | None = None) -> Table:
        """Render chosen metrics (default: all) as an ASCII table."""
        table = Table(
            ["metric", "n", "mean", "std", "ci99", "min", "max"],
            title=f"{self.command} {list(self.tags)} ({self.n_profiles} profiles)",
        )
        for name in names if names is not None else sorted(self.metrics):
            stat = self.metrics[name]
            table.add_row(
                [name, stat.n, stat.mean, stat.std, stat.ci99, stat.minimum, stat.maximum]
            )
        return table


def _stats_from_values(name: str, values: list[float]) -> MetricStats:
    arr = np.asarray(values, dtype=float)
    n = arr.size
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if n > 1 else 0.0
    if n > 1 and std > 0:
        # Imported at first use: scipy is most of a cold `import repro`,
        # and a run that aggregates nothing never needs it.  stdtrit is
        # the kernel behind scipy.stats.t.ppf, bit for bit.
        from scipy.special import stdtrit

        ci99 = float(stdtrit(n - 1, 0.995) * std / math.sqrt(n))
    else:
        ci99 = 0.0
    return MetricStats(
        name=name,
        n=n,
        mean=mean,
        std=std,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        ci99=ci99,
    )


def aggregate(profiles: Iterable[Profile]) -> ProfileStats:
    """Aggregate totals + derived metrics + Tx across repeated profiles.

    All profiles should share one command/tag combination (the paper's
    grouping); the first profile's key is reported.
    """
    profiles = list(profiles)
    if not profiles:
        raise SynapseError("cannot aggregate zero profiles")
    values: dict[str, list[float]] = {}
    for profile in profiles:
        merged: dict[str, float] = {}
        merged.update(profile.totals())
        merged.update(profile.derived())
        merged["tx"] = profile.tx
        for name, value in merged.items():
            values.setdefault(name, []).append(float(value))
    metrics = {
        name: _stats_from_values(name, vals)
        for name, vals in values.items()
        # Only aggregate metrics present in every run, so partial
        # availability does not skew the statistics.
        if len(vals) == len(profiles)
    }
    return ProfileStats(
        command=profiles[0].command,
        tags=profiles[0].tags,
        n_profiles=len(profiles),
        metrics=metrics,
    )


def error_percent(reference: float, measured: float) -> float:
    """Percentage error of ``measured`` against ``reference`` (E.3 plots)."""
    if reference == 0:
        return float("inf") if measured != 0 else 0.0
    return abs(measured - reference) / abs(reference) * 100.0


def summarize_comparison(
    reference: Mapping[str, float], measured: Mapping[str, float]
) -> dict[str, float]:
    """Per-metric error percentages for keys present in both mappings."""
    return {
        name: error_percent(reference[name], measured[name])
        for name in reference
        if name in measured
    }
