"""Profile data model: samples, profiles and (de)serialisation.

A *profile* is the product of one profiling run: metadata (command, tags,
machine description, configuration) plus an ordered list of *samples*.
Each sample covers one sampling interval and stores, per metric, either
the counter increment over the interval (cumulative metrics) or the level
observed at sampling time (level metrics).  Sample order is the essential
fidelity-carrying property of the paper (§4.4): the emulator replays
samples strictly in this order.

Timestamps of different watchers are intentionally *not* synchronised
(the paper accepts drift rather than paying synchronisation overhead);
each sample therefore optionally carries per-watcher timestamps alongside
the nominal grid time.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.core import metrics as _metrics
from repro.core.metrics import MetricKind
from repro.core.tags import normalize_command, normalize_tags
from repro.util.timeseries import TimeSeries

__all__ = ["Sample", "Profile"]


@dataclass
class Sample:
    """One profiler sampling interval.

    Attributes
    ----------
    index:
        Position in the profile (0-based); replay order.
    t:
        Interval start, seconds since process start (nominal grid time).
    dt:
        Interval length in seconds.
    values:
        Metric name -> delta (cumulative metrics) or level (level metrics).
    watcher_times:
        Watcher name -> actual timestamp at which that watcher sampled;
        may drift from ``t`` (§4.1).
    """

    index: int
    t: float
    dt: float
    values: dict[str, float] = field(default_factory=dict)
    watcher_times: dict[str, float] = field(default_factory=dict)

    def get(self, name: str, default: float = 0.0) -> float:
        """Value of one metric in this sample (``default`` when absent)."""
        return self.values.get(name, default)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form used by both profile stores."""
        return {
            "index": self.index,
            "t": self.t,
            "dt": self.dt,
            "values": dict(self.values),
            "watcher_times": dict(self.watcher_times),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sample":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(data["index"]),
            t=float(data["t"]),
            dt=float(data["dt"]),
            values={str(k): float(v) for k, v in data.get("values", {}).items()},
            watcher_times={
                str(k): float(v) for k, v in data.get("watcher_times", {}).items()
            },
        )


@dataclass
class Profile:
    """A stored profiling result for one application run."""

    command: str
    tags: tuple[str, ...] = ()
    machine: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    sample_rate: float = 1.0
    samples: list[Sample] = field(default_factory=list)
    #: Static metrics (core count, clock frequency, filesystem name, ...).
    statics: dict[str, Any] = field(default_factory=dict)
    #: Free-form run information (backend, exit code, watcher list, ...).
    info: dict[str, Any] = field(default_factory=dict)
    #: True when a store dropped trailing samples (16 MB document limit).
    truncated: bool = False
    created: float = field(default_factory=_time.time)

    def __post_init__(self) -> None:
        self.command = normalize_command(self.command)
        self.tags = normalize_tags(self.tags)

    # -- basic queries ------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of recorded samples."""
        return len(self.samples)

    @property
    def tx(self) -> float:
        """Application execution time Tx (seconds).

        Prefers the rusage-recorded runtime total; falls back to the sum
        of sample intervals when the rusage watcher was disabled.
        """
        runtime = self._total("time.runtime")
        if runtime is not None and runtime > 0:
            return runtime
        return float(sum(s.dt for s in self.samples))

    def _total(self, name: str) -> float | None:
        """``totals().get(name)`` without totalling every other metric:
        the same statics override, level/cumulative rule and
        left-to-right accumulation, over one metric's values."""
        static = self.statics.get(name)
        if isinstance(static, (int, float)):
            return float(static)
        found = [s.values[name] for s in self.samples if name in s.values]
        if not found:
            return None
        spec = _metrics.REGISTRY.get(name)
        if spec is not None and spec.kind is MetricKind.LEVEL:
            total = float("-inf")
            for value in found:
                total = max(total, value)
        else:
            total = 0.0
            for value in found:
                total = total + value
        return total

    def metric_names(self) -> list[str]:
        """All metric names appearing in samples or statics."""
        names: set[str] = set(self.statics)
        for sample in self.samples:
            names.update(sample.values)
        return sorted(names)

    def totals(self) -> dict[str, float]:
        """Integrated totals per metric (Table 1 'Tot.' column semantics).

        Cumulative metrics sum their per-sample deltas; level metrics
        report their maximum observed level; statics pass through.
        Unknown metric names default to cumulative semantics.
        """
        sums: dict[str, float] = {}
        maxima: dict[str, float] = {}
        for sample in self.samples:
            for name, value in sample.values.items():
                spec = _metrics.REGISTRY.get(name)
                if spec is not None and spec.kind is MetricKind.LEVEL:
                    maxima[name] = max(maxima.get(name, float("-inf")), value)
                else:
                    sums[name] = sums.get(name, 0.0) + value
        totals: dict[str, float] = {}
        totals.update(sums)
        totals.update(maxima)
        for name, value in self.statics.items():
            if isinstance(value, (int, float)):
                totals[name] = float(value)
        return totals

    def derived(self) -> dict[str, float]:
        """Derived metrics (§4.3) computed from :meth:`totals`."""
        return _metrics.derive_metrics(self.totals())

    def series(self, name: str) -> TimeSeries:
        """Reconstruct the cumulative/level time series of one metric.

        Cumulative metrics are re-accumulated from their deltas (starting
        at zero); level metrics are returned as sampled.
        """
        spec = _metrics.REGISTRY.get(name)
        level = spec is not None and spec.kind is MetricKind.LEVEL
        times: list[float] = []
        values: list[float] = []
        running = 0.0
        for sample in self.samples:
            times.append(sample.t + sample.dt)
            if level:
                values.append(sample.get(name))
            else:
                running += sample.get(name)
                values.append(running)
        return TimeSeries(times, values)

    # -- editing -------------------------------------------------------------

    def truncate(self, n_samples: int) -> "Profile":
        """Copy of this profile keeping only the first ``n_samples`` samples.

        The copy is flagged ``truncated`` — this is what the Mongo-like
        store does when a document would exceed its 16 MB limit.
        """
        clone = Profile(
            command=self.command,
            tags=self.tags,
            machine=dict(self.machine),
            config=dict(self.config),
            sample_rate=self.sample_rate,
            samples=[
                Sample(s.index, s.t, s.dt, dict(s.values), dict(s.watcher_times))
                for s in self.samples[:n_samples]
            ],
            statics=dict(self.statics),
            info=dict(self.info),
            truncated=True,
            created=self.created,
        )
        return clone

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise the full profile to a JSON-compatible dict."""
        return {
            "command": self.command,
            "tags": list(self.tags),
            "machine": dict(self.machine),
            "config": dict(self.config),
            "sample_rate": self.sample_rate,
            "samples": [s.to_dict() for s in self.samples],
            "statics": dict(self.statics),
            "info": dict(self.info),
            "truncated": self.truncated,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Profile":
        """Inverse of :meth:`to_dict`."""
        return cls(
            command=data["command"],
            tags=tuple(data.get("tags", ())),
            machine=dict(data.get("machine", {})),
            config=dict(data.get("config", {})),
            sample_rate=float(data.get("sample_rate", 1.0)),
            samples=[Sample.from_dict(s) for s in data.get("samples", [])],
            statics=dict(data.get("statics", {})),
            info=dict(data.get("info", {})),
            truncated=bool(data.get("truncated", False)),
            created=float(data.get("created", 0.0)),
        )

    def document_size(self) -> int:
        """Size in bytes of the JSON document this profile serialises to."""
        return len(json.dumps(self.to_dict()).encode("utf-8"))

    @staticmethod
    def merge_watcher_series(
        grid: Iterable[tuple[float, float]],
        cumulative: Mapping[str, TimeSeries],
        levels: Mapping[str, TimeSeries],
        watcher_times: Mapping[str, Iterable[float]] | None = None,
    ) -> list[Sample]:
        """Combine per-watcher time series into the unified sample list.

        This is the post-processing step of §4.1: the individual watcher
        series (with drifting timestamps) are aligned onto the profiler's
        nominal grid.  ``grid`` yields ``(t, dt)`` interval descriptors;
        cumulative series are differenced across interval boundaries and
        level series are sampled at interval ends.

        The merge is columnar: every series is evaluated over the
        whole grid in one shot (:meth:`TimeSeries.values_at`),
        cumulative columns are differenced as arrays, and each column
        becomes Python floats with one ``tolist()`` — one row of those
        per sample — instead of one ``value_at`` / ``float()`` call per
        metric per interval.  Results are bit-identical to the scalar
        merge (the test suite pins the equivalence against a scalar
        reference implementation): the array difference subtracts
        exactly the float64 values the scalar loop tracked in
        ``prev_cum``, and counters of a freshly spawned process start
        at zero — seeding from the first *observation* instead would
        swallow everything before the first watcher sample (the
        spawn-to-first-sample offset the paper corrects with
        ``time -v``).
        """
        intervals = list(grid)
        ends = np.fromiter(
            (t + dt for t, dt in intervals), dtype=float, count=len(intervals)
        )
        # Cumulative names first, then levels (a name in both keeps its
        # first position and the level's value, as dict updates do).
        names: list[str] = []
        columns: list[list[float]] = []
        for name, series in cumulative.items():
            values = series.values_at(ends)
            deltas = values.copy()
            np.subtract(values[1:], values[:-1], out=deltas[1:])
            names.append(name)
            columns.append(deltas.tolist())
        for name, series in levels.items():
            names.append(name)
            columns.append(series.values_at(ends).tolist())
        rows = zip(*columns) if columns else [()] * len(intervals)
        wt = {k: list(v) for k, v in (watcher_times or {}).items()}
        samples: list[Sample] = []
        for index, ((t, dt), row) in enumerate(zip(intervals, rows)):
            times = {
                watcher: stamps[index]
                for watcher, stamps in wt.items()
                if index < len(stamps)
            }
            samples.append(
                Sample(index=index, t=t, dt=dt, values=dict(zip(names, row)),
                       watcher_times=times)
            )
        return samples

    @staticmethod
    def merge_watcher_rows(
        grid: list[tuple[float, float]],
        n_samples: np.ndarray,
        cumulative: Mapping[str, Any],
        levels: Mapping[str, Any],
        times: np.ndarray,
        counts: np.ndarray,
        drain: int,
        watchers: list[str],
    ) -> list[tuple[list[Sample], float]]:
        """:meth:`merge_watcher_series` for a block of rows sampled on
        one grid: per row, its samples and its first sample offset.

        The series are :class:`~repro.util.timeseries.SeriesRows` on the
        ``(rows, samples)`` table ``times``, of which row *r* owns the
        first ``counts[r]`` columns: a grid column each, then ``drain``
        repeats of the last.  ``grid`` holds the intervals of the
        longest row — interval *i* ends at column *i*'s timestamp — and
        row *r* uses the first ``n_samples[r]`` of them.  Each end
        therefore *is* a timestamp, and the value there is read off by
        index: the last column with that timestamp (the drain sample
        where it repeats a row's last grid column), which is
        ``np.interp``'s own answer.  The whole block is gathered and
        differenced as one array and becomes Python floats with one
        ``tolist()``.  ``watchers`` are the watchers that stamped the
        samples.
        """
        rows = len(counts)
        width = int(n_samples.max())
        names = [*cumulative, *levels]
        if names:
            columns = np.arange(width)
            at = columns + ((columns == (counts - drain)[:, None] - 1) & bool(drain))
            stacked = np.array(
                [series.values for series in (*cumulative.values(), *levels.values())]
            )[:, np.arange(rows)[:, None], at]
            table = stacked.copy()
            accrued = len(cumulative)
            np.subtract(
                stacked[:accrued, :, 1:], stacked[:accrued, :, :-1],
                out=table[:accrued, :, 1:],
            )
            values = table.transpose(1, 2, 0).tolist()
        stamps = times.tolist()
        merged = []
        for row, (n, count) in enumerate(zip(n_samples.tolist(), counts.tolist())):
            samples = [
                Sample(
                    index=index, t=t, dt=dt,
                    # A row that was never sampled has no metrics.
                    values=dict(zip(names, values[row][index])) if count and names else {},
                    watcher_times=(
                        dict.fromkeys(watchers, stamps[row][index])
                        if index < count else {}
                    ),
                )
                for index, (t, dt) in enumerate(grid[:n])
            ]
            merged.append((samples, stamps[row][0] if count and watchers else 0.0))
        return merged
