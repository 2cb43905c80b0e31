"""Watcher plugin framework (§4.1 of the paper).

A watcher observes one resource type of a running process.  The plugin
protocol is the paper's, verbatim::

    class WatcherClass(WatcherBase):
        def __init__  (self, handle, context): ...
        def pre_process (self, config): ...
        def sample      (self, now): ...
        def post_process(self): ...
        def finalize    (self): ...

``sample`` is invoked at regular intervals by the profiling driver (one
thread per watcher on the host plane, lockstep on the simulation plane).
In ``finalize`` a plugin may access the raw results of *other* watchers
to derive further values without duplicating measurements — the paper
accepts the resulting plugin dependencies to avoid double sampling.

Each watcher accumulates raw time series; the profiler merges them onto
its nominal grid afterwards (watcher timestamps may drift, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.backend import ProcessHandle
from repro.core.config import SynapseConfig
from repro.util.timeseries import TimeSeries

__all__ = ["WatcherBase", "WatcherResult", "WatcherContext"]


@dataclass
class WatcherContext:
    """Information available to watchers besides the process handle."""

    config: SynapseConfig
    machine_info: dict[str, Any] = field(default_factory=dict)
    backend: Any = None


@dataclass
class WatcherResult:
    """Raw output of one watcher after finalisation."""

    #: Cumulative counter series (per-interval deltas derive from these).
    cumulative: dict[str, TimeSeries] = field(default_factory=dict)
    #: Instantaneous level series (RSS, thread count, ...).
    levels: dict[str, TimeSeries] = field(default_factory=dict)
    #: Static values recorded once per run.
    statics: dict[str, Any] = field(default_factory=dict)
    #: Free-form extra information for the profile's ``info`` dict.
    info: dict[str, Any] = field(default_factory=dict)
    #: Actual sampling timestamps of this watcher.
    timestamps: list[float] = field(default_factory=list)


class WatcherBase:
    """Base class of all watcher plugins."""

    #: Registry name (``"cpu"``, ``"memory"``, ...).
    name: str = "base"
    #: Cumulative metrics this watcher tries to record.
    cumulative_metrics: tuple[str, ...] = ()
    #: Level metrics this watcher tries to record.
    level_metrics: tuple[str, ...] = ()

    def __init__(self, handle: ProcessHandle, context: WatcherContext) -> None:
        self.handle = handle
        self.context = context
        self.result = WatcherResult()
        self._cum: dict[str, list[tuple[float, float]]] = {
            name: [] for name in self.cumulative_metrics
        }
        self._lev: dict[str, list[tuple[float, float]]] = {
            name: [] for name in self.level_metrics
        }
        #: Per metric, the ``(times, values)`` array pieces recorded by
        #: :meth:`sample_batch`, in sampling order.
        self._pieces: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    # -- protocol ----------------------------------------------------------

    def pre_process(self, config: SynapseConfig) -> None:
        """Set up the profiling environment for this watcher."""

    def sample(self, now: float) -> None:
        """Take one sample at (relative) time ``now``.

        The default implementation snapshots the handle's counters and
        records every metric this watcher declares.  Metrics absent from
        the snapshot (e.g. stall counters on the host plane) are skipped.
        """
        counters = self.handle.counters()
        self.result.timestamps.append(now)
        for name, points in self._cum.items():
            if name in counters:
                points.append((now, counters[name]))
        for name, points in self._lev.items():
            if name in counters:
                points.append((now, counters[name]))

    def sample_batch(
        self, times: Sequence[float] | np.ndarray, counters: Mapping[str, Any]
    ) -> None:
        """Record many samples at once (the sim plane's grid fast path).

        ``times`` is the full sample grid and ``counters`` maps metric
        names to arrays aligned with it — one snapshot per grid point,
        exactly what per-point :meth:`sample` calls would have seen.
        The default implementation mirrors :meth:`sample`: it records
        every declared metric present in the snapshot and extends the
        watcher's timestamps.  The arrays are kept as they are (no
        per-point tuples); scalar samples taken earlier in the run keep
        their place before the batch.  Plugins that override
        :meth:`sample` with custom behaviour are *not* driven through
        this path unless they also override ``sample_batch`` (see the
        profiler's fast-path eligibility check).
        """
        times = np.asarray(times, dtype=float)
        self.result.timestamps.extend(times.tolist())
        for group in (self._cum, self._lev):
            for name, points in group.items():
                values = counters.get(name)
                if values is not None:
                    self._settled(name, points).append((times, values))

    def _settled(
        self, name: str, points: list[tuple[float, float]]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """The metric's array pieces, after moving the scalar samples
        recorded so far behind them (sampling order is kept)."""
        pieces = self._pieces.setdefault(name, [])
        if points:
            times, values = zip(*points)
            pieces.append(
                (np.asarray(times, dtype=float), np.asarray(values, dtype=float))
            )
            points.clear()
        return pieces

    def post_process(self) -> None:
        """Tear down the profiling environment; build raw series."""
        # Metrics of one watcher are sampled together, so their batch
        # pieces share the same time arrays: join and check each distinct
        # sequence of them once per watcher, not once per metric.  (The
        # watcher keeps every piece referenced, so ids cannot repeat.)
        checked: dict[tuple[int, ...], np.ndarray] = {}
        for group, out in (
            (self._cum, self.result.cumulative),
            (self._lev, self.result.levels),
        ):
            for name, points in group.items():
                pieces = self._settled(name, points)
                if not pieces:
                    continue
                key = tuple(id(times) for times, _ in pieces)
                times = checked.get(key)
                if times is None:
                    times = _joined([times for times, _ in pieces])
                    if np.any(np.diff(times) < 0):
                        raise ValueError("timestamps must be non-decreasing")
                    checked[key] = times
                out[name] = TimeSeries.presorted(
                    times, _joined([values for _, values in pieces])
                )

    def finalize(self, all_results: Mapping[str, WatcherResult]) -> WatcherResult:
        """Post-process with access to every watcher's raw results."""
        return self.result


def _joined(arrays: list[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
