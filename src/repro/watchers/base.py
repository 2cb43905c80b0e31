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

Rows
----

On the simulation plane one set of watchers observes a whole *block* of
concurrent processes: the handle answers with a leading row axis
(:class:`~repro.sim.process.SimProcessBlock`), ``sample_batch`` is
handed ``(rows, samples)`` arrays, and results hold
:class:`~repro.util.timeseries.SeriesRows` and :class:`PerRow` values.
A hook that is written along the last axis — so that it serves a lone
process and a block alike — says so with :func:`rowwise`; the profiler
sends a call whose watchers override a hook without saying so down its
per-process drivers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.backend import ProcessHandle
from repro.core.config import SynapseConfig
from repro.util.timeseries import SeriesRows, TimeSeries

__all__ = [
    "WatcherBase", "WatcherResult", "WatcherContext", "PerRow", "per_row",
    "rowwise",
]


def rowwise(hook: Any) -> Any:
    """Mark a protocol hook as written along the last axis."""
    hook.rowwise = True
    return hook


class PerRow(list):
    """A static or info value that differs between the rows of a block:
    one entry per row, ``None`` where a row has none."""


def per_row(values: Any, where: Any = True) -> Any:
    """``values`` where ``where`` holds, else nothing: the value itself
    or ``None`` for a lone process, a :class:`PerRow` for the ``(rows,)``
    arrays of a block (``where`` is then ``True`` or an array like
    them).  A ``dict`` of such values becomes one ``dict`` per row.
    """
    if type(values) is dict:
        columns = [per_row(value) for value in values.values()]
        if not columns or type(columns[0]) is not PerRow:
            return dict(values)
        return PerRow(dict(zip(values, row)) for row in zip(*columns))
    if not isinstance(values, np.ndarray):
        return values if where else None
    if where is True:
        return PerRow(values.tolist())
    return PerRow(
        value if held else None
        for value, held in zip(values.tolist(), where.tolist())
    )


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
    #: Actual sampling timestamps of this watcher; for a block of rows,
    #: the ``(rows, samples)`` table its series share.
    timestamps: Any = field(default_factory=list)
    #: For a block of rows: how many of each row's samples are its own.
    counts: np.ndarray | None = None

    def row(self, index: int) -> "WatcherResult":
        """What a lone watcher of row ``index`` of a block would hold,
        the containers its own."""
        stamps = self.timestamps
        if self.counts is not None:
            stamps = stamps[index, : self.counts[index]].tolist()
        return WatcherResult(
            cumulative=row_of(self.cumulative, index),
            levels=row_of(self.levels, index),
            statics=row_of(self.statics, index),
            info=row_of(self.info, index),
            timestamps=list(stamps),
        )


def row_of(values: Mapping[str, Any], index: int) -> dict[str, Any]:
    """Row ``index`` of a block's series, statics or info: series cut,
    :class:`PerRow` values picked (and dropped where the row has none),
    every container copied so that no two rows share one."""
    picked = {
        key: value[index] if type(value) is PerRow
        else value.row(index) if type(value) is SeriesRows else value
        for key, value in values.items()
    }
    return {key: _own(value) for key, value in picked.items() if value is not None}


def _own(value: Any) -> Any:
    if type(value) is dict:
        return {key: _own(item) for key, item in value.items()}
    if type(value) is list:
        return [_own(item) for item in value]
    return value


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
        self,
        times: Sequence[float] | np.ndarray,
        counters: Mapping[str, Any],
        counts: np.ndarray | None = None,
    ) -> None:
        """Record many samples at once (the sim plane's grid pass).

        ``times`` is the full sample grid and ``counters`` maps metric
        names to arrays aligned with it — one snapshot per grid point,
        exactly what per-point :meth:`sample` calls would have seen.
        The default implementation mirrors :meth:`sample`: it records
        every declared metric present in the snapshot and extends the
        watcher's timestamps.  The arrays are kept as they are (no
        per-point tuples); scalar samples taken earlier in the run keep
        their place before the batch.

        For a block of rows the arrays are ``(rows, samples)`` tables
        and ``counts`` says how many of each row's samples are its own
        (the columns after them repeat its last); the block is sampled
        once, and the table stays the stamps of every row.
        """
        times = np.asarray(times, dtype=float)
        if counts is None:
            self.result.timestamps.extend(times.tolist())
        else:
            self.result.timestamps, self.result.counts = times, counts
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
                counts = self.result.counts
                if counts is not None:
                    # A block's one table; whoever cut it checked it.
                    (times, values), = pieces
                    out[name] = SeriesRows(times, values, counts)
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
