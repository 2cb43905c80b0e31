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

A profile holds its samples as columns (:class:`SampleTable`): one
float64 array per quantity, a ``(samples, metrics)`` array of values and
a ``(samples, watchers)`` array of watcher timestamps.  The profiler
builds them as arrays, :class:`~repro.core.plan.EmulationPlan` and the
totals read them as arrays, and the file store writes them as binary
columns; a :class:`Sample` exists only when somebody asks for one.
"""

from __future__ import annotations

import json
import operator
import time as _time
from dataclasses import dataclass, field
from itertools import chain, compress
from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.core import metrics as _metrics
from repro.core.metrics import MetricKind
from repro.core.tags import normalize_command, normalize_tags
from repro.util.timeseries import TimeSeries

__all__ = ["Sample", "SampleTable", "Profile"]


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


def _cells(
    rows: list[Mapping[str, Any]],
) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """Names (first-seen order), ``(rows, names)`` values and presence
    mask (``None``: every row has every name) of a list of mappings."""
    names = list(dict.fromkeys(chain.from_iterable(rows)))
    width = len(names)
    if all(len(row) == width for row in rows):
        cells = np.array(
            [[row[name] for name in names] for row in rows], dtype=np.float64
        ).reshape(len(rows), width)
        return names, cells, None
    position = {name: j for j, name in enumerate(names)}
    cells = np.zeros((len(rows), width))
    has = np.zeros((len(rows), width), dtype=bool)
    for i, row in enumerate(rows):
        for name, value in row.items():
            cells[i, position[name]] = value
            has[i, position[name]] = True
    return names, cells, has


def _unique(names: list[str], values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Columns (last axis) named ``names`` with each name once, as
    ``dict(zip(names, row))`` keeps it: at its first position, with its
    last value."""
    last = {name: j for j, name in enumerate(names)}
    if len(last) == len(names):
        return names, values
    return list(last), values[..., list(last.values())]


class SampleTable:
    """The samples of a profile, as columns.

    ``index`` (int64), ``t`` and ``dt`` (float64) hold one entry per
    sample; ``values`` is the ``(samples, metrics)`` float64 array of the
    metrics named by ``metrics``, ``times`` the ``(samples, watchers)``
    float64 array of the watcher timestamps named by ``watchers``.  When
    some sample lacks a metric or a watcher stamp (a never-sampled row's
    ``values`` is ``{}``; a watcher that stopped early), ``has_values`` /
    ``has_times`` are boolean masks of the same shape and the absent
    cells hold ``0.0``; otherwise the mask is ``None``.  A metric or
    watcher no sample has is not a column.

    Reads like the ``list[Sample]`` it replaces — ``len``, iteration,
    indexing, slicing (a table again), ``==`` (also against a list of
    samples) and pickling — handing out :class:`Sample` copies built on
    demand.  A table is never changed in place: editing a sample handed
    out changes nothing, and stores share decoded tables between reads.
    """

    __slots__ = (
        "metrics", "watchers", "index", "t", "dt", "values", "times",
        "has_values", "has_times",
    )

    def __init__(
        self,
        metrics: Iterable[str] = (),
        watchers: Iterable[str] = (),
        index: Any = (),
        t: Any = (),
        dt: Any = (),
        values: Any = None,
        times: Any = None,
        has_values: Any = None,
        has_times: Any = None,
    ) -> None:
        self.index = np.asarray(index, dtype=np.int64)
        n = self.index.size
        if self.index.shape != (n,):
            raise ValueError("a sample table's index is one-dimensional")
        self.t = _floats(t, (n,), "t")
        self.dt = _floats(dt, (n,), "dt")
        self.metrics, self.values, self.has_values = _columns(
            metrics, values, has_values, n, "values"
        )
        self.watchers, self.times, self.has_times = _columns(
            watchers, times, has_times, n, "times"
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_samples(cls, samples: Iterable[Sample]) -> "SampleTable":
        """The table of an explicit list of samples."""
        return cls.from_dicts(sample.to_dict() for sample in samples)

    @classmethod
    def from_dicts(cls, samples: Iterable[Mapping[str, Any]]) -> "SampleTable":
        """The table of a list of :meth:`Sample.to_dict` documents."""
        samples = list(samples)
        metrics, values, has_values = _cells([s.get("values", {}) for s in samples])
        watchers, times, has_times = _cells(
            [s.get("watcher_times", {}) for s in samples]
        )
        return cls(
            metrics, watchers,
            [s["index"] for s in samples], [s["t"] for s in samples],
            [s["dt"] for s in samples],
            values, times, has_values, has_times,
        )

    # -- columns ----------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Metric ``name`` per sample, ``0.0`` where a sample lacks it."""
        try:
            j = self.metrics.index(name)
        except ValueError:
            return np.zeros(len(self))
        return self.values[:, j]

    def found(self, name: str) -> list[float]:
        """Metric ``name`` in the samples that have it, in sample order."""
        try:
            j = self.metrics.index(name)
        except ValueError:
            return []
        column = self.values[:, j]
        if self.has_values is not None:
            column = column[self.has_values[:, j]]
        return column.tolist()

    def to_dicts(self) -> list[dict[str, Any]]:
        """One :meth:`Sample.to_dict` document per sample."""
        return [
            {"index": index, "t": t, "dt": dt, "values": values, "watcher_times": times}
            for index, t, dt, values, times in self._rows()
        ]

    def _rows(self) -> Iterator[tuple[int, float, float, dict, dict]]:
        """``(index, t, dt, values, watcher_times)`` per sample, as
        Python objects."""
        return zip(
            self.index.tolist(), self.t.tolist(), self.dt.tolist(),
            _dicts(self.metrics, self.values, self.has_values),
            _dicts(self.watchers, self.times, self.has_times),
        )

    # -- the list it reads like -------------------------------------------------

    def __len__(self) -> int:
        return self.index.size

    def __iter__(self) -> Iterator[Sample]:
        for row in self._rows():
            yield Sample(*row)

    def __getitem__(self, item: Any) -> Any:
        if isinstance(item, slice):
            return SampleTable(
                self.metrics, self.watchers, self.index[item], self.t[item],
                self.dt[item], self.values[item], self.times[item],
                None if self.has_values is None else self.has_values[item],
                None if self.has_times is None else self.has_times[item],
            )
        i = operator.index(item)
        if not -len(self) <= i < len(self):
            raise IndexError("sample index out of range")
        return next(iter(self[i:i + 1 or None]))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SampleTable):
            if self.metrics != other.metrics or self.watchers != other.watchers:
                return list(self) == list(other)
            return all(
                (a is None and b is None)
                or (a is not None and b is not None and np.array_equal(a, b))
                for a, b in zip(self._arrays(), other._arrays())
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def _arrays(self) -> tuple[np.ndarray | None, ...]:
        return (
            self.index, self.t, self.dt, self.values, self.times,
            self.has_values, self.has_times,
        )

    def __repr__(self) -> str:
        return (
            f"<sample table n={len(self)} metrics={len(self.metrics)} "
            f"watchers={len(self.watchers)}>"
        )


def _floats(column: Any, shape: tuple[int, ...], name: str) -> np.ndarray:
    array = np.asarray(column, dtype=np.float64)
    if array.shape != shape:
        raise ValueError(f"sample column {name!r} has shape {array.shape}, not {shape}")
    return array


def _columns(
    names: Iterable[str], values: Any, has: Any, n: int, label: str
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray | None]:
    """Checked ``(names, values, mask)`` in the canonical form: absent
    cells ``0.0``, no column absent everywhere, no mask without an
    absent cell."""
    names = tuple(names)
    shape = (n, len(names))
    values = np.zeros(shape) if values is None else _floats(values, shape, label)
    if has is None:
        return names, values, None
    has = np.asarray(has, dtype=bool)
    if has.shape != shape:
        raise ValueError(f"presence mask of {label!r} has shape {has.shape}, not {shape}")
    if has.all():
        return names, values, None
    keep = has.any(axis=0)
    if not keep.all():
        names = tuple(compress(names, keep.tolist()))
        values, has = values[:, keep], has[:, keep]
    return names, np.where(has, values, 0.0), None if has.all() else has


def _dicts(
    names: tuple[str, ...], values: np.ndarray, has: np.ndarray | None
) -> list[dict[str, float]]:
    """One ``{name: value}`` dict per row, without absent cells."""
    if has is None:
        return [dict(zip(names, row)) for row in values.tolist()]
    return [
        dict(compress(zip(names, row), present))
        for row, present in zip(values.tolist(), has.tolist())
    ]


def _is_level(name: str) -> bool:
    spec = _metrics.REGISTRY.get(name)
    return spec is not None and spec.kind is MetricKind.LEVEL


def _fold(name: str, found: list[float]) -> float:
    """A metric's total over its values in sample order: the maximum for
    level metrics, the left-to-right sum from zero for the rest."""
    if _is_level(name):
        total = float("-inf")
        for value in found:
            total = max(total, value)
    else:
        total = 0.0
        for value in found:
            total = total + value
    return total


#: The documents a profile of a block builds on first access.
_DOCUMENTS = ("machine", "config", "statics", "info")


@dataclass
class Profile:
    """A stored profiling result for one application run.

    ``samples`` is held as a :class:`SampleTable`; a ``list[Sample]``
    handed to the constructor is converted.  A profile the profiler
    made builds its machine, config, statics and info on first access,
    from its :class:`~repro.core.profiler.ProfileBlock`.
    """

    command: str
    tags: tuple[str, ...] = ()
    machine: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    sample_rate: float = 1.0
    samples: SampleTable = field(default_factory=SampleTable)
    #: Static metrics (core count, clock frequency, filesystem name, ...).
    statics: dict[str, Any] = field(default_factory=dict)
    #: Free-form run information (backend, exit code, watcher list, ...).
    info: dict[str, Any] = field(default_factory=dict)
    #: True when a store dropped trailing samples (16 MB document limit).
    truncated: bool = False
    created: float = field(default_factory=lambda: _time.time())

    def __post_init__(self) -> None:
        self.command = normalize_command(self.command)
        self.tags = normalize_tags(self.tags)
        if not isinstance(self.samples, SampleTable):
            self.samples = SampleTable.from_samples(self.samples)

    @classmethod
    def _in_block(cls, block: Any, row: int, **held: Any) -> "Profile":
        """Row ``row`` of ``block``, holding every field but the
        documents (normalised already)."""
        profile = cls.__new__(cls)
        profile.__dict__.update(held, _row=(block, row))
        return profile

    def __getattr__(self, name: str) -> Any:
        """A block's profile builds a document on first access."""
        row = self.__dict__.get("_row")
        if row is None or name not in _DOCUMENTS:
            raise AttributeError(name)
        value = self.__dict__[name] = row[0].document(name, row[1])
        return value

    def __getstate__(self) -> dict[str, Any]:
        """A block's profile pickles (and copies) as the profile it is,
        its documents built, without its block."""
        for name in _DOCUMENTS:
            getattr(self, name)
        return {key: value for key, value in self.__dict__.items() if key != "_row"}

    def unread(self, name: str) -> tuple[Any, int] | None:
        """``(block, row)`` while this row of a block holds document
        ``name`` (or the samples' ``"metrics"`` / ``"watchers"``) only in
        its block — unread and unreplaced — else ``None``."""
        row = self.__dict__.get("_row")
        if row is None or name in self.__dict__:
            return None
        if name in ("metrics", "watchers"):
            return row if getattr(self.samples, name) is row[0].documents[name] else None
        return row

    def _info(self, key: str) -> Any:
        """``info.get(key)`` (not copied) without building the info."""
        row = self.unread("info")
        return self.info.get(key) if row is None else row[0].peek("info", row[1], key)

    @property
    def exit_code(self) -> int:
        """The profiled process's exit code (0 when none was recorded)."""
        return int(self._info("exit_code") or 0)

    def stamp(self, pid: int) -> None:
        """Make this the run of a process started now, as ``pid``."""
        self.created = _time.time()
        self._info("process")["pid"] = pid

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
        return float(sum(self.samples.dt.tolist()))

    def _total(self, name: str) -> float | None:
        """``totals().get(name)`` without totalling every other metric:
        the same statics override, level/cumulative rule and
        left-to-right accumulation, over one metric's values."""
        static = self.statics.get(name)
        if isinstance(static, (int, float)):
            return float(static)
        found = self.samples.found(name)
        return _fold(name, found) if found else None

    def metric_names(self) -> list[str]:
        """All metric names appearing in samples or statics."""
        return sorted(set(self.statics).union(self.samples.metrics))

    def totals(self) -> dict[str, float]:
        """Integrated totals per metric (Table 1 'Tot.' column semantics).

        Cumulative metrics sum their per-sample deltas; level metrics
        report their maximum observed level; statics pass through.
        Unknown metric names default to cumulative semantics.
        """
        sums: dict[str, float] = {}
        maxima: dict[str, float] = {}
        for name in self.samples.metrics:
            (maxima if _is_level(name) else sums)[name] = _fold(
                name, self.samples.found(name)
            )
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
        samples = self.samples
        values = samples.column(name)
        if not _is_level(name):
            # Sequential from zero, as a running ``+=`` adds.
            values = np.cumsum(np.concatenate(([0.0], values)))[1:]
        return TimeSeries(samples.t + samples.dt, values)

    # -- editing -------------------------------------------------------------

    def truncate(self, n_samples: int) -> "Profile":
        """Copy of this profile keeping only the first ``n_samples`` samples.

        The copy is flagged ``truncated`` — this is what the Mongo-like
        store does when a document would exceed its 16 MB limit.
        """
        return Profile(
            command=self.command,
            tags=self.tags,
            machine=dict(self.machine),
            config=dict(self.config),
            sample_rate=self.sample_rate,
            samples=self.samples[:n_samples],
            statics=dict(self.statics),
            info=dict(self.info),
            truncated=True,
            created=self.created,
        )

    # -- serialisation ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialise the full profile to a JSON-compatible dict."""
        return {
            "command": self.command,
            "tags": list(self.tags),
            "machine": dict(self.machine),
            "config": dict(self.config),
            "sample_rate": self.sample_rate,
            "samples": self.samples.to_dicts(),
            "statics": dict(self.statics),
            "info": dict(self.info),
            "truncated": self.truncated,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Profile":
        """Inverse of :meth:`to_dict` (whose ``samples`` may also be a
        :class:`SampleTable` already, as a store's decoded record is)."""
        samples = data.get("samples", [])
        return cls(
            command=data["command"],
            tags=tuple(data.get("tags", ())),
            machine=dict(data.get("machine", {})),
            config=dict(data.get("config", {})),
            sample_rate=float(data.get("sample_rate", 1.0)),
            samples=(
                samples if isinstance(samples, SampleTable)
                else SampleTable.from_dicts(samples)
            ),
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
    ) -> SampleTable:
        """Combine per-watcher time series into the unified sample table.

        This is the post-processing step of §4.1: the individual watcher
        series (with drifting timestamps) are aligned onto the profiler's
        nominal grid.  ``grid`` yields ``(t, dt)`` interval descriptors;
        cumulative series are differenced across interval boundaries and
        level series are sampled at interval ends.

        The merge is columnar: every series is evaluated over the whole
        grid in one shot (:meth:`TimeSeries.values_at`) and cumulative
        columns are differenced as arrays, straight into the table's
        values.  Results are bit-identical to the scalar merge (the test
        suite pins the equivalence against a scalar reference
        implementation): the array difference subtracts exactly the
        float64 values the scalar loop tracked in ``prev_cum``, and
        counters of a freshly spawned process start at zero — seeding
        from the first *observation* instead would swallow everything
        before the first watcher sample (the spawn-to-first-sample offset
        the paper corrects with ``time -v``).  A watcher's stamps beyond
        its last one are absent.
        """
        intervals = list(grid)
        n = len(intervals)
        starts = np.array([t for t, _ in intervals], dtype=np.float64)
        dts = np.array([dt for _, dt in intervals], dtype=np.float64)
        ends = starts + dts
        # Cumulative names first, then levels (a name in both keeps its
        # first position and the level's value, as dict updates do).
        names: list[str] = []
        columns: list[np.ndarray] = []
        for name, series in cumulative.items():
            values = series.values_at(ends)
            deltas = values.copy()
            np.subtract(values[1:], values[:-1], out=deltas[1:])
            names.append(name)
            columns.append(deltas)
        for name, series in levels.items():
            names.append(name)
            columns.append(series.values_at(ends))
        values = np.stack(columns, axis=1) if columns else np.empty((n, 0))
        names, values = _unique(names, values)
        stamps = {name: list(each)[:n] for name, each in (watcher_times or {}).items()}
        times = np.zeros((n, len(stamps)))
        has_times = np.zeros((n, len(stamps)), dtype=bool)
        for j, each in enumerate(stamps.values()):
            times[: len(each), j] = each
            has_times[: len(each), j] = True
        return SampleTable(
            names, stamps, np.arange(n), starts, dts, values, times,
            has_times=has_times,
        )

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
    ) -> list[tuple[SampleTable, float]]:
        """:meth:`merge_watcher_series` for a block of rows sampled on
        one grid: per row, its sample table and its first sample offset.

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
        differenced as one ``(rows, samples, metrics)`` array; each row's
        table holds a slice of it.  ``watchers`` are the watchers that
        stamped the samples: every one of them stamped a sample at that
        sample's column timestamp, and a row never sampled has no
        metrics.
        """
        rows = len(counts)
        width = int(n_samples.max())
        names = [*cumulative, *levels]
        starts = np.array([t for t, _ in grid[:width]], dtype=np.float64)
        dts = np.array([dt for _, dt in grid[:width]], dtype=np.float64)
        index = np.arange(width)
        values = np.empty((rows, width, 0))
        if names:
            at = index + ((index == (counts - drain)[:, None] - 1) & bool(drain))
            stacked = np.array(
                [series.values for series in (*cumulative.values(), *levels.values())]
            )[:, np.arange(rows)[:, None], at]
            table = stacked.copy()
            accrued = len(cumulative)
            np.subtract(
                stacked[:accrued, :, 1:], stacked[:accrued, :, :-1],
                out=table[:accrued, :, 1:],
            )
            names, values = _unique(
                names, np.ascontiguousarray(table.transpose(1, 2, 0))
            )
        names, watchers = tuple(names), tuple(watchers)
        # Every watcher's stamp of a sample is its column's timestamp.
        stamps = np.zeros((rows, width, len(watchers)))
        stamped = min(width, times.shape[1])
        stamps[:, :stamped] = times[:, :stamped, None]
        firsts = times[:, 0].tolist() if times.shape[1] else [0.0] * rows
        merged = []
        for row, (n, count) in enumerate(zip(n_samples.tolist(), counts.tolist())):
            if not count:  # never sampled: no metrics, no stamps
                samples = SampleTable((), (), index[:n], starts[:n], dts[:n])
            else:
                samples = SampleTable(
                    names, watchers, index[:n], starts[:n], dts[:n], values[row, :n],
                    stamps[row, :n],
                    has_times=(
                        np.repeat((index[:n] < count)[:, None], len(watchers), axis=1)
                        if n > count else None
                    ),
                )
            merged.append((samples, firsts[row] if count and watchers else 0.0))
        return merged
