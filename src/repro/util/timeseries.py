"""A small time-series container used by watchers and the sim engine.

A :class:`TimeSeries` is a monotone sequence of ``(t, value)`` points for a
*cumulative* counter (bytes written so far, cycles used so far, ...).  The
profiler stores one per watcher metric; the simulation engine produces one
per virtual counter.  Operations follow the paper's post-processing needs:
differencing into per-sample deltas, resampling to the profiler grid, and
integration of rate-like series.

The container is built for the simulation plane's batched hot paths:

* construction passes NumPy arrays straight through (no ``list()``
  round-trips), so the engine can hand over freshly computed arrays
  without copies — the container treats its arrays as frozen and callers
  must not mutate them afterwards;
* :meth:`append` grows an internal buffer with amortised capacity
  doubling instead of reallocating per point (``np.append`` is O(n) per
  call, O(n²) for a sampling loop);
* the value range used by :meth:`value_at`/:meth:`values_at` clamping is
  computed once and cached, so grid sampling does not rescan the series
  per sample point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["TimeSeries", "SeriesRows"]


def _as_floats(data: object) -> np.ndarray:
    """Coerce arrays / sequences / iterables to a float64 array.

    Arrays pass through without copying (dtype permitting); generators
    and other one-shot iterables are materialised exactly once.
    """
    if isinstance(data, np.ndarray):
        return data if data.dtype == np.float64 else data.astype(float)
    if isinstance(data, (list, tuple)):
        return np.asarray(data, dtype=float)
    if isinstance(data, Sequence):  # range, array.array, ...
        return np.asarray(data, dtype=float)
    return np.fromiter(data, dtype=float)


class TimeSeries:
    """Piecewise-linear cumulative counter samples.

    Parameters
    ----------
    times:
        Non-decreasing sample timestamps (seconds).
    values:
        Counter values at those timestamps.  For cumulative counters these
        should be non-decreasing, but the container does not enforce it
        (RSS, for instance, can shrink).
    """

    __slots__ = ("_times", "_values", "_n", "_vmin", "_vmax")

    def __init__(self, times: object = (), values: object = ()) -> None:
        t = _as_floats(times)
        v = _as_floats(values)
        if t.shape != v.shape:
            raise ValueError("times and values must have the same length")
        if t.size and np.any(np.diff(t) < 0):
            raise ValueError("timestamps must be non-decreasing")
        self._times = t
        self._values = v
        self._n = int(t.size)
        self._vmin: float | None = None
        self._vmax: float | None = None

    @classmethod
    def presorted(
        cls, times: object, values: object, monotone: bool = False
    ) -> "TimeSeries":
        """Wrap arrays the caller guarantees aligned and time-sorted.

        The engine's hot paths build breakpoint grids that are sorted by
        construction; this constructor skips the O(n) monotonicity scan
        that :meth:`__init__` runs.  Passing unsorted times is a caller
        bug and breaks interpolation silently — use ``__init__`` unless
        the ordering is structural.

        ``monotone`` additionally promises non-decreasing *values* (a
        cumulative counter out of a running maximum): the clamp range
        is then the first and last value, and is never reduced for.
        """
        series = cls.__new__(cls)
        t = _as_floats(times)
        v = _as_floats(values)
        if t.shape != v.shape:
            raise ValueError("times and values must have the same length")
        series._times = t
        series._values = v
        series._n = int(t.size)
        if monotone and t.size:
            series._vmin = float(v[0])
            series._vmax = float(v[-1])
        else:
            series._vmin = None
            series._vmax = None
        return series

    # -- storage -----------------------------------------------------------

    @property
    def times(self) -> np.ndarray:
        """Timestamps as an array (a view of the internal buffer)."""
        t = self._times
        return t if t.size == self._n else t[: self._n]

    @property
    def values(self) -> np.ndarray:
        """Values as an array (a view of the internal buffer)."""
        v = self._values
        return v if v.size == self._n else v[: self._n]

    def _value_range(self) -> tuple[float, float]:
        """Cached ``(min, max)`` of the values (clamp bounds)."""
        if self._vmin is None:
            values = self.values
            self._vmin = float(values.min())
            self._vmax = float(values.max())
        return self._vmin, self._vmax  # type: ignore[return-value]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[tuple[float, float]]) -> "TimeSeries":
        """Build a series from ``(t, value)`` pairs."""
        if not points:
            return cls()
        times, values = zip(*points)
        return cls(times, values)

    def append(self, t: float, value: float) -> None:
        """Append one point; ``t`` must not precede the last timestamp.

        Appending amortises to O(1): the internal buffers double in
        capacity when full, so sampling loops do not pay a reallocation
        per point.
        """
        n = self._n
        if n and t < self._times[n - 1]:
            raise ValueError("appended timestamp precedes the series end")
        if n >= self._times.size:
            capacity = max(8, 2 * self._times.size)
            grown_t = np.empty(capacity)
            grown_v = np.empty(capacity)
            grown_t[:n] = self._times[:n]
            grown_v[:n] = self._values[:n]
            self._times = grown_t
            self._values = grown_v
        self._times[n] = float(t)
        self._values[n] = float(value)
        self._n = n + 1
        if self._vmin is not None:
            self._vmin = min(self._vmin, float(value))
            self._vmax = max(self._vmax, float(value))  # type: ignore[arg-type]

    # -- pickling (records cross process boundaries in spawn_many) ---------

    def __getstate__(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array(self.times), np.array(self.values))

    def __setstate__(self, state: tuple[np.ndarray, np.ndarray]) -> None:
        times, values = state
        self._times = times
        self._values = values
        self._n = int(times.size)
        self._vmin = None
        self._vmax = None

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeSeries(n={len(self)}, span={self.span():.3f}s)"

    def span(self) -> float:
        """Wall-clock extent covered by the series (0 for <2 points)."""
        if self._n < 2:
            return 0.0
        times = self.times
        return float(times[-1] - times[0])

    def first(self) -> float:
        """First value (raises ``IndexError`` when empty)."""
        return float(self.values[0])

    def last(self) -> float:
        """Last value (raises ``IndexError`` when empty)."""
        return float(self.values[-1])

    def total(self) -> float:
        """Net growth of the counter over the series (last - first)."""
        if self._n == 0:
            return 0.0
        values = self.values
        return float(values[-1] - values[0])

    def max(self) -> float:
        """Maximum observed value (0.0 when empty)."""
        if self._n == 0:
            return 0.0
        return self._value_range()[1]

    # -- transformations ----------------------------------------------------

    def value_at(self, t: float) -> float:
        """Linearly interpolated counter value at time ``t``.

        Values are clamped to the first/last observation outside the
        covered range, matching how a cumulative counter behaves before
        process start (first reading) and after exit (final reading).
        Results are additionally clipped into the observed value range:
        true linear interpolation can never leave it, but degenerate
        (near-duplicate) timestamps would otherwise overflow the slope.
        """
        if self._n == 0:
            return 0.0
        value = float(np.interp(t, self.times, self.values))
        lo, hi = self._value_range()
        return float(min(max(value, lo), hi))

    def values_at(self, ts: object) -> np.ndarray:
        """Vectorised :meth:`value_at` over a whole sample grid.

        ``ts`` may be an array (used as-is, no copy), a sequence, or a
        one-shot iterable (consumed exactly once).
        """
        grid = _as_floats(ts)
        if self._n == 0:
            return np.zeros(grid.shape)
        out = np.interp(grid, self.times, self.values)
        lo, hi = self._value_range()
        return np.minimum(np.maximum(out, lo), hi)

    def deltas(self) -> np.ndarray:
        """Per-interval increments between consecutive samples."""
        if self._n < 2:
            return np.zeros(0)
        return np.diff(self.values)

    def resample(self, grid: object) -> "TimeSeries":
        """Interpolate the series onto a new timestamp grid."""
        grid = _as_floats(grid)
        return TimeSeries(grid, self.values_at(grid))

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """A series of other values at this one's timestamps."""
        return TimeSeries.presorted(self.times, values)

    @property
    def final(self) -> np.ndarray:
        """Mask of the last sample (see :attr:`SeriesRows.final`)."""
        return np.arange(self._n) == self._n - 1

    def shifted(self, dt: float) -> "TimeSeries":
        """Return a copy with all timestamps shifted by ``dt``."""
        return TimeSeries(self.times + dt, np.array(self.values))

    def integrate(self) -> float:
        """Trapezoidal integral of the series, for rate-like values."""
        if self._n < 2:
            return 0.0
        return float(np.trapezoid(self.values, self.times))

    def to_points(self) -> list[tuple[float, float]]:
        """Serialise to a plain list of ``(t, value)`` pairs."""
        return [(float(t), float(v)) for t, v in zip(self.times, self.values)]


class SeriesRows:
    """One metric of a block of rows that were sampled together.

    ``times`` and ``values`` are ``(rows, samples)`` tables; row *r*'s
    own samples are its first ``counts[r]`` columns and the columns
    after them repeat its last one.  It answers to what code written
    along the last axis needs of a :class:`TimeSeries` — ``times``,
    ``values``, :meth:`with_values`, :attr:`final` — so such code serves
    a lone process and a block alike; :meth:`row` cuts one row's
    ``TimeSeries`` out for whoever needs the full container.
    """

    __slots__ = ("times", "values", "counts")

    def __init__(self, times: np.ndarray, values: np.ndarray, counts: np.ndarray) -> None:
        self.times = times
        self.values = values
        self.counts = counts

    def with_values(self, values: np.ndarray) -> "SeriesRows":
        """The same rows and timestamps with other values."""
        return SeriesRows(self.times, values, self.counts)

    @property
    def final(self) -> np.ndarray:
        """Mask of each row's last sample and its repeats."""
        return np.arange(self.values.shape[-1]) >= self.counts[:, None] - 1

    def row(self, index: int) -> TimeSeries:
        """Row ``index`` as a series of its own samples."""
        count = self.counts[index]
        return TimeSeries.presorted(
            self.times[index, :count], self.values[index, :count]
        )
