"""Process-wide metrics: counters, gauges and latency histograms.

Unlike the event bus — which is dark until a sink is attached — the
metrics registry is always on: a counter bump or histogram observation
is a couple of dict operations, cheap enough for the store and service
hot paths, and the accumulated aggregates (per-request p50/p99 latency,
pool utilization) are readable through :meth:`MetricsRegistry.snapshot`
without any sink plumbing.

Histograms keep exact ``count``/``sum``/``min``/``max`` plus a bounded
reservoir of the most recent observations for percentile estimates —
memory-bounded no matter how many requests a long campaign pushes
through.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator

__all__ = [
    "HistogramStat",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "timed",
]

#: Recent observations kept per histogram for percentile estimates.
RESERVOIR_SIZE = 4096


@dataclass(frozen=True)
class HistogramStat:
    """Aggregate view of one histogram at snapshot time."""

    count: int
    sum: float
    min: float
    max: float
    #: Most recent observations (up to :data:`RESERVOIR_SIZE`).
    recent: tuple[float, ...]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir (``q`` in 0..100)."""
        if not self.recent:
            return 0.0
        ordered = sorted(self.recent)
        rank = max(0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms."""

    def __init__(self, reservoir: int = RESERVOIR_SIZE) -> None:
        self._reservoir = reservoir
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        # name -> [count, sum, min, max, deque(recent)]
        self._hists: dict[str, list[Any]] = {}

    # -- writes -------------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest value."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        value = float(value)
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = [1, value, value, value,
                                     deque([value], maxlen=self._reservoir)]
                return
            hist[0] += 1
            hist[1] += value
            if value < hist[2]:
                hist[2] = value
            if value > hist[3]:
                hist[3] = value
            hist[4].append(value)

    # -- reads --------------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> HistogramStat | None:
        with self._lock:
            hist = self._hists.get(name)
            if hist is None:
                return None
            return HistogramStat(hist[0], hist[1], hist[2], hist[3], tuple(hist[4]))

    def names(self) -> dict[str, list[str]]:
        """Registered metric names by family."""
        with self._lock:
            return {
                "counters": sorted(self._counters),
                "gauges": sorted(self._gauges),
                "histograms": sorted(self._hists),
            }

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready dump of every metric's current aggregate."""
        with self._lock:
            hists = {
                name: HistogramStat(h[0], h[1], h[2], h[3], tuple(h[4]))
                for name, h in self._hists.items()
            }
            counters = dict(self._counters)
            gauges = dict(self._gauges)
        return {
            "counters": {name: counters[name] for name in sorted(counters)},
            "gauges": {name: gauges[name] for name in sorted(gauges)},
            "histograms": {
                name: hists[name].to_dict() for name in sorted(hists)
            },
        }

    def reset(self) -> None:
        """Drop every metric (tests, benchmark phase boundaries)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return _registry


def reset_registry() -> None:
    """Clear the process-wide registry (tests, benchmarks)."""
    _registry.reset()


@contextmanager
def timed(name: str) -> Iterator[None]:
    """Observe the block's wall-clock seconds into histogram ``name``.

    The storage plane's one-liner instrumentation:
    ``with timed("store.put.seconds"): ...``.
    """
    t0 = perf_counter()
    try:
        yield
    finally:
        _registry.observe(name, perf_counter() - t0)
