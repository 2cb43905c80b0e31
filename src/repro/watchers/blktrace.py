"""Experimental block-size watcher (the paper's ``blktrace`` prototype).

§4.2/§6: "The Synapse profiler features an experimental watcher plugin
that can, in principle, infer block sizes of disk I/O operations using
blktrace."  This reproduction's prototype works on the simulation plane,
where the engine records every I/O event: on finalisation it computes
byte-weighted mean block sizes per operation and a block-size histogram.
On the host plane (no blktrace available) it records nothing — exactly
the degraded behaviour of an experimental plugin.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping

from repro.util.timeseries import TimeSeries
from repro.watchers.base import PerRow, WatcherBase, WatcherResult, rowwise

__all__ = ["BlktraceWatcher"]


class BlktraceWatcher(WatcherBase):
    """Infers I/O block sizes from the sim engine's I/O event stream."""

    name = "blktrace"

    @rowwise
    def finalize(self, all_results: Mapping[str, WatcherResult]) -> WatcherResult:
        processes = getattr(self.handle, "processes", None)
        if processes is None:
            parts = self._traced(self.handle)
        else:
            # A block of rows: each key of each row's findings, per row.
            traced = [self._traced(process) for process in processes]
            parts = [
                {
                    key: PerRow(row[part].get(key) for row in traced)
                    for key in dict.fromkeys(k for row in traced for k in row[part])
                }
                for part in range(3)
            ]
        for found, kept in zip(
            parts, (self.result.levels, self.result.statics, self.result.info)
        ):
            kept.update(found)
        return self.result

    @staticmethod
    def _traced(handle: Any) -> tuple[dict, dict, dict]:
        """The levels, statics and info one process's I/O events yield."""
        levels: dict[str, TimeSeries] = {}
        statics: dict[str, float] = {}
        record = getattr(handle, "record", None)
        events = getattr(record, "io_events", None)
        if not events:
            return levels, statics, {"blktrace": "no block-level data (host plane)"}
        histogram: dict[str, Counter] = {"read": Counter(), "write": Counter()}
        series: dict[str, list[tuple[float, float]]] = {"read": [], "write": []}
        for event in events:
            histogram[event.op][event.block_size] += event.nbytes
            series[event.op].append((event.t, float(event.block_size)))
        for op, metric in (("read", "io.block_size_read"), ("write", "io.block_size_write")):
            if series[op]:
                points = sorted(series[op])
                levels[metric] = TimeSeries.from_points(points)
                total = sum(histogram[op].values())
                mean = sum(bs * b for bs, b in histogram[op].items()) / total
                statics[f"{metric}_mean"] = mean
        return levels, statics, {"blktrace_histogram": {
            op: {str(bs): count for bs, count in hist.items()}
            for op, hist in histogram.items()
        }}
