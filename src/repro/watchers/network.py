"""Experimental network watcher.

Table 1 marks network *profiling* as planned work ("network interactions
... are not yet meaningfully profiled"), and §6 names it the most
significant future improvement.  Like the blktrace plugin, this watcher
ships as an **experimental, off-by-default** plugin: it records byte
counters when the execution plane exposes them (the simulation plane
does; the host plane has no per-process socket byte counters without
tracing, so it degrades to recording nothing — exactly the current state
of the original tool).

Enable explicitly::

    SynapseConfig(watchers=(*DEFAULT_WATCHERS, "network"))
"""

from __future__ import annotations

from typing import Mapping

from repro.watchers.base import WatcherBase, WatcherResult, rowwise

__all__ = ["NetworkWatcher"]


class NetworkWatcher(WatcherBase):
    """Samples network byte counters where the plane provides them."""

    name = "network"
    cumulative_metrics = ("net.bytes_read", "net.bytes_written")

    @rowwise
    def finalize(self, all_results: Mapping[str, WatcherResult]) -> WatcherResult:
        if not self.result.cumulative:
            self.result.info["network"] = (
                "no per-process network counters on this plane (Table 1: planned)"
            )
        return self.result
