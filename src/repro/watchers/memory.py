"""Memory watcher: resident set, peak, allocation counters (§4.1).

Resident and peak sizes come from ``/proc/<pid>/status`` (host) or the
engine's RSS level timeline (sim); allocation/free byte counters are
exact on the simulation plane and unavailable on the host plane (the
original Synapse derives them — Table 1 marks them "derived").  When
only RSS levels are available, :meth:`finalize` derives allocation and
free totals from the RSS trajectory: positive increments count as
allocations, negative as frees.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.watchers.base import WatcherBase, WatcherResult, rowwise

__all__ = ["MemoryWatcher"]


class MemoryWatcher(WatcherBase):
    """Samples RSS/peak levels and allocated/freed byte counters."""

    name = "memory"
    cumulative_metrics = ("mem.allocated", "mem.freed")
    level_metrics = ("mem.rss", "mem.peak")

    @rowwise
    def finalize(self, all_results: Mapping[str, WatcherResult]) -> WatcherResult:
        result = self.result
        rss = result.levels.get("mem.rss")
        if (
            rss is not None
            and "mem.allocated" not in result.cumulative
            and rss.values.shape[-1] > 0
        ):
            levels = rss.values
            deltas = np.diff(levels, axis=-1)
            allocated = np.concatenate(
                [levels[..., :1], np.where(deltas > 0, deltas, 0.0)], axis=-1
            )
            freed = np.concatenate(
                [np.zeros_like(levels[..., :1]), np.where(deltas < 0, -deltas, 0.0)],
                axis=-1,
            )
            result.cumulative["mem.allocated"] = rss.with_values(
                np.cumsum(allocated, axis=-1)
            )
            result.cumulative["mem.freed"] = rss.with_values(
                np.cumsum(freed, axis=-1)
            )
            result.info["mem.alloc_provider"] = "derived-from-rss"
        return result
