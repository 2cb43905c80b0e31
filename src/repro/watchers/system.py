"""System watcher: static machine facts plus system load levels.

Table 1's "System" rows: number of cores, max CPU frequency and total
memory are recorded once (they come from the backend's machine info);
the CPU load level is sampled when the plane exposes it.
"""

from __future__ import annotations

from repro.watchers.base import WatcherBase, rowwise

__all__ = ["SystemWatcher"]


class SystemWatcher(WatcherBase):
    """Records static system information and samples system load."""

    name = "system"
    level_metrics = ("sys.load_cpu",)

    @rowwise
    def pre_process(self, config) -> None:
        info = self.context.machine_info
        statics = self.result.statics
        if "cores" in info:
            statics["sys.cores"] = info["cores"]
        if "frequency" in info:
            statics["sys.cpu_freq"] = info["frequency"]
        if "memory" in info:
            statics["sys.memory"] = info["memory"]
        self.result.info["machine"] = dict(info)
