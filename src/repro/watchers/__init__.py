"""Watcher plugins: the profiling half of Synapse's architecture (Fig 1)."""

from repro.watchers.base import (
    PerRow,
    WatcherBase,
    WatcherContext,
    WatcherResult,
    per_row,
    rowwise,
)
from repro.watchers.blktrace import BlktraceWatcher
from repro.watchers.cpu import CPUWatcher
from repro.watchers.memory import MemoryWatcher
from repro.watchers.registry import get_watcher, list_watchers, register
from repro.watchers.rusage import RusageWatcher
from repro.watchers.storage import StorageWatcher
from repro.watchers.system import SystemWatcher

__all__ = [
    "BlktraceWatcher",
    "CPUWatcher",
    "MemoryWatcher",
    "PerRow",
    "RusageWatcher",
    "StorageWatcher",
    "SystemWatcher",
    "WatcherBase",
    "WatcherContext",
    "WatcherResult",
    "get_watcher",
    "list_watchers",
    "per_row",
    "register",
    "rowwise",
]
