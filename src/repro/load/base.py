"""Artificial load generators (§4.3: "similar to the Linux utility
'stress'").

Synapse "is able to force an artificial CPU, disk and memory load onto
the system while emulating an application, thus emulating the application
execution in a stressed environment".  Loads are context managers: they
start background activity on entry and stop it cleanly on exit.  On the
simulation plane, artificial load is expressed as extra streams in the
emulation workload instead (see :meth:`EmulationPlan.build_packed_workload`).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod

__all__ = ["LoadGenerator"]


class LoadGenerator(ABC):
    """Background host-plane load with start/stop lifecycle."""

    def __init__(self) -> None:
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    @abstractmethod
    def _workers(self) -> list[threading.Thread]:
        """Create (not start) the worker threads of this load."""

    def start(self) -> None:
        """Begin generating load (idempotent)."""
        if self._threads:
            return
        self._stop.clear()
        self._threads = self._workers()
        for thread in self._threads:
            thread.daemon = True
            thread.start()

    def stop(self) -> None:
        """Stop all load workers and wait for them."""
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads = []

    @property
    def running(self) -> bool:
        """Whether any worker is active."""
        return any(thread.is_alive() for thread in self._threads)

    def __enter__(self) -> "LoadGenerator":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
