"""Virtual process handles over engine execution records."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.backend import ProcessHandle
from repro.sim.clock import VirtualClock
from repro.sim.engine import ExecutionRecord

__all__ = ["SimProcess"]


class SimProcess(ProcessHandle):
    """A finished-in-the-future process: its history is precomputed.

    The engine executes the whole workload eagerly; the handle then
    answers liveness and counter queries *as a function of the virtual
    clock*, so a profiler sampling it experiences exactly what it would
    experience watching a live process.
    """

    _next_pid = 1000

    def __init__(
        self,
        record: ExecutionRecord,
        clock: VirtualClock,
        start_time: float,
        exit_code: int = 0,
    ) -> None:
        self.record = record
        self.clock = clock
        self.start_time = start_time
        self.exit_code = exit_code
        SimProcess._next_pid += 1
        self.pid = SimProcess._next_pid

    # -- ProcessHandle ---------------------------------------------------------

    def alive(self) -> bool:
        return self.clock.now() < self.end_time

    def wait(self) -> int:
        self.clock.advance_to(self.end_time)
        return self.exit_code

    def counters(self) -> dict[str, float]:
        rel = self.clock.now() - self.start_time
        rel = min(max(rel, 0.0), self.record.duration)
        return self.record.counters_at(rel)

    def counters_many(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Counters at many *relative* sample times, one array per metric.

        This is the profiler's sim-plane fast path: instead of stepping
        the virtual clock per sample and interpolating every series per
        step, the whole sampling grid is evaluated in one vectorised
        pass per series.  Entry ``i`` of each returned array equals what
        :meth:`counters` would report with the clock at
        ``start_time + ts[i]``.
        """
        rel = np.minimum(
            np.maximum(np.asarray(ts, dtype=float), 0.0), self.record.duration
        )
        return self.record.counters_many(rel)

    def rusage(self) -> dict[str, float]:
        # The two of ``record.totals()`` that are read here.
        cycles = self.record.counters.get("cpu.cycles_used")
        peak = self.record.levels.get("mem.peak")
        freq = self.record.machine.cpu.frequency
        cpu_seconds = (cycles.last() if cycles else 0.0) / freq
        return {
            "time.runtime": self.record.duration,
            "time.utime": cpu_seconds,
            "time.stime": 0.02 * cpu_seconds,
            "mem.peak": peak.max() if peak is not None else 0.0,
        }

    def info(self) -> dict[str, Any]:
        return {
            "pid": self.pid,
            "machine": self.record.machine.name,
            "start_time": self.start_time,
            "metadata": dict(self.record.metadata),
        }

    # -- sim-specific ------------------------------------------------------------

    @property
    def end_time(self) -> float:
        """Virtual time at which the process exits."""
        return self.start_time + self.record.duration

    @property
    def duration(self) -> float:
        """Tx of the virtual process."""
        return self.record.duration
