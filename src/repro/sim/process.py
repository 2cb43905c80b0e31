"""Virtual process handles over engine execution records."""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.backend import ProcessHandle
from repro.sim.clock import VirtualClock
from repro.sim.engine import ExecutionRecord, rows_run

__all__ = ["SimProcess", "SimProcessBlock"]


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
        self.pid = SimProcess.next_pid()

    @staticmethod
    def next_pid() -> int:
        """The pid of the next process to start."""
        SimProcess._next_pid += 1
        return SimProcess._next_pid

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

    @staticmethod
    def blocks(
        handles: Sequence[ProcessHandle],
    ) -> list[tuple[list[int], "SimProcessBlock"]] | None:
        """The handles as :class:`SimProcessBlock`s — per block, which
        of the handles it holds — or ``None`` when they are not all sim
        processes.  Processes share a block when they share a clock, a
        start time and the fold their records come from."""
        groups: dict[tuple, list[int]] = {}
        for index, handle in enumerate(handles):
            if type(handle) is not SimProcess:
                return None
            fold = handle.record.block
            key = (
                id(handle.clock), handle.start_time,
                id(fold if fold is not None else handle.record),
            )
            groups.setdefault(key, []).append(index)
        blocks = []
        for indices in groups.values():
            indices.sort(key=lambda i: handles[i].record.row)
            blocks.append((indices, SimProcessBlock([handles[i] for i in indices])))
        return blocks

    def rusage(self) -> dict[str, float]:
        # The two of ``record.totals()`` that are read here.
        cpu_seconds = (
            self.record.total("cpu.cycles_used") / self.record.machine.cpu.frequency
        )
        return {
            "time.runtime": self.record.duration,
            "time.utime": cpu_seconds,
            "time.stime": 0.02 * cpu_seconds,
            "mem.peak": self.record.total("mem.peak"),
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


class SimProcessBlock:
    """Concurrent sim processes of one fold, as one handle whose answers
    carry a leading row axis: what a block of rows is to the profiler's
    grid pass and its watchers (``rusage()`` yields one array per
    total, ``counters_many`` one ``(rows, samples)`` array per metric).
    """

    def __init__(self, processes: Sequence[SimProcess]) -> None:
        self.processes = list(processes)
        first = self.processes[0]
        self.clock = first.clock
        self.start_time = first.start_time
        self._fold, _ = first.record.tables()
        #: Their rows of the fold, ascending (see :meth:`SimProcess.blocks`).
        self._run = rows_run([process.record.row for process in self.processes])
        self._durations = self._fold.durations[self._run]

    def __len__(self) -> int:
        return len(self.processes)

    @property
    def end_times(self) -> np.ndarray:
        """Virtual time at which each process exits."""
        return self.start_time + self._durations

    def wait(self) -> list[int]:
        for process in self.processes:
            process.wait()
        return [process.exit_code for process in self.processes]

    def counters_many(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Counters of every process at many *relative* sample times, one
        ``(rows, samples)`` array per metric: entry ``[r, i]`` is what
        process *r*'s :meth:`SimProcess.counters` reports with the clock
        at ``start_time + ts[r, i]``."""
        rel = np.minimum(np.maximum(ts, 0.0), self._durations[:, None])
        return self._fold.counters_many(self._run, rel)

    def rusage(self) -> dict[str, Any]:
        """:meth:`SimProcess.rusage`, one array per total."""
        freq = self.processes[0].record.machine.cpu.frequency
        cpu_seconds = self._fold.total("cpu.cycles_used", self._run) / freq
        return {
            "time.runtime": self._durations,
            "time.utime": cpu_seconds,
            "time.stime": 0.02 * cpu_seconds,
            "mem.peak": self._fold.total("mem.peak", self._run),
        }

    def info(self) -> list[dict[str, Any]]:
        return [process.info() for process in self.processes]
