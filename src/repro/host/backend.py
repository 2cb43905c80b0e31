"""The host (real-machine) execution backend.

Profiles real processes on this Linux machine, exactly like the original
Synapse: the target is spawned (shell command via ``subprocess``, Python
callable via ``multiprocessing`` — the paper's ``profile(command)``
accepts both), its pid is handed to the watchers, and counters come from
``/proc``.  Hardware-counter metrics (cycles, instructions) use a
model-based provider anchored at the host's nominal frequency, replacing
``perf stat``, which needs perf-events permissions.
"""

from __future__ import annotations

import multiprocessing
import shlex
import subprocess
import threading
import time
from typing import Any, Callable

from repro.core.backend import ExecutionBackend, ProcessHandle
from repro.core.errors import BackendError
from repro.host import hostinfo, procfs

__all__ = ["HostBackend", "HostProcess"]

#: Assumed sustained IPC of unknown host applications.  ``perf stat``
#: would measure this; without it the instruction counts are cycle counts
#: scaled by a constant — consistent, comparable, but not per-app exact.
MODEL_IPC = 1.8
#: Poll interval while waiting for process exit.
_WAIT_POLL = 0.005


class HostProcess(ProcessHandle):
    """Handle over one real child process, observed through ``/proc``."""

    def __init__(
        self,
        pid: int,
        reap: Callable[[], int | None],
        frequency: float,
        start_time: float,
    ) -> None:
        self.pid = pid
        self._reap = reap
        self._frequency = frequency
        self._start_time = start_time
        self._end_time: float | None = None
        self._exit_code: int | None = None
        # Watcher plugins sample from their own threads (§4.1); the
        # snapshot cache must not be mutated concurrently.
        self._lock = threading.Lock()
        self._last: dict[str, float] = {
            "time.utime": 0.0,
            "time.stime": 0.0,
            "cpu.cycles_used": 0.0,
            "cpu.instructions": 0.0,
            "cpu.threads": 1.0,
            "mem.rss": 0.0,
            "mem.peak": 0.0,
        }
        self.counters()  # prime the first snapshot

    # -- sampling ---------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Snapshot of `/proc` counters (last good values after exit)."""
        with self._lock:
            return self._read_counters()

    def _read_counters(self) -> dict[str, float]:
        stat = procfs.read_stat(self.pid)
        if stat is not None:
            cpu_seconds = stat.utime + stat.stime
            self._last["time.utime"] = stat.utime
            self._last["time.stime"] = stat.stime
            self._last["cpu.cycles_used"] = cpu_seconds * self._frequency
            self._last["cpu.instructions"] = self._last["cpu.cycles_used"] * MODEL_IPC
            self._last["cpu.threads"] = float(stat.num_threads)
        status = procfs.read_status(self.pid)
        if status is not None:
            self._last["mem.rss"] = float(status.vm_rss)
            # Some kernels/sandboxes omit VmHWM; keep a running maximum of
            # the sampled RSS as the peak fallback.
            self._last["mem.peak"] = max(
                self._last.get("mem.peak", 0.0),
                float(status.vm_peak),
                float(status.vm_rss),
            )
        io = procfs.read_io(self.pid)
        if io is not None:
            self._last["io.bytes_read"] = float(io.read_bytes)
            self._last["io.bytes_written"] = float(io.write_bytes)
        self._last["time.runtime"] = (
            (self._end_time or time.monotonic()) - self._start_time
        )
        return dict(self._last)

    # -- lifecycle ------------------------------------------------------------

    def alive(self) -> bool:
        if self._exit_code is not None:
            return False
        code = self._reap()
        if code is None:
            self.counters()
            return True
        self._finish(code)
        return False

    def wait(self) -> int:
        while self._exit_code is None:
            code = self._reap()
            if code is not None:
                self._finish(code)
                break
            self.counters()
            time.sleep(_WAIT_POLL)
        return self._exit_code if self._exit_code is not None else -1

    def _finish(self, code: int) -> None:
        if self._end_time is None:
            self._end_time = time.monotonic()
        self._exit_code = code
        self._last["time.runtime"] = self._end_time - self._start_time

    def rusage(self) -> dict[str, float]:
        """Final totals, the ``time -v`` analogue (§4.1)."""
        return {
            "time.runtime": self._last.get("time.runtime", 0.0),
            "time.utime": self._last.get("time.utime", 0.0),
            "time.stime": self._last.get("time.stime", 0.0),
            "mem.peak": self._last.get("mem.peak", 0.0),
        }

    def info(self) -> dict[str, Any]:
        return {"pid": self.pid, "backend": "host"}


def _run_callable(fn: Callable[..., Any], args: tuple, kwargs: dict) -> None:
    fn(*args, **kwargs)


class HostBackend(ExecutionBackend):
    """Execution backend for real processes on this machine."""

    name = "host"

    def __init__(self) -> None:
        self._frequency = hostinfo.cpu_frequency()
        self._children: list[Any] = []

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    def machine_info(self) -> dict[str, Any]:
        return hostinfo.machine_info()

    def spawn(self, target: Any, **kwargs: Any) -> ProcessHandle:
        """Start a shell command (str/list) or Python callable.

        Keyword arguments ``args``/``kwargs`` are forwarded to callables.
        Command output is discarded (black-box profiling, req. P.3).
        """
        start = time.monotonic()
        if callable(target):
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(
                target=_run_callable,
                args=(target, tuple(kwargs.get("args", ())), dict(kwargs.get("kwargs", {}))),
            )
            proc.start()
            self._children.append(proc)

            def reap() -> int | None:
                if proc.is_alive():
                    return None
                proc.join()
                return proc.exitcode if proc.exitcode is not None else -1

            if proc.pid is None:  # pragma: no cover - fork always sets pid
                raise BackendError("multiprocessing did not report a pid")
            return HostProcess(proc.pid, reap, self._frequency, start)

        if isinstance(target, str):
            argv = shlex.split(target)
        elif isinstance(target, (list, tuple)):
            argv = [str(part) for part in target]
        else:
            raise BackendError(
                f"cannot spawn {type(target).__name__}: expected a command "
                "string/argv list or a Python callable"
            )
        try:
            popen = subprocess.Popen(
                argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
            )
        except OSError as exc:
            raise BackendError(f"cannot spawn {argv!r}: {exc}") from exc
        self._children.append(popen)
        return HostProcess(popen.pid, popen.poll, self._frequency, start)
