"""Readers for the Linux ``/proc/<pid>`` files the profiler samples.

The original Synapse "uses the perf-stat utility to inspect CPU activity,
the /proc/ filesystem to read system counters on memory and disk I/O, and
the POSIX rusage call" (§4.1).  ``perf stat`` needs perf-events
permissions that portable deployments often lack — the exact motivation
the paper gives for preferring standard system utilities over PAPI — so
this reproduction reads scheduler CPU time from ``/proc/<pid>/stat`` and
derives cycle counts with the host's nominal frequency (a model-based
provider: CPU time × frequency, not a hardware counter).

All readers return ``None`` when the process has already exited or the
file is unreadable; callers keep their last good snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ProcStat", "ProcStatus", "ProcIO", "read_stat", "read_status", "read_io"]

#: Kernel clock ticks per second (``utime``/``stime`` unit in /proc/stat).
CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


@dataclass(frozen=True)
class ProcStat:
    """Fields of interest from ``/proc/<pid>/stat``."""

    utime: float
    stime: float
    num_threads: int


@dataclass(frozen=True)
class ProcStatus:
    """Fields of interest from ``/proc/<pid>/status`` (bytes)."""

    vm_rss: int
    vm_peak: int


@dataclass(frozen=True)
class ProcIO:
    """Fields of interest from ``/proc/<pid>/io`` (bytes)."""

    read_bytes: int
    write_bytes: int


def read_stat(pid: int) -> ProcStat | None:
    """Parse CPU times and thread count for one process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command field (2nd) may contain spaces/parens; split after it.
    rparen = data.rfind(")")
    fields = data[rparen + 2 :].split()
    # After the comm field: field[11]=utime, [12]=stime, [17]=num_threads
    # (0-based within the remainder, which starts at original field 3).
    try:
        utime = int(fields[11]) / CLK_TCK
        stime = int(fields[12]) / CLK_TCK
        threads = int(fields[17])
    except (IndexError, ValueError):
        return None
    return ProcStat(utime=utime, stime=stime, num_threads=threads)


def read_status(pid: int) -> ProcStatus | None:
    """Parse resident-set and peak memory for one process."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    rss = peak = 0
    for line in text.splitlines():
        if line.startswith("VmRSS:"):
            rss = _kb_field(line)
        elif line.startswith("VmHWM:"):
            peak = _kb_field(line)
    return ProcStatus(vm_rss=rss, vm_peak=peak)


def read_io(pid: int) -> ProcIO | None:
    """Parse storage I/O byte counters (may need same-user permission)."""
    try:
        with open(f"/proc/{pid}/io", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    read_bytes = write_bytes = 0
    for line in text.splitlines():
        if line.startswith("read_bytes:"):
            read_bytes = int(line.split(":")[1])
        elif line.startswith("write_bytes:"):
            write_bytes = int(line.split(":")[1])
    return ProcIO(read_bytes=read_bytes, write_bytes=write_bytes)


def _kb_field(line: str) -> int:
    try:
        return int(line.split()[1]) * 1024
    except (IndexError, ValueError):
        return 0
