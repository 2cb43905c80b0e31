"""Parallel speed-up model shared by the simulation plane and E.4.

The paper emulates a single-core profile with OpenMP threads or OpenMPI
processes (E.4) and observes "good scaling for small core numbers, but
diminishing return for larger core numbers, where overall system stress
limits potential performance gains" (Fig 12).  We model that with
Amdahl's law plus a linear per-worker overhead term:

    T(n) = T1 * ((1 - p) + p / n) + T1 * c * (n - 1)

``p`` is the parallelisable fraction; ``c`` the per-extra-worker overhead
(thread/process management, memory-bandwidth contention, NUMA traffic)
expressed as a fraction of the serial runtime.  The overhead term is what
bends the curve back up at large ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import number

__all__ = ["ScalingModel"]


@dataclass(frozen=True)
class ScalingModel:
    """Amdahl + overhead scaling of a serial runtime across workers."""

    parallel_fraction: float = 0.97
    overhead_per_worker: float = 0.004

    def __post_init__(self) -> None:
        number("parallel_fraction", self.parallel_fraction, 0, 1)
        number("overhead_per_worker", self.overhead_per_worker, 0)

    def time_factor(self, workers: int) -> float:
        """T(n)/T(1) for ``workers`` parallel workers."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        p = self.parallel_fraction
        c = self.overhead_per_worker
        return (1.0 - p) + p / workers + c * (workers - 1)

    def speedup(self, workers: int) -> float:
        """T(1)/T(n)."""
        return 1.0 / self.time_factor(workers)

    def efficiency(self, workers: int) -> float:
        """speedup(n) / n — always in (0, 1]."""
        return self.speedup(workers) / workers

    def overhead_cycles_fraction(self, workers: int) -> float:
        """Extra cycles burned by parallel overhead, as a fraction of the
        serial cycle count (charged by the sim engine so parallel runs
        consume *more* cycles in total, as they do in reality)."""
        return self.overhead_per_worker * (workers - 1) * workers
