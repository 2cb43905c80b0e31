"""OpenMP-style threaded wrapper around any compute kernel.

"The default Synapse emulation kernel for the compute atom supports
OpenMP, but the number of OpenMP threads to be used needs to be
configured manually" (§4.5).  The host-plane analogue splits the unit
budget across Python threads; the BLAS matmul kernels release the GIL,
so threads genuinely execute in parallel on multiple cores.
"""

from __future__ import annotations

import threading

from repro.core.errors import whole_number
from repro.kernels.base import Calibration, ComputeKernel

__all__ = ["OpenMPKernel"]


class OpenMPKernel(ComputeKernel):
    """Runs an inner kernel's units across ``threads`` worker threads."""

    name = "openmp"
    description = "thread-parallel wrapper around another kernel"

    def __init__(self, inner: ComputeKernel, threads: int = 2) -> None:
        whole_number("threads", threads, 1)
        self.inner = inner
        self.threads = threads
        self.name = f"openmp:{inner.name}"
        self.workload_class = inner.workload_class

    def execute_units(self, units: int) -> None:
        if units <= 0:
            return
        if self.threads == 1:
            self.inner.execute_units(units)
            return
        share, remainder = divmod(units, self.threads)
        budgets = [share + (1 if i < remainder else 0) for i in range(self.threads)]
        workers = [
            threading.Thread(target=self.inner.execute_units, args=(budget,))
            for budget in budgets
            if budget > 0
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def calibrate(self, frequency: float, target_seconds: float = 0.02) -> Calibration:
        # Cycles consumed are the *inner* kernel's: parallelism shortens
        # wall time but the per-unit cycle cost is unchanged.
        return self.inner.calibrate(frequency, target_seconds)
