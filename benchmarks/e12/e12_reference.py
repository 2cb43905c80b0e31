"""Host reference: a fixed piece of work that never enters the program.

The host this benchmark runs on is shared: whole minutes run a third
slower than the minutes around them, for every process alike.  Timing
this kernel between the passes of a run tells how fast the host was
*during that run*; end-to-end host times are reported as they would
read on a host that runs the kernel in :data:`NOMINAL_S`.  A change to
the program cannot move the kernel (it imports nothing from ``src/``),
so it moves the reported numbers exactly as it moves the raw ones.

The kernel does what the program's glue does — walks an object graph
larger than the private caches, fills dicts, sorts, round-trips JSON,
runs small NumPy kernels — so that the host slows both alike.
"""

from __future__ import annotations

import json
import time
from typing import Callable

import numpy as np

#: What one call takes between passes on the host the benchmark was
#: defined on when nothing else slows it (2-vCPU guest, Xeon 2.1 GHz,
#: CPython 3.11): there the host factors read about 1.
NOMINAL_S = 0.065


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


class HostReference:
    """Build once, call between passes; each call returns its seconds."""

    def __init__(self) -> None:
        self._nodes = [_Node(i, i * 0.5) for i in range(60_000)]
        self._doc = {
            "rows": [{"id": f"r{i}", "t": i * 1.5, "tags": ["a", "b"]} for i in range(400)]
        }
        self._column = np.arange(60_000, dtype=np.float64)
        self.seconds: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for _ in range(12):
            table: dict[int, float] = {}
            for node in self._nodes:
                table[node.key] = node.value + total
            total += sum(sorted(table.values())[::97]) * 1e-9
            json.loads(json.dumps(self._doc))
            column = np.sqrt(self._column * 1.0001 + 1.0)
            total += float(np.cumsum(column)[np.argsort(column[::7])].sum()) * 1e-12
        elapsed = time.perf_counter() - start
        self.seconds.append(elapsed)
        return elapsed

    def factor(self, statistic: Callable[[list[float]], float]) -> float:
        """How much slower than nominal the host ran over the calls made
        so far, by ``statistic`` of their seconds ÷ :data:`NOMINAL_S`."""
        return statistic(self.seconds) / NOMINAL_S
