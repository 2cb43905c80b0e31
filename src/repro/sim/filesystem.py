"""Filesystem performance models for the simulation plane.

E.5 of the paper varies the target filesystem and the I/O block size and
observes (Fig 15):

* writes are roughly an order of magnitude slower than reads ("owed to
  the difficulty of providing cache consistency on write, specifically on
  shared file systems");
* many small operations are much slower than few large ones (per-request
  latency dominates);
* Lustre performs very similarly on Titan and Supermic (same model
  parameters, shared metadata/IO-node path), while *local* filesystems
  differ strongly between machines.

The model charges ``ops * latency + bytes / effective_bandwidth`` where
``ops = ceil(bytes / block_size)`` and read bandwidth blends the page
cache with the device according to a cache-hit fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.errors import number

__all__ = ["FilesystemModel"]


@dataclass(frozen=True)
class FilesystemModel:
    """Latency/bandwidth/caching description of one mounted filesystem.

    Attributes
    ----------
    name:
        Mount label used by workloads (``"local"``, ``"lustre"``, ...).
    kind:
        Informational class (``local-ssd``, ``local-hdd``, ``lustre``,
        ``nfs``).
    read_latency / write_latency:
        Seconds of fixed cost per I/O request.
    read_bandwidth / write_bandwidth:
        Sustained device/stripe bandwidth in bytes/second.
    cache_bandwidth:
        Page-cache bandwidth for cached reads (bytes/second).
    cache_hit_fraction:
        Fraction of read bytes served from cache (0 disables caching).
    """

    name: str
    kind: str = "local-ssd"
    read_latency: float = 50e-6
    write_latency: float = 400e-6
    read_bandwidth: float = 1e9
    write_bandwidth: float = 2e8
    cache_bandwidth: float = 4e9
    cache_hit_fraction: float = 0.5

    def __post_init__(self) -> None:
        number("read_latency", self.read_latency, 0)
        number("write_latency", self.write_latency, 0)
        number("read_bandwidth", self.read_bandwidth, above=0)
        number("write_bandwidth", self.write_bandwidth, above=0)
        number("cache_bandwidth", self.cache_bandwidth, above=0)
        number("cache_hit_fraction", self.cache_hit_fraction, 0, 1)

    # -- costing -----------------------------------------------------------

    def operations(self, nbytes: int, block_size: int) -> int:
        """Number of I/O requests needed for ``nbytes`` at ``block_size``."""
        if nbytes <= 0:
            return 0
        if block_size <= 0:
            raise ValueError("block size must be positive")
        return math.ceil(nbytes / block_size)

    def read_time(self, nbytes: int, block_size: int) -> float:
        """Wall-clock seconds to read ``nbytes`` in ``block_size`` chunks."""
        if nbytes <= 0:
            return 0.0
        ops = self.operations(nbytes, block_size)
        hit = self.cache_hit_fraction
        transfer = nbytes * (hit / self.cache_bandwidth + (1.0 - hit) / self.read_bandwidth)
        return ops * self.read_latency + transfer

    def write_time(self, nbytes: int, block_size: int) -> float:
        """Wall-clock seconds to write ``nbytes`` in ``block_size`` chunks."""
        if nbytes <= 0:
            return 0.0
        ops = self.operations(nbytes, block_size)
        return ops * self.write_latency + nbytes / self.write_bandwidth

    def io_time(self, bytes_read: int, bytes_written: int, block_size: int) -> float:
        """Combined sequential read+write cost of one I/O demand."""
        return self.read_time(bytes_read, block_size) + self.write_time(
            bytes_written, block_size
        )

    def bandwidth(self, nbytes: int, block_size: int, op: str) -> float:
        """Observed bytes/second for one operation type at a block size."""
        if op not in ("read", "write"):
            raise ValueError("op must be 'read' or 'write'")
        time = self.read_time(nbytes, block_size) if op == "read" else self.write_time(
            nbytes, block_size
        )
        return nbytes / time if time > 0 else float("inf")

    def without_cache(self) -> "FilesystemModel":
        """Copy of this model with read caching disabled (ablation knob)."""
        return replace(self, cache_hit_fraction=0.0)
