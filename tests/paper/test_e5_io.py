"""E.5 / Figure 15 — Emulating variable I/O granularity.

A synthetic I/O workload is emulated "toward any available filesystem
... and any combination of I/O granularity": block sizes from 4 KB to
64 MB on the local filesystems and Lustre of Titan and Supermic.  Paper
claims: writes are ~an order of magnitude slower than reads; many small
operations are much slower than few large ones; "Lustre performs very
similar for both resources, whereas local I/O performance differs
significantly"; Titan's local filesystem far outperforms Supermic's.
"""

from __future__ import annotations

import pytest
from harness import backend, report

from repro.apps import SyntheticApp
from repro.core.api import emulate, profile
from repro.core.config import SynapseConfig
from repro.util.tables import Table
from repro.util.units import format_bytes

VOLUME = 256 << 20  # bytes moved per measurement
BLOCK_SIZES = (4 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20)
TARGETS = (
    ("titan", "local"),
    ("titan", "lustre"),
    ("supermic", "local"),
    ("supermic", "lustre"),
)


def measure(machine: str, fs: str, block_size: int, op: str) -> float:
    """Emulated I/O time (startup-corrected) for one configuration."""
    app = SyntheticApp(
        bytes_read=VOLUME if op == "read" else 0,
        bytes_written=VOLUME if op == "write" else 0,
        io_block_size=1 << 20,
        filesystem=fs,
        chunks=8,
    )
    prof = profile(app, backend=backend(machine, 7), config=SynapseConfig(sample_rate=2.0))
    config = SynapseConfig(
        io_block_size_read=block_size,
        io_block_size_write=block_size,
        io_filesystem=fs,
    )
    result = emulate(prof, backend=backend(machine, 7), config=config)
    return result.tx - result.startup_delay


def compute_fig15():
    data = {}
    for machine, fs in TARGETS:
        for op in ("read", "write"):
            for block_size in BLOCK_SIZES:
                data[(machine, fs, op, block_size)] = measure(
                    machine, fs, block_size, op
                )
    return data


def test_fig15_io_granularity():
    data = compute_fig15()

    tables = []
    for machine, fs in TARGETS:
        table = Table(
            ["block size", "read [s]", "read MB/s", "write [s]", "write MB/s"],
            title=f"Fig 15: {format_bytes(VOLUME)} I/O on {machine}/{fs}",
        )
        for block_size in BLOCK_SIZES:
            read_t = data[(machine, fs, "read", block_size)]
            write_t = data[(machine, fs, "write", block_size)]
            table.add_row(
                [
                    format_bytes(block_size),
                    read_t,
                    VOLUME / read_t / (1 << 20),
                    write_t,
                    VOLUME / write_t / (1 << 20),
                ]
            )
        tables.append(table.render())
    report("Fig 15: I/O emulation tunability (E.5)", "\n\n".join(tables))

    bs = 1 << 20
    # Writes ~ an order of magnitude slower than reads (shared fs).
    for machine in ("titan", "supermic"):
        ratio = data[(machine, "lustre", "write", bs)] / data[(machine, "lustre", "read", bs)]
        assert ratio > 5.0
    # Small blocks much slower than large blocks.
    for machine, fs in TARGETS:
        assert (
            data[(machine, fs, "write", 4 << 10)]
            > 10 * data[(machine, fs, "write", 16 << 20)]
        )
    # Lustre behaves the same on both machines ...
    for op in ("read", "write"):
        assert data[("titan", "lustre", op, bs)] == pytest.approx(
            data[("supermic", "lustre", op, bs)], rel=0.05
        )
    # ... while local filesystems differ strongly, Titan's being better.
    assert (
        data[("titan", "local", "write", bs)]
        < 0.5 * data[("supermic", "local", "write", bs)]
    )
