"""Table 1 — the Synapse metric inventory.

Regenerates the paper's Table 1 ("List of Synapse metrics and their
usage") from the live metric registry and verifies every support flag
against the published matrix.  The *Emul.* column is also checked as
behaviour: each row marked ``+`` or ``(+)`` is either driven by a config
knob, which must move the row's quantity in a simulated emulation, or
driven by the profile the emulation replays.
"""

from __future__ import annotations

import numpy as np
import pytest
from figure_golden import pin
from harness import report

from repro.apps import GromacsModel, SyntheticApp
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.metrics import REGISTRY, derive_metrics, table1_rows
from repro.core.profiler import Profiler
from repro.sim.backend import SimBackend
from repro.util.tables import Table

#: The published matrix, transcribed row-for-row from the paper:
#: metric name -> (Tot., Sampl., Der., Emul.).
PAPER_TABLE1 = {
    "sys.cores": ("+", "-", "-", "-"),
    "sys.cpu_freq": ("+", "-", "-", "-"),
    "sys.memory": ("+", "-", "-", "-"),
    "time.runtime": ("+", "+", "-", "-"),
    "sys.load_cpu": ("+", "-", "-", "+"),
    "sys.load_disk": ("-", "-", "-", "+"),
    "sys.load_mem": ("-", "-", "-", "+"),
    "cpu.instructions": ("+", "+", "-", "+"),
    "cpu.cycles_used": ("+", "+", "-", "+"),
    "cpu.cycles_stalled_back": ("+", "+", "-", "-"),
    "cpu.cycles_stalled_front": ("+", "+", "-", "-"),
    "cpu.efficiency": ("+", "+", "+", "(+)"),
    "cpu.utilization": ("+", "+", "+", "-"),
    "cpu.flops": ("+", "+", "+", "+"),
    "cpu.flop_rate": ("+", "+", "+", "-"),
    "cpu.threads": ("+", "-", "-", "(+)"),
    "cpu.openmp": ("(+)", "-", "-", "+"),
    "io.bytes_read": ("+", "+", "-", "+"),
    "io.bytes_written": ("+", "+", "-", "+"),
    "io.block_size_read": ("-", "(+)", "-", "+"),
    "io.block_size_write": ("-", "(+)", "-", "+"),
    "io.filesystem": ("+", "-", "-", "+"),
    "mem.peak": ("+", "+", "-", "-"),
    "mem.rss": ("+", "+", "-", "-"),
    "mem.allocated": ("+", "+", "+", "+"),
    "mem.freed": ("+", "+", "+", "+"),
    "mem.block_size_alloc": ("-", "(-)", "-", "(-)"),
    "mem.block_size_free": ("-", "(-)", "-", "(-)"),
    "net.endpoint": ("(-)", "(-)", "-", "(+)"),
    "net.bytes_read": ("(-)", "(-)", "-", "(+)"),
    "net.bytes_written": ("(-)", "(-)", "-", "(+)"),
    "net.block_size_read": ("-", "(-)", "-", "(-)"),
    "net.block_size_write": ("-", "(-)", "-", "(-)"),
}


def compute_table1():
    rendered = Table(
        ["Resource", "Metric", "Tot.", "Sampl.", "Der.", "Emul."],
        title="Table 1: Synapse metrics and their usage",
    )
    for row in table1_rows():
        rendered.add_row(row)
    mismatches = []
    for name, spec in REGISTRY.items():
        got = (
            str(spec.totalled),
            str(spec.sampled),
            str(spec.derived),
            str(spec.emulated),
        )
        if got != PAPER_TABLE1[name]:
            mismatches.append((name, PAPER_TABLE1[name], got))
    return rendered, mismatches


def pinned(data) -> list:
    """The rendered rows; nothing in the table depends on a seed."""
    return data[0].rows


def test_table1_metric_inventory():
    rendered, mismatches = data = compute_table1()
    pin("table1", pinned(data))
    note = (
        "\nall 33 rows match the published matrix"
        if not mismatches
        else f"\nMISMATCHES: {mismatches}"
    )
    report("Table 1: Metric inventory", rendered.render() + note)
    assert set(PAPER_TABLE1) == set(REGISTRY)
    assert mismatches == []


#: *Emul.* rows a config knob drives: row -> (knob, value, the quantity
#: it must move, the profile emulated, the emulating machine).  A
#: quantity is ``tx``, a record total or a derived metric.
KNOB_ROWS = {
    "sys.load_cpu": ("cpu_load", 0.5, "cpu.cycles_used", "compute", "stampede"),
    "sys.load_disk": ("disk_load", 0.5, "tx", "io", "stampede"),
    "sys.load_mem": ("mem_load", 512 << 20, "mem.peak", "compute", "stampede"),
    "cpu.efficiency": ("efficiency_target", 0.5, "cpu.efficiency", "compute", "stampede"),
    "cpu.threads": ("openmp_threads", 4, "cpu.threads", "compute", "stampede"),
    "cpu.openmp": ("openmp_threads", 4, "tx", "compute", "stampede"),
    "io.block_size_read": ("io_block_size_read", 4096, "tx", "io", "stampede"),
    "io.block_size_write": ("io_block_size_write", 4096, "tx", "io", "stampede"),
    # Titan mounts two filesystems: Lustre (its default) and a local one.
    "io.filesystem": ("io_filesystem", "local", "tx", "io", "titan"),
}

#: *Emul.* rows driven by the profile: the plan replays their recorded
#: amounts, sample by sample.
PROFILE_ROWS = {
    "cpu.instructions", "cpu.cycles_used", "cpu.flops",
    "io.bytes_read", "io.bytes_written", "mem.allocated", "mem.freed",
    "net.endpoint", "net.bytes_read", "net.bytes_written",
}

#: The profiles emulated, each taken on Thinkie.
APPS = {
    "compute": GromacsModel(iterations=50_000),
    "io": SyntheticApp(instructions=1e9, bytes_read=64 << 20, bytes_written=64 << 20),
}


@pytest.fixture(scope="module")
def profiles():
    profiler = Profiler(SimBackend("thinkie", noisy=False))
    return {name: profiler.run(app, command=app.command()) for name, app in APPS.items()}


def emulated(profile, machine, noisy=False, **knobs):
    backend = SimBackend(machine, noisy=noisy, seed=1)
    return Emulator(backend, SynapseConfig(**knobs)).run(profile)


def quantity(result, name):
    totals = result.handle.record.totals()
    return result.tx if name == "tx" else {**totals, **derive_metrics(totals)}[name]


def test_every_emulated_row_is_driven():
    marked = {name for name, flags in PAPER_TABLE1.items() if flags[3] in ("+", "(+)")}
    assert set(KNOB_ROWS).isdisjoint(PROFILE_ROWS)
    assert set(KNOB_ROWS) | PROFILE_ROWS == marked


@pytest.mark.parametrize("row", sorted(KNOB_ROWS))
def test_an_emulated_rows_knob_moves_its_quantity(profiles, row):
    knob, value, name, app, machine = KNOB_ROWS[row]
    plain = quantity(emulated(profiles[app], machine), name)
    moved = quantity(emulated(profiles[app], machine, **{knob: value}), name)
    assert moved != plain, f"{knob}={value!r} leaves {name} at {plain!r}"


@pytest.mark.parametrize("noisy", [False, True])
def test_a_memory_load_moves_only_the_memory_levels(profiles, noisy):
    """``sys.load_mem``: ``mem.peak`` rises by exactly the load, and
    nothing but the two memory levels moves."""
    plain, loaded = (
        emulated(profiles["compute"], "stampede", noisy, mem_load=load).handle.record
        for load in (0, "512MB")
    )
    assert loaded.duration == plain.duration
    assert loaded.phase_bounds == plain.phase_bounds
    for group in ("counters", "levels"):
        ours, theirs = getattr(loaded, group), getattr(plain, group)
        assert set(ours) == set(theirs)
        for name in set(theirs) - {"mem.rss", "mem.peak"}:
            assert np.array_equal(ours[name].times, theirs[name].times), name
            assert np.array_equal(ours[name].values, theirs[name].values), name
    assert loaded.total("mem.peak") - plain.total("mem.peak") == 512 << 20
