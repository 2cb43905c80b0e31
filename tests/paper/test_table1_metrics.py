"""Table 1 — the Synapse metric inventory.

Regenerates the paper's Table 1 ("List of Synapse metrics and their
usage") from the live metric registry and verifies every support flag
against the published matrix.
"""

from __future__ import annotations

from figure_golden import pin
from harness import report

from repro.core.metrics import REGISTRY, table1_rows
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
