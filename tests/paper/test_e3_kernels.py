"""E.3 / Figures 8-11 — Emulating with different kernels (C vs ASM).

Profiles Gromacs on Comet and Supermic, then emulates the profiled cycle
consumption with the C and ASM matrix-multiplication kernels and
re-profiles the emulations.  Regenerates all four figures:

* Fig 8  — cycles used + error %           (C -> ~3.5 % / ~4.0 %;
  ASM -> ~14.5 % / ~26.5 % on Comet / Supermic)
* Fig 9  — Tx + error %                    (same convergence values —
  the runs are compute-bound)
* Fig 10 — instructions executed + error %
* Fig 11 — instructions per cycle          (app ~2.17 / ~2.04;
  C ~2.80 / ~2.53; ASM ~3.30 / ~2.86)

All data points carry a 99 % confidence interval over repeats, as in the
paper ("no more than 6.6 % of the value of the data point").
"""

from __future__ import annotations

import pytest
from harness import E3_SIZES, emulate_profile, err_pct, profile_app, report, Series

from repro.util.tables import Table

REPEATS = 5
MACHINES = ("comet", "supermic")
#: Paper convergence values: (machine, kernel) -> cycle error %.
PAPER_CYCLE_ERROR = {
    ("comet", "c"): 3.5,
    ("comet", "asm"): 14.5,
    ("supermic", "c"): 4.0,
    ("supermic", "asm"): 26.5,
}
#: Paper Fig 11 instruction rates: (machine, which) -> IPC.
PAPER_IPC = {
    ("comet", "app"): 2.17,
    ("comet", "c"): 2.80,
    ("comet", "asm"): 3.30,
    ("supermic", "app"): 2.04,
    ("supermic", "c"): 2.53,
    ("supermic", "asm"): 2.86,
}


def measure(machine: str, size: int):
    """App + emulation measurements (means over repeats) for one size."""
    out = {}
    app_cycles, app_tx, app_instr = [], [], []
    profiles = []
    for repeat in range(REPEATS):
        prof = profile_app(machine, size, rate=2.0, repeat=repeat)
        profiles.append(prof)
        totals = prof.totals()
        app_cycles.append(totals["cpu.cycles_used"])
        app_tx.append(prof.tx)
        app_instr.append(totals["cpu.instructions"])
    out["app"] = {
        "cycles": Series.of(app_cycles),
        "tx": Series.of(app_tx),
        "instructions": Series.of(app_instr),
    }
    for kernel in ("c", "asm"):
        cycles, txs, instr = [], [], []
        for repeat, prof in enumerate(profiles):
            result = emulate_profile(
                prof, machine, repeat=repeat, compute_kernel=kernel
            )
            totals = result.handle.record.totals()
            cycles.append(totals["cpu.cycles_used"])
            txs.append(result.tx)
            instr.append(totals["cpu.instructions"])
        out[kernel] = {
            "cycles": Series.of(cycles),
            "tx": Series.of(txs),
            "instructions": Series.of(instr),
        }
    return out


def compute_e3():
    return {
        machine: {size: measure(machine, size) for size in E3_SIZES}
        for machine in MACHINES
    }


def render_metric(data, machine: str, metric: str, title: str) -> Table:
    table = Table(
        [
            "iterations",
            "app",
            "app ci99",
            "C kernel",
            "C err %",
            "ASM kernel",
            "ASM err %",
        ],
        title=title,
    )
    for size in E3_SIZES:
        cell = data[machine][size]
        app = cell["app"][metric]
        c_kernel = cell["c"][metric]
        asm = cell["asm"][metric]
        table.add_row(
            [
                size,
                app.mean,
                app.ci99,
                c_kernel.mean,
                err_pct(app.mean, c_kernel.mean),
                asm.mean,
                err_pct(app.mean, asm.mean),
            ]
        )
    return table


def render_ipc(data, machine: str) -> Table:
    table = Table(
        ["iterations", "app IPC", "C IPC", "ASM IPC"],
        title=f"Fig 11: instructions per cycle ({machine})",
    )
    for size in E3_SIZES:
        cell = data[machine][size]
        row = [size]
        for which in ("app", "c", "asm"):
            row.append(cell[which]["instructions"].mean / cell[which]["cycles"].mean)
        table.add_row(row)
    return table


def test_e3_kernel_fidelity():
    data = compute_e3()

    figures = {
        "Fig 8: cycles used": "cycles",
        "Fig 9: Tx": "tx",
        "Fig 10: instructions executed": "instructions",
    }
    for fig_title, metric in figures.items():
        text = "\n\n".join(
            render_metric(data, machine, metric, f"{fig_title} ({machine})").render()
            for machine in MACHINES
        )
        report(f"{fig_title} (E.3)", text)
    report(
        "Fig 11: instruction rate (E.3)",
        "\n\n".join(render_ipc(data, machine).render() for machine in MACHINES),
    )

    largest = E3_SIZES[-1]
    for machine in MACHINES:
        cell = data[machine][largest]
        app_cycles = cell["app"]["cycles"].mean
        for kernel in ("c", "asm"):
            cyc_err = err_pct(app_cycles, cell[kernel]["cycles"].mean)
            assert cyc_err == pytest.approx(
                PAPER_CYCLE_ERROR[(machine, kernel)], abs=1.5
            ), (machine, kernel)
            # Fig 9: compute-bound => Tx error tracks cycle error.
            tx_err = err_pct(cell["app"]["tx"].mean, cell[kernel]["tx"].mean)
            assert tx_err == pytest.approx(cyc_err, abs=2.5)
            # CI sanity (paper: CI <= 6.6% of the data point).
            assert cell[kernel]["cycles"].ci99 < 0.066 * cell[kernel]["cycles"].mean
        # C kernel strictly better than ASM on every metric (paper's
        # headline E.3 result).
        for metric in ("cycles", "tx", "instructions"):
            c_err = abs(err_pct(cell["app"][metric].mean, cell["c"][metric].mean))
            asm_err = abs(err_pct(cell["app"][metric].mean, cell["asm"][metric].mean))
            assert c_err < asm_err, (machine, metric)
        # Fig 11 IPC values and ordering.
        app_ipc = cell["app"]["instructions"].mean / cell["app"]["cycles"].mean
        c_ipc = cell["c"]["instructions"].mean / cell["c"]["cycles"].mean
        asm_ipc = cell["asm"]["instructions"].mean / cell["asm"]["cycles"].mean
        assert app_ipc == pytest.approx(PAPER_IPC[(machine, "app")], rel=0.03)
        assert c_ipc == pytest.approx(PAPER_IPC[(machine, "c")], rel=0.03)
        assert asm_ipc == pytest.approx(PAPER_IPC[(machine, "asm")], rel=0.03)
        assert app_ipc < c_ipc < asm_ipc
