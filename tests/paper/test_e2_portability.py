"""E.2 / Figure 7 — Emulation portability to other resources.

Profiles Gromacs on Thinkie and emulates the profile on Stampede and
Archer, comparing against native execution there.  Paper claims: the
emulation "resembles the essential application's execution
characteristics"; on Stampede emulation is *consistently faster*, the
difference converging to ~40 %; on Archer *consistently slower*,
converging to ~33 %.
"""

from __future__ import annotations

import pytest
from figure_golden import pin
from harness import E1_SIZES, emulate_profile, err_pct, profile_app, report, run_app

from repro.util.tables import Table

REPEATS = 3


def compute_fig7():
    results = {}
    for machine in ("stampede", "archer"):
        rows = []
        for size in E1_SIZES:
            exec_tx = (
                sum(run_app(machine, size, repeat=r) for r in range(REPEATS)) / REPEATS
            )
            prof = profile_app("thinkie", size, rate=1.0, repeat=70)
            emu_tx = (
                sum(
                    emulate_profile(prof, machine, repeat=r).tx for r in range(REPEATS)
                )
                / REPEATS
            )
            rows.append((size, exec_tx, emu_tx, err_pct(exec_tx, emu_tx)))
        results[machine] = rows
    return results


def test_fig7_emulation_portability():
    results = compute_fig7()
    pin("fig7", results)
    text = []
    for machine, rows in results.items():
        table = Table(
            ["tag_step", "execution Tx [s]", "emulation Tx [s]", "diff %"],
            title=f"Fig 7: Emulation vs Execution ({machine}; profiled on thinkie)",
        )
        for row in rows:
            table.add_row(row)
        text.append(table.render())
    report("Fig 7: Cross-resource emulation (E.2)", "\n\n".join(text))

    stampede = {size: diff for size, _, _, diff in results["stampede"]}
    archer = {size: diff for size, _, _, diff in results["archer"]}
    # Stampede: consistently faster, converging to ~ -40 %.
    for size in E1_SIZES[2:]:
        assert stampede[size] < 0
    assert stampede[E1_SIZES[-1]] == pytest.approx(-40.0, abs=4.0)
    # Archer: consistently slower, converging to ~ +33 %.
    for size in E1_SIZES[2:]:
        assert archer[size] > 0
    assert archer[E1_SIZES[-1]] == __import__("pytest").approx(33.0, abs=4.0)
