"""E.2 / Figure 5 — Emulation correctness on the profiling resource.

Regenerates the Fig 5 series: execution Tx vs emulated Tx on Thinkie,
with the percentage difference on the second axis.  Paper claim:
"emulated runtimes agree with actual application runtimes for runtimes
larger than the Synapse startup delay (~1 sec)".
"""

from __future__ import annotations

from figure_golden import pin
from harness import E1_SIZES, emulate_profile, err_pct, profile_app, report, run_app

from repro.util.tables import Table

REPEATS = 3


def compute_fig5():
    rows = []
    for size in E1_SIZES:
        exec_tx = sum(run_app("thinkie", size, repeat=r) for r in range(REPEATS)) / REPEATS
        prof = profile_app("thinkie", size, rate=1.0, repeat=50)
        emu_tx = (
            sum(
                emulate_profile(prof, "thinkie", repeat=r).tx
                for r in range(REPEATS)
            )
            / REPEATS
        )
        rows.append((size, exec_tx, emu_tx, err_pct(exec_tx, emu_tx)))
    return rows


def test_fig5_same_resource_emulation():
    rows = compute_fig5()
    pin("fig5", rows)
    table = Table(
        ["tag_step", "execution Tx [s]", "emulation Tx [s]", "diff %"],
        title="Fig 5: Emulation vs Execution (thinkie)",
    )
    for row in rows:
        table.add_row(row)
    report("Fig 5: Same-resource emulation (E.2)", table.render())

    # Shape: large relative overhead only below ~1 s; convergence above.
    by_size = {size: diff for size, _, _, diff in rows}
    assert by_size[E1_SIZES[0]] > 25.0  # sub-second run: startup dominates
    assert abs(by_size[E1_SIZES[-1]]) < 8.0  # long run: close agreement
    # Diff must decrease monotonically-ish with size.
    diffs = [abs(diff) for _, _, _, diff in rows]
    assert diffs[-1] < diffs[0] / 5
