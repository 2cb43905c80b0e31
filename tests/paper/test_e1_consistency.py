"""E.1 / Figure 6 — Profiling consistency across sampling rates.

Top panel: total CPU operations per (iteration count, sampling rate) —
the paper reports "very consistent values for consumed CPU operations"
independent of the rate, linear in problem size.

Bottom panel: profiled resident memory — "underestimated by the profiler
for sample rates that allow only one data sample to be taken over the
course of the application runtime; for multiple samples, the measures
quickly stabilize".
"""

from __future__ import annotations

from figure_golden import pin
from harness import E1_RATES, profile_request, report, submit

from repro.util.tables import Table

SIZES = (10_000, 50_000, 100_000, 500_000, 1_000_000)
REPEATS = 3


def compute_fig6():
    """The whole (size x rate x repeat) sweep as one run-service batch.

    Each cell's profile request is seeded by its repeat index, so the
    batched submission is bit-identical to the nested loops it replaced
    — serially on one core, or fanned over the service's pool.
    """
    grid = [(size, rate) for size in SIZES for rate in E1_RATES]
    profiles = iter(submit(
        profile_request("thinkie", size, rate=rate, repeat=repeat)
        for size, rate in grid
        for repeat in range(REPEATS)
    ))
    operations: dict[tuple[int, float], float] = {}
    rss: dict[tuple[int, float], float] = {}
    for size, rate in grid:
        totals = [next(profiles).totals() for _ in range(REPEATS)]
        operations[(size, rate)] = sum(t["cpu.instructions"] for t in totals) / REPEATS
        rss[(size, rate)] = sum(t.get("mem.rss", 0.0) for t in totals) / REPEATS
    return operations, rss


def test_fig6_profiling_consistency():
    operations, rss = data = compute_fig6()
    pin("fig6", data)

    top = Table(
        ["iterations"] + [f"{rate}Hz" for rate in E1_RATES] + ["spread %"],
        title="Fig 6 (top): CPU operations vs sampling rate (thinkie)",
    )
    for size in SIZES:
        values = [operations[(size, rate)] for rate in E1_RATES]
        spread = 100.0 * (max(values) - min(values)) / min(values)
        top.add_row([size] + values + [spread])

    bottom = Table(
        ["iterations"] + [f"{rate}Hz" for rate in E1_RATES],
        title="Fig 6 (bottom): profiled resident memory [bytes] vs rate",
    )
    for size in SIZES:
        bottom.add_row([size] + [rss[(size, rate)] for rate in E1_RATES])

    report("Fig 6: Profiling consistency (E.1)", top.render() + "\n\n" + bottom.render())

    # Top: operations independent of rate (< 1% spread), linear in size.
    for size in SIZES:
        values = [operations[(size, rate)] for rate in E1_RATES]
        assert (max(values) - min(values)) / min(values) < 0.01
    assert operations[(1_000_000, 1.0)] > 5 * operations[(100_000, 1.0)]

    # Bottom: short runs at low rates under-report RSS; high rates don't.
    short = SIZES[0]  # Tx ~ 0.5 s: one sample at <=1 Hz
    assert rss[(short, 0.1)] < 0.7 * rss[(short, 10.0)]
    # Long runs are rate-insensitive (many samples at any rate).
    long = SIZES[-1]
    assert rss[(long, 0.1)] > 0.9 * rss[(long, 10.0)]
