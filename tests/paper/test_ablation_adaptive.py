"""§6 ablation — adaptive sampling rate (the paper's future-work scheme).

"We thus consider an adaptive scheme, starting with a high sampling rate
(10/sec), and after a few seconds, when we can expect to have captured
the application startup, decrease the rate."

This ablation quantifies that trade-off on the Gromacs model: for each
policy we report the total sample count (profile size / DB pressure) and
whether the startup detail — the resident-memory ramp that low constant
rates *miss* in Fig 6 (bottom) — is captured.
"""

from __future__ import annotations

from figure_golden import pin
from harness import backend, report

from repro.apps import GromacsModel
from repro.core.api import profile
from repro.core.config import SynapseConfig
from repro.util.tables import Table

SIZES = (50_000, 500_000, 5_000_000)

POLICIES = {
    "constant 0.5Hz": SynapseConfig(sample_rate=0.5),
    "constant 10Hz": SynapseConfig(sample_rate=10.0),
    "adaptive 10->0.5Hz": SynapseConfig(
        sample_rate=0.5,
        sampling_policy="adaptive",
        adaptive_initial_rate=10.0,
        adaptive_settle_seconds=2.0,
    ),
}


def compute_ablation():
    results = {}
    for size in SIZES:
        for label, config in POLICIES.items():
            prof = profile(
                GromacsModel(iterations=size),
                backend=backend("thinkie", repeat=1),
                config=config,
            )
            results[(size, label)] = {
                "samples": prof.n_samples,
                "rss": prof.totals().get("mem.rss", 0.0),
                "tx": prof.tx,
            }
    return results


def test_adaptive_sampling_ablation():
    results = compute_ablation()
    pin("ablation_adaptive", results)
    table = Table(
        ["iterations", "policy", "Tx [s]", "samples", "peak RSS seen [MB]"],
        title="adaptive sampling ablation (thinkie)",
    )
    for (size, label), cell in results.items():
        table.add_row(
            [size, label, cell["tx"], cell["samples"], cell["rss"] / 1e6]
        )
    report("Adaptive sampling (§6 ablation)", table.render())

    for size in SIZES:
        slow = results[(size, "constant 0.5Hz")]
        fast = results[(size, "constant 10Hz")]
        adaptive = results[(size, "adaptive 10->0.5Hz")]
        # Adaptive sees the full RSS ramp, like the 10 Hz profile ...
        assert adaptive["rss"] >= 0.99 * fast["rss"]
        # ... at a fraction of the sample count on long runs.
        if size >= 500_000:
            assert adaptive["samples"] < 0.25 * fast["samples"]
        # Low constant rates miss the ramp only on short runs (Fig 6).
        if size == SIZES[0]:
            assert slow["rss"] < 0.7 * fast["rss"]
