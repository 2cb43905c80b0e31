"""§4.5 ablation — profiler/emulator overhead budget.

The paper's "Overheads" subsection quantifies Synapse's own costs:
profiler start-up is "constant and on the order of < O(1) seconds", the
first watcher sample lands ~5 ms after startup, the profiler uses
~150 MB of memory, and the emulator shows a similar footprint that "does
show up in the profiles of the emulation runs".  This check measures
all of these on the live implementation (host plane for real process
costs, sim plane for the emulator footprint).
"""

from __future__ import annotations

import time

from harness import backend, profile_app, report

from repro.core.api import emulate, profile
from repro.core.config import SynapseConfig
from repro.core.plan import EMULATOR_BASE_RSS
from repro.host.backend import HostBackend
from repro.util.tables import Table


def compute_budget():
    rows = []

    # Host-plane profiler overhead on a short sleep: extra wall time the
    # profiled run pays versus a bare spawn+wait.
    host = HostBackend()
    t0 = time.perf_counter()
    host.spawn(["sleep", "0.3"]).wait()
    bare = time.perf_counter() - t0

    t0 = time.perf_counter()
    profile("sleep 0.3", backend=HostBackend(), config=SynapseConfig(sample_rate=10.0))
    profiled = time.perf_counter() - t0
    rows.append(("host profiler wall overhead [s]", profiled - bare))

    # First-sample offset (sim plane reports it in run info).
    prof = profile_app("thinkie", 100_000, rate=10.0)
    rows.append(
        ("first sample offset [s]", prof.info["run"]["first_sample_offset"])
    )

    # Emulator startup delay and memory footprint (visible when the
    # emulation itself is profiled, as the paper notes).
    result = emulate(prof, backend=backend("thinkie", 0))
    rows.append(("emulator startup delay [s]", result.startup_delay))
    emu_rss = result.handle.record.totals()["mem.peak"]
    rows.append(("emulator resident footprint [MB]", emu_rss / (1 << 20)))
    rows.append(("app resident footprint [MB]", prof.totals()["mem.peak"] / (1 << 20)))

    # Telemetry plane's own cost: a span on a dark bus (no sink) is the
    # per-call price every instrumented hot path pays by default.
    from repro.telemetry import get_bus, span  # noqa: PLC0415

    assert not get_bus().active
    n = 50_000
    t0 = time.perf_counter()
    for _ in range(n):
        with span("budget.probe", item=1) as sp:
            sp.set(ok=True)
    rows.append(("dark span cost [us]", (time.perf_counter() - t0) / n * 1e6))
    return rows


def test_overhead_budget():
    rows = compute_budget()
    table = Table(["quantity", "measured"], title="§4.5 overhead budget")
    for row in rows:
        table.add_row(row)
    report("Overhead budget (§4.5 ablation)", table.render())

    values = dict(rows)
    assert values["host profiler wall overhead [s]"] < 1.0  # < O(1) s
    assert values["emulator startup delay [s]"] < 1.5
    # The emulator's Python footprint (~150 MB) dwarfs the app's (~6 MB)
    # and shows up in profiles of emulation runs.
    assert values["emulator resident footprint [MB]"] >= EMULATOR_BASE_RSS / (1 << 20)
    assert values["app resident footprint [MB]"] < 10.0
    assert values["dark span cost [us]"] < 25.0
