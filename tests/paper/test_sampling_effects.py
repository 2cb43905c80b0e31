"""Figures 2/3 ablation — sampling-rate and portability effects on replay.

§4.4 of the paper explains two consequences of sample-barrier replay:

* **Fig 2** — resource consumptions that were *serial* in the
  application become *concurrent* inside an emulation sample, so
  emulation can run faster than the application; "smaller sampling
  intervals reduce that effect" by re-introducing the serialisation.
  We build an application that alternates CPU-only and disk-only bursts
  (the worst case for sample-barrier replay), profile it at increasing
  rates, and measure the emulated Tx: coarse samples lump a compute and
  an I/O burst together (concurrent replay, large speed-up), fine
  samples isolate the bursts (serial replay, speed-up -> 1).
* **Fig 3** — on a machine with different relative resource performance
  the *dominating* resource of a sample may flip, but the sample order
  is preserved.  We emulate the same profile on Comet (faster CPU,
  slower NFS disk) and check both properties.
"""

from __future__ import annotations

from harness import backend, report

from repro.core.api import emulate, profile
from repro.core.config import SynapseConfig
from repro.sim.demands import ComputeDemand, IODemand
from repro.sim.workload import SimWorkload
from repro.util.tables import Table

RATES = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
BURSTS = 6
#: One compute burst: ~1.26 s on Thinkie (6.4e9 instr @ IPC 1.9, 2.67 GHz).
BURST_INSTRUCTIONS = 6.4e9
#: One I/O burst: ~1.07 s on Thinkie's local SSD (450 MB written).
BURST_WRITE_BYTES = 450 << 20


def burst_workload() -> SimWorkload:
    """Strictly serial alternation of CPU-only and disk-only bursts."""
    workload = SimWorkload(name="burst-app")
    stream = workload.phase("main").stream("main")
    for _ in range(BURSTS):
        stream.add(ComputeDemand(instructions=BURST_INSTRUCTIONS, workload_class="app.md"))
        stream.add(
            IODemand(bytes_written=BURST_WRITE_BYTES, block_size=1 << 20, filesystem="local")
        )
    return workload


def compute_fig2():
    app_tx = backend("thinkie", 3).spawn(burst_workload()).duration
    rows = []
    for rate in RATES:
        prof = profile(
            burst_workload(),
            backend=backend("thinkie", 3),
            config=SynapseConfig(sample_rate=rate),
        )
        result = emulate(prof, backend=backend("thinkie", 3))
        replay = result.tx - result.startup_delay
        rows.append((rate, prof.n_samples, replay, app_tx / replay))
    return app_tx, rows


def compute_fig3():
    """Emulate a thinkie profile on comet: faster CPU, slower disk."""
    prof = profile(
        burst_workload(),
        backend=backend("thinkie", 3),
        config=SynapseConfig(sample_rate=2.0),
    )
    result = emulate(
        prof,
        backend=backend("comet", 3),
        config=SynapseConfig(io_filesystem="nfs"),
    )
    record = result.handle.record
    starts = [bounds[0] for bounds in record.phase_bounds]
    order_ok = starts == sorted(starts)
    # Dominance per sample: compare compute vs I/O time on each machine.
    machine_src = backend("thinkie").machine
    machine_dst = backend("comet").machine
    flips = 0
    checked = 0
    for sample in prof.samples:
        cycles = sample.get("cpu.cycles_used")
        written = sample.get("io.bytes_written")
        if cycles <= 0 or written <= 0:
            continue
        checked += 1
        src_cpu = cycles / machine_src.cpu.frequency
        src_io = machine_src.filesystem("local").write_time(int(written), 1 << 20)
        dst_cpu = cycles * 1.145 / machine_dst.cpu.frequency  # asm bias
        dst_io = machine_dst.filesystem("nfs").write_time(int(written), 1 << 20)
        if (src_cpu > src_io) != (dst_cpu > dst_io):
            flips += 1
    return order_ok, checked, flips


def test_fig2_sampling_rate_vs_replay_speedup():
    app_tx, rows = compute_fig2()
    order_ok, checked, flips = compute_fig3()
    table = Table(
        ["rate [Hz]", "samples", "replay Tx [s]", "app/replay speed-up"],
        title=f"Fig 2 ablation: serial burst app (Tx={app_tx:.1f}s) replayed",
    )
    for row in rows:
        table.add_row(row)
    note = (
        f"\nFig 3 ablation (thinkie profile on comet/nfs): sample order "
        f"preserved={order_ok}; dominating resource flipped in {flips}/{checked} "
        "mixed samples."
    )
    report("Fig 2/3: Sampling effects (§4.4)", table.render() + note)

    speedups = {rate: speedup for rate, _, _, speedup in rows}
    # Coarse sampling: serial bursts replay concurrently -> speed-up.
    assert speedups[RATES[0]] > 1.4
    # Fine sampling re-serialises the bursts: speed-up approaches 1.
    assert speedups[RATES[-1]] < 1.15
    # The effect shrinks monotonically-ish with the rate.
    assert speedups[RATES[-1]] < speedups[2.0] <= speedups[0.2] + 0.05
    # Fig 3: order always preserved; dominance flips on this machine pair.
    assert order_ok
    assert flips > 0
