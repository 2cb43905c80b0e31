"""E.7 (extension) — Simulation-plane throughput: the fast path pays off.

The paper's experiments (E.1–E.6) and every ``repro.predict`` validation
replay funnel through ``Engine.run`` plus the profiler; the placement
companion paper needs *many* emulated runs per decision, so simulator
throughput is a first-class metric (the ROADMAP's "as fast as the
hardware allows").  This benchmark measures, on a demand-heavy workload:

* **engine runs/sec** — ``Engine.run`` via ``SimBackend.spawn``, each
  run's counter series read (``record.totals()``), because a replay
  folds its counters only when somebody reads them;
* **profiled runs/sec (grid fast path)** — a full profile run where the
  sim plane samples the whole policy grid in one vectorised shot;
* **profiled runs/sec (lockstep)** — the same run forced through the
  scalar per-sample lockstep driver (the host-plane-equivalent path),
  isolating what grid sampling buys;
* **batch scaling** — a batch of ``engine`` run requests through
  :class:`~repro.runtime.RunService` across worker processes vs one;
* **pool reuse** — repeated batches of them through one persistent
  :class:`~repro.runtime.RunService` pool vs a fresh pool per batch,
  isolating the per-batch pool-startup cost the persistent service
  amortises away.

Results are written as machine-readable JSON
(``benchmarks/results/BENCH_e7_throughput.json``) so the repo's perf
trajectory can be diffed PR over PR.  The committed baseline constants
below were measured on the pre-vectorisation engine (PR 1 state) on the
same machine class that produced the committed result file.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_e7_throughput.py [--quick] [--out X.json]

or through pytest: ``pytest benchmarks/bench_e7_throughput.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.runtime import RunRequest, RunService
from repro.sim.backend import SimBackend
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
)
from repro.sim.workload import SimWorkload
from repro.util.tables import Table

#: Scalar-engine throughput measured immediately before the vectorised
#: fast path landed (same workload, machine and measurement window).
BASELINE_PRE_PR = {
    "engine_runs_per_sec": 53.0,
    "profiled_runs_per_sec": 48.3,
}

MACHINE = "thinkie"
SAMPLE_RATE = 2.0


def heavy_workload(n_demands: int = 1200, name: str = "e7-heavy") -> SimWorkload:
    """Mixed demand-heavy workload: 4 phases x 2 concurrent streams."""
    workload = SimWorkload(name=name)
    per_stream = max(1, n_demands // 8)
    for p in range(4):
        phase = workload.phase(f"p{p}")
        for s in range(2):
            stream = phase.stream(f"s{s}")
            for i in range(per_stream):
                kind = i % 5
                if kind == 0:
                    stream.add(ComputeDemand(
                        instructions=2e7,
                        workload_class="app.md",
                        flops_per_instruction=0.3,
                    ))
                elif kind == 1:
                    stream.add(IODemand(bytes_read=1 << 20, bytes_written=1 << 19))
                elif kind == 2:
                    stream.add(MemoryDemand(allocate=4 << 20, free=2 << 20))
                elif kind == 3:
                    stream.add(NetworkDemand(
                        bytes_sent=256 << 10, bytes_received=128 << 10
                    ))
                else:
                    stream.add(ComputeDemand(
                        instructions=1e7, threads=2, paradigm="openmp"
                    ))
    return workload


class _LockstepProfiler(Profiler):
    """Profiler with the grid fast path disabled (scalar lockstep)."""

    def _blocks(self, handles) -> None:
        return None


def record_totals(record) -> dict:
    """Worker-side reducer: ship summary totals, not full histories."""
    return record.totals()


def engine_requests(
    workload: SimWorkload, n: int, reduce=record_totals
) -> list[RunRequest]:
    """Spawn slots 1..n of ``SimBackend(MACHINE, seed=0)`` running
    ``workload``, as engine requests whose totals fold in the worker."""
    return [
        RunRequest(kind="engine", target=workload, machine=MACHINE,
                   seed=0, index=index, reduce=reduce)
        for index in range(1, n + 1)
    ]


def _rate(fn, seconds: float, min_rounds: int = 3) -> float:
    """Executions per second of ``fn`` over a fixed wall-clock window."""
    fn()  # warm-up (also keeps one-time import costs out of the window)
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds or rounds < min_rounds:
        fn()
        rounds += 1
    return rounds / (time.perf_counter() - start)


def measure_telemetry_overhead(
    workload: SimWorkload, rounds: int = 4, per_round: int = 100
) -> dict:
    """Cost of the always-on telemetry on the bare engine hot path.

    Compares best-of-N wall time of the instrumented ``Engine.run``
    (dark-bus ``span()`` — no sink attached) against the same two steps
    outside the span, ``prepare`` + ``Engine._records``.  Minimum-of-many is robust against scheduler
    noise, which on shared CI hosts dwarfs the ~2 µs span cost; the
    budget the telemetry plane commits to is < 3 %.
    """
    from repro.sim.engine import Engine  # noqa: PLC0415 - measurement-only
    from repro.sim.machines import get_machine  # noqa: PLC0415
    from repro.sim.noise import NoiseModel  # noqa: PLC0415

    engine = Engine(get_machine(MACHINE), NoiseModel(seed=0))

    def bare_run() -> None:
        engine._records(engine.prepare(workload), [engine.noise])

    for _ in range(min(50, per_round)):
        bare_run()  # warm-up

    def best(fn) -> float:
        times = []
        for _ in range(per_round):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    instrumented, bare = [], []
    for _ in range(rounds):
        instrumented.append(best(lambda: engine.run(workload)))
        bare.append(best(bare_run))
    inst_s, bare_s = min(instrumented), min(bare)
    return {
        "instrumented_best_seconds": inst_s,
        "bare_best_seconds": bare_s,
        "overhead_pct": 100.0 * (inst_s - bare_s) / bare_s if bare_s else 0.0,
        "budget_pct": 3.0,
    }


def measure_pool_reuse(
    workload: SimWorkload,
    batches: int = 4,
    batch_size: int = 8,
    processes: int = 2,
) -> dict:
    """Per-batch cost of repeated engine batches, fresh pool vs
    persistent service pool.

    ``fresh`` closes the service after every batch (pool startup per
    batch); ``persistent``
    reuses one service, so only its first batch pays startup.  Results
    are bit-identical across both modes — only the wall time differs.
    """

    def one_batch(service: RunService) -> float:
        requests = engine_requests(workload, batch_size)
        start = time.perf_counter()
        service.run(requests, processes=processes)
        return time.perf_counter() - start

    fresh = []
    for _ in range(batches):
        with RunService(processes=processes) as service:
            fresh.append(one_batch(service))

    persistent = RunService(processes=processes)
    try:
        reused = [one_batch(persistent) for _ in range(batches)]
        pool_starts = persistent.stats["pool_starts"]
        fallbacks = persistent.stats["fallbacks"]
    finally:
        persistent.close()

    fresh_mean = sum(fresh) / len(fresh)
    warm = reused[1:] if len(reused) > 1 else reused
    warm_mean = sum(warm) / len(warm)
    return {
        "batches": batches,
        "batch_size": batch_size,
        "processes": processes,
        "fresh_pool_seconds": fresh,
        "persistent_pool_seconds": reused,
        "fresh_mean_seconds": fresh_mean,
        "persistent_warm_mean_seconds": warm_mean,
        "startup_cost_per_batch_seconds": fresh_mean - warm_mean,
        "persistent_speedup": fresh_mean / warm_mean if warm_mean else 0.0,
        "persistent_pool_starts": pool_starts,
        "pool_fallbacks": fallbacks,
    }


def measure(
    n_demands: int = 1200,
    seconds: float = 2.0,
    batch: int = 32,
    processes: int = 4,
) -> dict:
    """All E7 throughput numbers as a plain-data dict."""
    workload = heavy_workload(n_demands)

    engine_backend = SimBackend(MACHINE, noisy=True, seed=0)
    engine_rate = _rate(
        lambda: engine_backend.spawn(workload).record.totals(), seconds
    )

    config = SynapseConfig(sample_rate=SAMPLE_RATE)

    def profiled_fast() -> None:
        backend = SimBackend(MACHINE, noisy=True, seed=0)
        Profiler(backend, config=config).run(workload)

    def profiled_lockstep() -> None:
        backend = SimBackend(MACHINE, noisy=True, seed=0)
        _LockstepProfiler(backend, config=config).run(workload)

    fast_rate = _rate(profiled_fast, seconds)
    lockstep_rate = _rate(profiled_lockstep, seconds)

    # Batch fan-out: the experiment pattern is "replay many, keep the
    # summaries", so the reducer runs in the workers and only totals
    # cross the process boundary.  Scaling beyond 1x needs real cores —
    # on a single-core host the pool measures pure overhead, so the
    # cpu_count is part of the result.
    cores = os.cpu_count() or 1
    with RunService() as service:
        t0 = time.perf_counter()
        service.run(engine_requests(workload, batch), processes=1)
        serial_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        service.run(engine_requests(workload, batch), processes=processes)
        parallel_seconds = time.perf_counter() - t0

    pool_reuse = measure_pool_reuse(
        workload,
        batch_size=max(2, batch // 4),
        processes=min(2, processes),
    )

    telemetry_overhead = measure_telemetry_overhead(
        workload, per_round=max(20, int(50 * seconds))
    )

    return {
        "workload": {
            "machine": MACHINE,
            "n_demands": workload.n_demands,
            "sample_rate": SAMPLE_RATE,
            "measure_seconds": seconds,
        },
        "host_cpu_count": cores,
        "engine_runs_per_sec": engine_rate,
        "profiled_runs_per_sec": fast_rate,
        "profiled_runs_per_sec_lockstep": lockstep_rate,
        "grid_sampling_speedup": fast_rate / lockstep_rate if lockstep_rate else 0.0,
        "baseline_pre_pr": dict(BASELINE_PRE_PR),
        "engine_speedup_vs_pre_pr": engine_rate / BASELINE_PRE_PR["engine_runs_per_sec"],
        "profiled_speedup_vs_pre_pr": (
            fast_rate / BASELINE_PRE_PR["profiled_runs_per_sec"]
        ),
        "batch": {
            "n_workloads": batch,
            "processes": processes,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "parallel_speedup": (
                serial_seconds / parallel_seconds if parallel_seconds else 0.0
            ),
            "scaling_measurable": cores >= 2,
        },
        "pool_reuse": pool_reuse,
        "telemetry_overhead": telemetry_overhead,
    }


def as_table(results: dict) -> Table:
    table = Table(
        ["metric", "runs/sec", "vs pre-PR baseline"],
        title=(
            f"E7 sim-plane throughput ({results['workload']['n_demands']} demands, "
            f"{results['workload']['machine']})"
        ),
    )
    table.add_row([
        "engine only",
        results["engine_runs_per_sec"],
        f"{results['engine_speedup_vs_pre_pr']:.1f}x",
    ])
    table.add_row([
        "profiled (grid fast path)",
        results["profiled_runs_per_sec"],
        f"{results['profiled_speedup_vs_pre_pr']:.1f}x",
    ])
    table.add_row([
        "profiled (lockstep)",
        results["profiled_runs_per_sec_lockstep"],
        "-",
    ])
    batch = results["batch"]
    note = (
        f"{batch['parallel_speedup']:.1f}x vs serial"
        if batch["scaling_measurable"]
        else f"n/a ({results['host_cpu_count']} core host)"
    )
    table.add_row([
        f"engine batch x{batch['n_workloads']} on {batch['processes']} procs",
        batch["n_workloads"] / batch["parallel_seconds"],
        note,
    ])
    reuse = results["pool_reuse"]
    table.add_row([
        f"pool reuse x{reuse['batches']} batches of {reuse['batch_size']}",
        reuse["batch_size"] / reuse["persistent_warm_mean_seconds"],
        (
            f"{reuse['persistent_speedup']:.1f}x vs fresh pool/batch "
            f"(startup {reuse['startup_cost_per_batch_seconds'] * 1e3:.0f} ms/batch)"
        ),
    ])
    overhead = results["telemetry_overhead"]
    table.add_row([
        "telemetry overhead (dark bus)",
        1.0 / overhead["instrumented_best_seconds"],
        f"{overhead['overhead_pct']:+.2f}% (budget <{overhead['budget_pct']:.0f}%)",
    ])
    return table


def test_e7_throughput():
    """Pytest entry: quick measurement + report registration."""
    from harness import report  # noqa: PLC0415 - pytest-only plumbing

    results = measure(seconds=0.5, batch=8, processes=2)
    assert results["engine_runs_per_sec"] > 0
    assert results["profiled_runs_per_sec"] > 0
    reuse = results["pool_reuse"]
    # The persistent service starts its pool exactly once for all
    # batches — unless this host cannot run a pool at all, in which
    # case the serial fallback kicked in and pool accounting is moot.
    if reuse["pool_fallbacks"] == 0:
        assert reuse["persistent_pool_starts"] == 1
    assert reuse["persistent_warm_mean_seconds"] > 0
    # Dark-bus instrumentation stays inside its budget (generous slack
    # for noisy CI hosts; the committed full run measures < 1 %).
    assert results["telemetry_overhead"]["overhead_pct"] < 10.0
    report("E7: sim-plane throughput", str(as_table(results)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny workload counts (CI smoke: completes in seconds)",
    )
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--demands", type=int, default=1200)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--processes", type=int, default=4)
    parser.add_argument("--out", default=None, help="output JSON path override")
    args = parser.parse_args()

    if args.quick:
        args.seconds = min(args.seconds, 0.3)
        args.demands = min(args.demands, 200)
        args.batch = min(args.batch, 4)
        args.processes = min(args.processes, 2)

    results = measure(
        n_demands=args.demands,
        seconds=args.seconds,
        batch=args.batch,
        processes=args.processes,
    )
    from harness import write_json_result  # noqa: PLC0415 - script-only import

    name = "BENCH_e7_throughput" + ("_quick" if args.quick else "")
    path = write_json_result(name, results, out=args.out)
    print(as_table(results))
    print(f"\nJSON results: {path}")
    print(json.dumps({k: results[k] for k in (
        "engine_runs_per_sec",
        "profiled_runs_per_sec",
        "engine_speedup_vs_pre_pr",
        "profiled_speedup_vs_pre_pr",
    )}, indent=1))


if __name__ == "__main__":
    main()
