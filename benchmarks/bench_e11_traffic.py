"""E.11 — Traffic plane: trace replay through a queue-aware fleet.

The paper's emulator exists so platform studies can replay application
load cheaply (Synapse, IPDPS 2016); the traffic plane extends the replay
from single workloads to *serving*: a 10⁶-request arrival trace streamed
through a simulated multi-machine fleet with per-machine queues, EFT
dispatch on the analytic predictor's unit costs, and engine-ledger
accounting per (machine, class) stream.  This benchmark measures:

* **replay throughput** — sustained simulated requests per wall second
  replaying the full trace through a 4-machine fleet (FIFO + EFT,
  engine ledgers on), with p50/p99 end-to-end latency from the run;
* **determinism** — the latency-record digest and engine-ledger digest
  must be identical across (a) two seed-matched reruns and (b) a run
  interrupted mid-trace by a JSON checkpoint/restore round trip — both
  asserted in-process, so the benchmark *fails* on divergence;
* **memory** — subprocess peak RSS of the streaming replay at the full
  and quarter trace lengths: bounded by the chunk size, not the trace.

The arrival trace is itself deterministic (seeded exponential gaps at
~70 % of the fleet's predicted aggregate capacity) and is replayed via
``trace:``-style :class:`~repro.traffic.arrivals.TraceReplay`, so every
number here is a pure function of the seed.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_e11_traffic.py [--quick] [--out X.json]

or through pytest: ``pytest benchmarks/bench_e11_traffic.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys

import numpy as np

from repro.traffic.arrivals import TraceReplay
from repro.traffic.sim import TrafficSim
from repro.traffic.workload import default_mix, unit_seconds
from repro.util.tables import Table

MACHINES = ["thinkie", "comet", "stampede", "archer"]
TRACE_SEED = 20160523  # the paper's conference date; any constant works
MIX_SEED = 11
UTILIZATION = 0.70
CHUNK = 8192


def build_trace(n_requests: int) -> np.ndarray:
    """Seeded Poisson arrival trace at ~70 % of fleet capacity.

    Capacity is estimated from the same analytic unit costs the fleet
    dispatches on: per machine, the mix-weighted mean service time;
    aggregate rate is the sum of inverses.
    """
    mix = default_mix(seed=MIX_SEED)
    units = unit_seconds(mix.classes, MACHINES)
    weights = np.asarray([c.weight for c in mix.classes])
    weights = weights / weights.sum()
    capacity = float(np.sum(1.0 / (weights @ units)))
    rate = UTILIZATION * capacity
    rng = np.random.Generator(np.random.PCG64(TRACE_SEED))
    return np.cumsum(rng.exponential(1.0 / rate, n_requests))


def _make_sim(trace: np.ndarray, engine: bool = True) -> TrafficSim:
    return TrafficSim(
        TraceReplay(trace),
        MACHINES,
        default_mix(seed=MIX_SEED),
        discipline="fifo",
        dispatch="eft",
        engine=engine,
        name="e11",
    )


def _replay(trace: np.ndarray) -> dict:
    report = _make_sim(trace).run(len(trace), chunk=CHUNK)
    return report.to_dict()


def _replay_with_checkpoint(trace: np.ndarray) -> dict:
    """Replay interrupted mid-trace by a JSON checkpoint round trip."""
    n = len(trace)
    head = n // 2
    sim = _make_sim(trace)
    sim.feed(head, chunk=CHUNK)
    state = json.loads(json.dumps(sim.checkpoint()))
    resumed = TrafficSim.restore(state, trace=trace)
    resumed.feed(n - head, chunk=CHUNK)
    return resumed.finish().to_dict()


def _digests(report: dict) -> tuple[str, str]:
    return report["latency_digest"], report["ledger_digest"]


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    """Clear the inherited high-water RSS mark (Linux)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return _rss_mb()


# -- subprocess RSS probe ----------------------------------------------------
#
# Peak RSS is a process-lifetime maximum, so each memory point replays
# the trace in a fresh child interpreter (`--child replay:N`), printing
# a JSON line with its peak RSS, wall time, and digests — the parent
# also cross-checks child digests against its own run.


def _child(mode: str) -> None:
    _reset_peak_rss()
    kind, *params = mode.split(":")
    if kind != "replay":  # pragma: no cover - defensive
        raise SystemExit(f"unknown child mode {mode!r}")
    n = int(params[0])
    report = _replay(build_trace(n))
    print(json.dumps({
        "n": n,
        "wall_seconds": report["wall_seconds"],
        "requests_per_sec": report["sim_requests_per_sec"],
        "latency_digest": report["latency_digest"],
        "ledger_digest": report["ledger_digest"],
        "max_rss_mb": _peak_rss_mb(),
    }))


def _probe(mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", mode],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- measurement -------------------------------------------------------------


def measure(n_requests: int = 1_000_000, quick: bool = False) -> dict:
    """All E11 numbers as a plain-data dict (asserts determinism)."""
    trace = build_trace(n_requests)

    first = _replay(trace)
    rerun = _replay(trace)
    assert _digests(first) == _digests(rerun), (
        "seed-matched rerun diverged: "
        f"{_digests(first)} vs {_digests(rerun)}"
    )
    resumed = _replay_with_checkpoint(trace)
    assert _digests(first) == _digests(resumed), (
        "checkpoint/restore replay diverged: "
        f"{_digests(first)} vs {_digests(resumed)}"
    )

    rss_full = _probe(f"replay:{n_requests}")
    rss_quarter = _probe(f"replay:{max(CHUNK, n_requests // 4)}")
    assert rss_full["latency_digest"] == first["latency_digest"], (
        "child-process replay diverged from in-process replay"
    )

    latency = first["latency"]
    return {
        "workload": {
            "machines": MACHINES,
            "requests": n_requests,
            "trace_seed": TRACE_SEED,
            "target_utilization": UTILIZATION,
            "discipline": "fifo",
            "dispatch": "eft",
            "chunk": CHUNK,
        },
        "replay": {
            "wall_seconds": first["wall_seconds"],
            "requests_per_sec": first["sim_requests_per_sec"],
            "offered_rate": first["offered_rate"],
            "throughput": first["throughput"],
            "virtual_horizon_seconds": first["horizon"],
            "utilization": {
                m["name"]: m["utilization"] for m in first["machines"]
            },
        },
        "latency": {
            "mean_ms": latency["mean"] * 1e3,
            "p50_ms": latency["p50"] * 1e3,
            "p90_ms": latency["p90"] * 1e3,
            "p99_ms": latency["p99"] * 1e3,
            "max_ms": latency["max"] * 1e3,
            "mean_wait_ms": first["wait"]["mean"] * 1e3,
        },
        "determinism": {
            "latency_digest": first["latency_digest"],
            "ledger_digest": first["ledger_digest"],
            "rerun_identical": True,
            "checkpoint_restore_identical": True,
            "subprocess_identical": True,
        },
        "memory": {
            "replay_full": rss_full,
            "replay_quarter": rss_quarter,
            "rss_ratio_full_vs_quarter": (
                rss_full["max_rss_mb"] / rss_quarter["max_rss_mb"]
            ),
        },
    }


def as_table(results: dict) -> Table:
    workload = results["workload"]
    table = Table(
        ["metric", "value"],
        title=(
            f"E11 traffic replay ({workload['requests']:,} requests, "
            f"{len(workload['machines'])} machines)"
        ),
    )
    replay = results["replay"]
    latency = results["latency"]
    memory = results["memory"]
    table.add_row(["sustained replay rate", f"{replay['requests_per_sec']:,.0f} req/s"])
    table.add_row(["offered rate (virtual)", f"{replay['offered_rate']:,.1f} req/s"])
    table.add_row(["latency p50", f"{latency['p50_ms']:.3f} ms"])
    table.add_row(["latency p99", f"{latency['p99_ms']:.3f} ms"])
    table.add_row(["mean queue wait", f"{latency['mean_wait_ms']:.3f} ms"])
    table.add_row([
        "mean fleet utilization",
        f"{np.mean(list(replay['utilization'].values())) * 100:.1f} %",
    ])
    table.add_row([
        "RSS full / quarter trace",
        f"{memory['replay_full']['max_rss_mb']:.0f} / "
        f"{memory['replay_quarter']['max_rss_mb']:.0f} MB "
        f"(ratio {memory['rss_ratio_full_vs_quarter']:.2f})",
    ])
    table.add_row(["latency digest", results["determinism"]["latency_digest"]])
    table.add_row(["ledger digest", results["determinism"]["ledger_digest"]])
    return table


def test_e11_traffic_quick():
    """CI-speed smoke: digest stability + finite tail + bounded RSS."""
    from harness import report  # noqa: PLC0415 - pytest-only plumbing

    results = measure(n_requests=20_000, quick=True)
    assert results["determinism"]["rerun_identical"]
    assert results["determinism"]["checkpoint_restore_identical"]
    p99 = results["latency"]["p99_ms"]
    assert np.isfinite(p99) and p99 > 0
    # Replay memory must not scale with the trace length (wide slack:
    # at smoke scale both sides are interpreter baseline).
    assert results["memory"]["rss_ratio_full_vs_quarter"] < 1.5
    assert results["memory"]["replay_full"]["max_rss_mb"] < 512
    report("E11: traffic replay", str(as_table(results)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny trace (CI smoke: completes in seconds)",
    )
    parser.add_argument("--requests", type=int, default=1_000_000)
    parser.add_argument("--out", default=None, help="output JSON path override")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        _child(args.child)
        return

    if args.quick:
        args.requests = min(args.requests, 20_000)

    results = measure(n_requests=args.requests, quick=args.quick)
    if args.quick:
        assert results["memory"]["replay_full"]["max_rss_mb"] < 512
    from harness import write_json_result  # noqa: PLC0415 - script-only import

    name = "BENCH_e11_traffic" + ("_quick" if args.quick else "")
    path = write_json_result(name, results, out=args.out)
    print(as_table(results))
    print(f"\nJSON results: {path}")
    print(json.dumps({
        "requests_per_sec": results["replay"]["requests_per_sec"],
        "p50_ms": results["latency"]["p50_ms"],
        "p99_ms": results["latency"]["p99_ms"],
        "rss_ratio": results["memory"]["rss_ratio_full_vs_quarter"],
    }, indent=1))


if __name__ == "__main__":
    main()
