"""E.10 — Columnar engine end-to-end: packed workloads and streaming runs.

The paper's emulator exists so platform sweeps can replay application
resource consumption cheaply (Synapse, IPDPS 2016); the ROADMAP's
10⁶–10⁷-demand engine tier needs the workload→engine→timeline path to
stop allocating per-demand Python objects.  This benchmark measures, on
a paper-faithful mixed workload (compute / I/O / memory / network /
OpenMP chunks, the per-sample shape ``core/plan.py`` emits):

* **batch mode** — end-to-end ``build workload + Engine.run`` and
  run-only wall time, object API vs :class:`PackedBuilder` bulk
  columns, with bit-identical records asserted via a full-timeline
  digest (silent and seeded-noise runs both);
* **arrival mode** — a campaign day whose demands arrive in hourly
  waves.  Pre-PR code has no incremental mode: to keep timelines (and
  any resumption point) current it re-runs the concatenated workload
  after every wave, which is quadratic in the day.  The streaming
  engine (:meth:`Engine.open_stream`) consumes each wave once;
* **memory** — subprocess peak RSS of streaming runs at two total
  sizes with the same per-wave batch size (bounded by batch, not
  workload) against full-run and object-workload footprints;
* **seed blocks** — eight seeds of one 10⁴-demand plan through one
  ``Engine.replay_many`` call (the campaign-cell regime: many seeds of
  a small plan), digest-equal to eight ``Engine.run`` calls and under
  the same RSS ceiling as the streaming runs.

Baseline constants below were measured at the pre-PR commit
(``1a7006d``, the seed of this PR) on the same machine class that
produced the committed result file: fresh process per trial, median of
three for batch numbers, ``NoiseModel.silent()`` unless noted.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_e10_columnar.py [--quick] [--out X.json]

or through pytest: ``pytest benchmarks/bench_e10_columnar.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time

import numpy as np

from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
)
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedBuilder, PackedWorkload
from repro.sim.workload import SimWorkload
from repro.util.tables import Table

MACHINE = "thinkie"

#: Pre-PR engine measured at commit 1a7006d on a ~10⁶-demand mixed
#: workload (24 phases x 2 streams).  ``arrivals_recompute_seconds`` is
#: the 24-wave re-run-per-arrival loop described in the module
#: docstring; the object workload is built once up front (generously —
#: a real arrival loop would also pay incremental build cost).
BASELINE_PRE_PR = {
    "commit": "1a7006d",
    "n_demands": 999_840,
    "waves": 24,
    "build_seconds": 1.80,
    "run_seconds": 2.85,
    "noisy_run_seconds": 5.96,
    "arrivals_recompute_seconds": 31.60,
    "max_rss_mb": 553.3,
}

#: Demand mix for one (phase, stream): five equal same-kind chunks.
#: Chunked (not round-robin) so the object and bulk-columnar builders
#: can emit byte-identical demand sequences.
_KINDS = 5


def build_object_workload(
    n_demands: int, phases: int = 24, streams: int = 2, name: str = "e10"
) -> SimWorkload:
    """Mixed campaign workload on the per-demand object API."""
    workload = SimWorkload(name=name)
    per = max(1, n_demands // (phases * streams * _KINDS))
    for p in range(phases):
        phase = workload.phase(f"p{p}")
        for s in range(streams):
            stream = phase.stream(f"s{s}")
            for _ in range(per):
                stream.add(ComputeDemand(
                    instructions=2e7,
                    workload_class="app.md",
                    flops_per_instruction=0.3,
                ))
            for _ in range(per):
                stream.add(IODemand(bytes_read=1 << 20, bytes_written=1 << 19))
            for _ in range(per):
                stream.add(MemoryDemand(allocate=4 << 20, free=2 << 20))
            for _ in range(per):
                stream.add(NetworkDemand(
                    bytes_sent=256 << 10, bytes_received=128 << 10
                ))
            for _ in range(per):
                stream.add(ComputeDemand(
                    instructions=1e7, threads=2, paradigm="openmp"
                ))
    return workload


def _bulk_stream(b: PackedBuilder, per: int) -> None:
    b.compute_many(
        np.full(per, 2e7), workload_class="app.md", flops_per_instruction=0.3
    )
    b.io_many(bytes_read=np.full(per, 1 << 20, dtype=np.int64),
              bytes_written=1 << 19)
    b.memory_many(allocate=np.full(per, 4 << 20, dtype=np.int64), free=2 << 20)
    b.network_many(bytes_sent=np.full(per, 256 << 10, dtype=np.int64),
                   bytes_received=128 << 10)
    b.compute_many(np.full(per, 1e7), threads=2, paradigm="openmp")


def build_packed_workload(
    n_demands: int, phases: int = 24, streams: int = 2, name: str = "e10"
) -> PackedWorkload:
    """The same workload as columns — no per-demand objects anywhere."""
    b = PackedBuilder(name)
    per = max(1, n_demands // (phases * streams * _KINDS))
    for p in range(phases):
        b.phase(f"p{p}")
        for s in range(streams):
            b.stream(f"s{s}")
            _bulk_stream(b, per)
    return b.build()


def build_packed_batch(
    per_kind: int, phase_name: str, streams: int = 2
) -> PackedWorkload:
    """One arrival wave (a single phase group) in columnar form."""
    b = PackedBuilder("e10-wave")
    b.phase(phase_name)
    for s in range(streams):
        b.stream(f"s{s}")
        _bulk_stream(b, per_kind)
    return b.build()


def record_digest(record) -> str:
    """SHA-256 over the full observable timeline of a record.

    Covers duration, phase bounds, every counter and level series
    (times and values byte-exact), and every I/O event — equal digests
    mean bit-identical runs.
    """
    h = hashlib.sha256()
    h.update(np.float64(record.duration).tobytes())
    h.update(repr(record.phase_bounds).encode())
    for group in (record.counters, record.levels):
        for name in sorted(group):
            series = group[name]
            h.update(name.encode())
            h.update(series.times.tobytes())
            h.update(series.values.tobytes())
    for event in record.io_events:
        h.update(repr(tuple(event)).encode())
    return h.hexdigest()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reset_peak_rss() -> None:
    """Clear the process's high-water RSS mark (Linux).

    ``ru_maxrss``/``VmHWM`` survive ``fork``+``exec``, so a child forked
    from a large parent inherits the parent's peak; resetting at child
    start makes the subsequent reading the child's own.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    """Peak RSS since the last reset (falls back to ``ru_maxrss``)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return _rss_mb()


def _time(fn, repeats: int = 1) -> tuple[float, float]:
    """(first, best-of-repeats) wall seconds of ``fn``."""
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    best = first
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return first, best


# -- subprocess RSS probes ---------------------------------------------------
#
# Peak RSS is a process-lifetime maximum, so every memory point runs in
# a fresh child interpreter: `--child stream:N:WAVES` feeds a streaming
# run wave by wave (records dropped as they are produced), and
# `--child full-packed:N` / `--child full-objects:N` execute one batch
# run.  Children print a JSON line consumed by the parent.


def _child(mode: str) -> None:
    _reset_peak_rss()
    kind, *params = mode.split(":")
    if kind == "stream":
        n, waves = int(params[0]), int(params[1])
        per_kind = max(1, n // (waves * 2 * _KINDS))
        stream = Engine(get_machine(MACHINE), NoiseModel.silent()).open_stream(
            name="e10", base_rss=2 << 20
        )
        t0 = time.perf_counter()
        for k in range(waves):
            stream.feed(build_packed_batch(per_kind, f"p{k}"))
        out = {"seconds": time.perf_counter() - t0, "n": waves * per_kind * 2 * _KINDS}
    elif kind == "full-packed":
        n = int(params[0])
        workload = build_packed_workload(n)
        engine = Engine(get_machine(MACHINE), NoiseModel.silent())
        t0 = time.perf_counter()
        engine.run(workload)
        out = {"seconds": time.perf_counter() - t0, "n": workload.n}
    elif kind == "full-objects":
        n = int(params[0])
        workload = build_object_workload(n)
        engine = Engine(get_machine(MACHINE), NoiseModel.silent())
        t0 = time.perf_counter()
        engine.run(workload)
        out = {"seconds": time.perf_counter() - t0, "n": workload.n_demands}
    elif kind == "replay":
        n, rows = int(params[0]), int(params[1])
        machine = get_machine(MACHINE)
        plan = Engine(machine).prepare(build_packed_workload(n))
        t0 = time.perf_counter()
        block = Engine(machine).replay_many(
            plan, [NoiseModel(seed=seed) for seed in range(rows)]
        )
        seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        singles = [
            Engine(machine, NoiseModel(seed=seed)).run(plan) for seed in range(rows)
        ]
        out = {
            "seconds": seconds,
            "run_seconds": time.perf_counter() - t0,
            "n": plan.n,
            "rows": rows,
            "digests_identical": [record_digest(r) for r in block]
            == [record_digest(r) for r in singles],
        }
    else:  # pragma: no cover - defensive
        raise SystemExit(f"unknown child mode {mode!r}")
    out["max_rss_mb"] = _peak_rss_mb()
    print(json.dumps(out))


def _probe(mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", mode],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- measurement -------------------------------------------------------------


def measure(n_demands: int = 1_000_000, waves: int = 24, quick: bool = False) -> dict:
    """All E10 numbers as a plain-data dict (asserts bit-identity)."""
    machine = get_machine(MACHINE)

    # Batch mode: objects vs columns, end to end.
    t0 = time.perf_counter()
    objects = build_object_workload(n_demands, phases=waves)
    objects_build = time.perf_counter() - t0
    engine = Engine(machine, NoiseModel.silent())
    objects_run_first, objects_run_best = _time(
        lambda: engine.run(objects), repeats=2
    )
    objects_digest = record_digest(engine.run(objects))

    t0 = time.perf_counter()
    packed = build_packed_workload(n_demands, phases=waves)
    packed_build = time.perf_counter() - t0
    packed_run_first, packed_run_best = _time(lambda: engine.run(packed), repeats=3)
    packed_digest = record_digest(engine.run(packed))
    assert packed_digest == objects_digest, "packed run diverged from scalar run"

    # Same check under seeded noise: fresh engines, same seed, same draws.
    noisy_digest_obj = record_digest(
        Engine(machine, NoiseModel(seed=7)).run(objects)
    )
    t0 = time.perf_counter()
    noisy_record = Engine(machine, NoiseModel(seed=7)).run(packed)
    packed_noisy_run = time.perf_counter() - t0
    assert record_digest(noisy_record) == noisy_digest_obj, (
        "packed noisy run diverged from scalar noisy run"
    )

    # Arrival mode: hourly waves through one stream, records dropped as
    # they are produced (the bounded-memory consumption pattern).
    per_kind = max(1, n_demands // (waves * 2 * _KINDS))
    stream = Engine(machine, NoiseModel.silent()).open_stream(
        name="e10", base_rss=2 << 20
    )
    t0 = time.perf_counter()
    last_totals: dict[str, float] = {}
    for k in range(waves):
        stream.feed(build_packed_batch(per_kind, f"p{k}"))
    stream_seconds = time.perf_counter() - t0
    last_totals = stream.totals()
    full_totals = engine.run(packed).totals()
    for name, value in last_totals.items():
        assert value == full_totals.get(name, value), name

    # Memory: streaming at two total sizes, same per-wave batch size.
    small_waves = max(2, waves // 4)
    rss_stream_full = _probe(f"stream:{n_demands}:{waves}")
    rss_stream_small = _probe(
        f"stream:{per_kind * 2 * _KINDS * small_waves}:{small_waves}"
    )
    rss_ratio = rss_stream_full["max_rss_mb"] / rss_stream_small["max_rss_mb"]
    memory = {
        "stream_full": rss_stream_full,
        "stream_quarter": rss_stream_small,
        "stream_rss_ratio_full_vs_quarter": rss_ratio,
    }
    if not quick:
        memory["full_packed"] = _probe(f"full-packed:{n_demands}")
        memory["full_objects"] = _probe(f"full-objects:{n_demands}")

    # Seed blocks, at the smoke size whatever the run's: a block exists
    # for small plans, a 10⁶-demand plan replays row by row.
    replay = _probe(f"replay:{min(n_demands, 10_000)}:8")
    assert replay["digests_identical"], "replay_many diverged from eight runs"

    results = {
        "workload": {
            "machine": MACHINE,
            "n_demands": packed.n,
            "waves": waves,
            "mix": "compute/io/memory/network/openmp chunks, 2 streams/phase",
        },
        "batch": {
            "objects_build_seconds": objects_build,
            "objects_run_first_seconds": objects_run_first,
            "objects_run_best_seconds": objects_run_best,
            "packed_build_seconds": packed_build,
            "packed_run_first_seconds": packed_run_first,
            "packed_run_best_seconds": packed_run_best,
            "packed_noisy_run_seconds": packed_noisy_run,
            "build_speedup": objects_build / packed_build,
            "run_speedup": objects_run_best / packed_run_best,
            "end_to_end_speedup": (
                (objects_build + objects_run_first)
                / (packed_build + packed_run_first)
            ),
        },
        "arrivals": {
            "stream_seconds": stream_seconds,
            "stream_demands_per_sec": packed.n / stream_seconds,
        },
        "memory": memory,
        "replay_many": replay,
        "digest": packed_digest,
        "digests_identical": True,
    }

    # Compare against the committed pre-PR constants only at the scale
    # they were measured (the full run that produces the committed JSON).
    baseline_scale = (
        abs(packed.n - BASELINE_PRE_PR["n_demands"]) < 0.01 * packed.n
        and waves == BASELINE_PRE_PR["waves"]
    )
    if baseline_scale:
        results["baseline_pre_pr"] = dict(BASELINE_PRE_PR)
        results["batch"]["run_speedup_vs_pre_pr"] = (
            BASELINE_PRE_PR["run_seconds"] / packed_run_best
        )
        results["batch"]["end_to_end_speedup_vs_pre_pr"] = (
            (BASELINE_PRE_PR["build_seconds"] + BASELINE_PRE_PR["run_seconds"])
            / (packed_build + packed_run_first)
        )
        results["arrivals"]["recompute_seconds_pre_pr"] = BASELINE_PRE_PR[
            "arrivals_recompute_seconds"
        ]
        results["arrivals"]["speedup_vs_pre_pr"] = (
            BASELINE_PRE_PR["arrivals_recompute_seconds"] / stream_seconds
        )
        results["memory"]["pre_pr_max_rss_mb"] = BASELINE_PRE_PR["max_rss_mb"]
    return results


def as_table(results: dict) -> Table:
    workload = results["workload"]
    table = Table(
        ["metric", "objects", "packed", "speedup"],
        title=(
            f"E10 columnar engine ({workload['n_demands']} demands, "
            f"{workload['waves']} waves, {workload['machine']})"
        ),
    )
    batch = results["batch"]
    table.add_row([
        "build seconds",
        f"{batch['objects_build_seconds']:.3f}",
        f"{batch['packed_build_seconds']:.3f}",
        f"{batch['build_speedup']:.1f}x",
    ])
    table.add_row([
        "run seconds (best)",
        f"{batch['objects_run_best_seconds']:.3f}",
        f"{batch['packed_run_best_seconds']:.3f}",
        f"{batch['run_speedup']:.1f}x",
    ])
    arrivals = results["arrivals"]
    if "speedup_vs_pre_pr" in arrivals:
        table.add_row([
            "arrival waves (pre-PR recompute)",
            f"{arrivals['recompute_seconds_pre_pr']:.2f}",
            f"{arrivals['stream_seconds']:.3f}",
            f"{arrivals['speedup_vs_pre_pr']:.0f}x",
        ])
    memory = results["memory"]
    table.add_row([
        "stream RSS full vs quarter (MB)",
        f"{memory['stream_full']['max_rss_mb']:.0f}",
        f"{memory['stream_quarter']['max_rss_mb']:.0f}",
        f"ratio {memory['stream_rss_ratio_full_vs_quarter']:.2f}",
    ])
    replay = results["replay_many"]
    table.add_row([
        f"{replay['rows']} seeds of {replay['n']} demands: runs vs one block (s)",
        f"{replay['run_seconds']:.4f}",
        f"{replay['seconds']:.4f}",
        f"{replay['run_seconds'] / replay['seconds']:.1f}x",
    ])
    return table


def test_e10_columnar_quick():
    """CI-speed smoke: bit-identity + bounded streaming memory."""
    from conftest import report  # noqa: PLC0415 - pytest-only plumbing

    results = measure(n_demands=10_000, waves=4, quick=True)
    assert results["digests_identical"]
    assert results["batch"]["run_speedup"] > 1.0
    # Streaming memory must not scale with the total demand count (wide
    # slack: at smoke scale both sides are dominated by the interpreter
    # baseline, the committed full run holds the tight bound).
    assert results["memory"]["stream_rss_ratio_full_vs_quarter"] < 1.5
    assert results["memory"]["stream_full"]["max_rss_mb"] < 512
    assert results["replay_many"]["digests_identical"]
    assert results["replay_many"]["max_rss_mb"] < 512
    report("E10: columnar engine", str(as_table(results)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny demand counts (CI smoke: completes in seconds)",
    )
    parser.add_argument("--demands", type=int, default=1_000_000)
    parser.add_argument("--waves", type=int, default=24)
    parser.add_argument("--out", default=None, help="output JSON path override")
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        _child(args.child)
        return

    if args.quick:
        args.demands = min(args.demands, 10_000)
        args.waves = min(args.waves, 4)

    results = measure(n_demands=args.demands, waves=args.waves, quick=args.quick)
    if args.quick:
        assert results["memory"]["stream_full"]["max_rss_mb"] < 512
        assert results["replay_many"]["max_rss_mb"] < 512
    from harness import write_json_result  # noqa: PLC0415 - script-only import

    name = "BENCH_e10_columnar" + ("_quick" if args.quick else "")
    path = write_json_result(name, results, out=args.out)
    print(as_table(results))
    print(f"\nJSON results: {path}")
    summary = {
        "run_speedup": results["batch"]["run_speedup"],
        "stream_demands_per_sec": results["arrivals"]["stream_demands_per_sec"],
        "stream_rss_ratio": results["memory"]["stream_rss_ratio_full_vs_quarter"],
    }
    if "speedup_vs_pre_pr" in results["arrivals"]:
        summary["arrivals_speedup_vs_pre_pr"] = results["arrivals"][
            "speedup_vs_pre_pr"
        ]
    print(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
