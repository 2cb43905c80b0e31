"""E12 perf ledger: one command per workload, every metric by name.

    python3 benchmarks/e12/e12.py --workload campaign_unsharded
    python3 benchmarks/e12/e12.py --workload small_runs --trace 1
    python3 benchmarks/e12/e12.py --compare out/A.jsonl out/B.jsonl

One process, one closed-loop caller, ``RunService(processes=1)`` passed
explicitly: no pool, no fleet, no subprocess.  A run is set-up (imports,
inputs from ``--seed``, one warm-up pass), then timed passes for
``--seconds`` with a host-reference call between them; ``work_per_s`` is
taken over the fastest quarter of the passes and, like ``setup_s``, scaled
by how fast the host ran the reference (the host slows for minutes at a
time; see the README); the numbers as measured are printed beside them.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer table instead.  The
last line of standard output is the result object ``BENCHMARK.json``
describes; the README next to this file explains every name.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: set-up pays them

import argparse
import fcntl
import gc
import json
import math
import multiprocessing
import os
import platform
import resource
import secrets
import shutil
import statistics
import struct
import sys
import threading
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"

DEFAULT_SEED = 20160523
#: Every workload the command runs.  ``BENCHMARK.json`` lists the ones
#: the driver runs: its time cap pays for three at a run length the host's
#: slow spells do not cover; the others are run by hand.
WORKLOADS = (
    "campaign_unsharded", "campaign_elastic", "ledger_report",
    "engine_packed", "small_runs", "traffic_open_loop",
)
#: Relative tolerance for simulated statistics: they repeat exactly.
SIMULATED_RTOL = 1e-9
#: Per input size: set-up repetitions (median reported), the floor on
#: timed passes of an end-to-end run, and the passes of a traced run
#: (alternating untraced / traced, untraced first).
PASSES = {
    "full": {"setup_repeats": 3, "min_passes": 7, "trace_passes": 9},
    "tiny": {"setup_repeats": 1, "min_passes": 1, "trace_passes": 2},
}
MAX_PASSES = 64


# -- temporary stores ---------------------------------------------------------

_FS_IOC_GETFLAGS, _FS_IOC_SETFLAGS, _FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x20000


def make_workdir() -> Path:
    """A fresh directory under ``out/`` for this run's stores.

    ``out/`` is flagged as a top-level directory (``chattr +T``) where the
    filesystem knows the flag: ext4 then places each run's directory in a
    block group of its own.  Without it every run allocates inodes in the
    group where the previous runs just deleted theirs, and journal-less
    ext4 steps over each inode deleted in the last minutes on every
    create — a campaign pass takes twice as long for as long as runs
    follow each other, and the benchmark would be timing its own
    housekeeping.  Filesystems without the flag refuse it; nothing else
    changes there.
    """
    OUT.mkdir(exist_ok=True)
    fd = os.open(OUT, os.O_RDONLY | os.O_DIRECTORY)
    try:
        flags = bytearray(struct.calcsize("l"))
        fcntl.ioctl(fd, _FS_IOC_GETFLAGS, flags)
        (current,) = struct.unpack("l", flags)
        if not current & _FS_TOPDIR_FL:
            fcntl.ioctl(fd, _FS_IOC_SETFLAGS, struct.pack("l", current | _FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)
    workdir = OUT / f"tmp-{os.getpid()}-{secrets.token_hex(3)}"
    workdir.mkdir()
    return workdir


# -- leak guard --------------------------------------------------------------


def _child_pids() -> set[int]:
    """Pids whose parent is this process, from ``/proc/*/stat``."""
    me, found = os.getpid(), set()
    try:
        entries = os.listdir("/proc")
    except OSError:  # no procfs: the other two checks still hold
        return found
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # exited while we looked
            continue
        # "pid (comm) state ppid ...": comm may itself contain ") ".
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.add(int(entry))
    return found


class LeakGuard:
    """Nothing started during a run may outlive it."""

    def __init__(self) -> None:
        self._threads = set(threading.enumerate())
        self._children = _child_pids()

    def leaks(self) -> list[str]:
        found = [
            f"thread {thread.name!r}" for thread in threading.enumerate()
            if thread not in self._threads
        ]
        found += [
            f"child process {pid}"
            for pid in sorted(
                (_child_pids() | {p.pid for p in multiprocessing.active_children()})
                - self._children
            )
        ]
        return found


# -- declared metrics, goldens, host -----------------------------------------


def load_declared() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds printed."""
    return json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _fs_type(path: Path) -> str:
    best, fs = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return fs
    for line in mounts:
        _dev, mount, kind = line.split()[:3]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, fs = mount, kind
    return fs


def host_header(load_at_start: float, passes: int) -> dict[str, Any]:
    """What every result carries about where it was measured."""
    import numpy  # noqa: PLC0415 - already imported by the workloads

    return {
        "host_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "tmp_fs": _fs_type(OUT),
        "load_1min_at_start": load_at_start,
        "passes": passes,
    }


def fast_quarter(seconds: list[float]) -> float:
    """Mean over the fastest quarter (at least two) of a run's pass
    walls, or of its reference calls.

    The host slows by a third or more for half a minute at a time.  A
    median follows whichever state covered most of the run; the fastest
    quarter is the least slowed state the run met, for the passes and
    for the reference alike, so their ratio holds across runs.  A change
    to the program moves every pass, so it moves this as well.
    """
    ordered = sorted(seconds)
    return statistics.fmean(ordered[: max(2, len(ordered) // 4)])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- one run -----------------------------------------------------------------


def _same(value: Any, want: Any) -> bool:
    """Digests equal; simulated statistics equal to 1e-9 relative."""
    if isinstance(value, float) and isinstance(want, float):
        return math.isclose(value, want, rel_tol=SIMULATED_RTOL)
    return value == want


def _check(passes: list[Any], golden: dict[str, Any] | None) -> list[str]:
    """Every pass of a run produced the same outputs — the pinned ones
    when the run is the golden seed and size.  A pass that did not
    counts all its work as failed."""
    problems = []
    expected = dict(golden or {})
    for result in passes:
        wrong = [
            f"{key}: {value!r} != {expected[key]!r}"
            for key, value in {**result.digests, **result.simulated}.items()
            if not _same(value, expected.setdefault(key, value))
        ]
        if wrong:
            result.failed = result.attempted
            problems.extend(wrong)
    return problems


def measure(args: argparse.Namespace, start: float) -> dict[str, Any]:
    """Set-up, passes and (traced) per-layer numbers of one run, as the
    record that is appended to ``--out`` and printed by :func:`report`."""
    from repro.runtime import RunService, reset_service  # noqa: PLC0415

    import e12_workloads as wl  # noqa: PLC0415
    from e12_reference import HostReference  # noqa: PLC0415
    from e12_trace import LayerTime, NullTracer, Tracer  # noqa: PLC0415

    import_s = time.perf_counter() - start
    plan = PASSES[args.size]
    null = NullTracer()
    # A traced run prints per-layer numbers as measured: no reference.
    tracer, reference = (Tracer(), None) if args.trace else (None, HostReference())
    load_at_start = os.getloadavg()[0]
    workdir = make_workdir()
    service = RunService(processes=1)
    workload = wl.WORKLOADS[args.workload](
        args.seed, wl.SIZES[args.size], workdir, service
    )
    try:
        prepare_s = []
        for _ in range(plan["setup_repeats"]):
            t0 = time.perf_counter()
            workload.prepare()
            prepare_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warmup = workload.run_pass(null)
        warmup_s = time.perf_counter() - t0

        results: list[Any] = []
        traced_ids: list[int] = []
        if tracer is None:
            # ``--seconds`` bounds the measuring phase as the caller sees
            # it: the passes, the output checks and the host reference
            # between them.
            until = time.perf_counter() + args.seconds
            reference()
            while len(results) < plan["min_passes"] or (
                time.perf_counter() < until and len(results) < MAX_PASSES
            ):
                gc.collect()
                results.append(workload.run_pass(null))
                reference()
        else:
            for index in range(plan["trace_passes"]):
                gc.collect()
                tracer.pass_id = index
                traced = index % 2 == 1
                if traced:
                    traced_ids.append(index)
                results.append(
                    workload.run_pass(tracer if traced else null, observe=True)
                )

        per_layer: dict[str, float] = {}
        if tracer is not None:
            times = tracer.layer_times(traced_ids)
            zero = LayerTime(0, 0.0, 0.0, 0)

            def per_pass(name: str) -> LayerTime:
                return LayerTime(
                    *(value / len(traced_ids) for value in times.get(name, zero))
                )

            per_layer = workload.layer_metrics(per_pass, results, tracer, traced_ids)
            traced_wall = [results[i].wall_s for i in traced_ids]
            per_layer["telemetry.dark_span_us"] = wl.dark_span_us()
            per_layer["trace.pass_ms"] = statistics.median(traced_wall) * 1e3
            # Each traced pass against the untraced passes either side
            # of it, so host drift over the run cancels.
            per_layer["trace.overhead_pct"] = 100.0 * statistics.median(
                results[i].wall_s / statistics.fmean(
                    results[j].wall_s for j in (i - 1, i + 1) if j < len(results)
                ) - 1.0
                for i in traced_ids
            )
            per_layer["trace.accounted_pct"] = 100.0 * (
                sum(layer.self_s for layer in times.values()) / sum(traced_wall)
            )
            per_layer.update(warmup.simulated)
    finally:
        service.close()
        reset_service()
        shutil.rmtree(workdir, ignore_errors=True)

    goldens = json.loads(GOLDENS.read_text(encoding="utf-8")) if GOLDENS.exists() else {}
    pinned = args.seed == goldens.get("seed") and not args.update_goldens
    golden = goldens.get(args.size) if pinned else None
    problems = _check([warmup, *results, *workload.ladder_results], golden)
    if args.update_goldens and not problems:
        goldens["seed"] = DEFAULT_SEED
        goldens.setdefault(args.size, {}).update(
            {**warmup.digests, **warmup.simulated}
        )
        GOLDENS.write_text(
            json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )

    walls = [r.wall_s for r in results]
    failed = sum(r.failed for r in results)
    # The passes are many: their fastest quarter against the reference's
    # fastest quarter is what each did when the host was least slowed.
    # Set-up happens once and meets the host as it mostly is: the median.
    run_factor = reference.factor(fast_quarter) if reference else 1.0
    setup_factor = reference.factor(statistics.median) if reference else 1.0
    record = {
        "benchmark": "e12",
        "workload": workload.name,
        "seed": args.seed,
        "size": args.size,
        "trace": int(args.trace),
        "host": host_header(load_at_start, len(results)),
        "unit_of_work": workload.unit,
        "ops_per_pass": workload.n_ops,
        "alias": workload.alias,
        "pass_wall_s": walls,
        "reference_s": reference.seconds if reference else [],
        "host_factor": {"run": run_factor, "setup": setup_factor},
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s},
        "end_to_end": {
            "work_per_s": workload.n_ops * run_factor / fast_quarter(walls),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s":
                (import_s + statistics.median(prepare_s) + warmup_s) / setup_factor,
        },
        "simulated": warmup.simulated,
        "digests": warmup.digests,
        "golden_checked": golden is not None,
        "per_layer": per_layer,
        "traced_passes": traced_ids,
        "correct": not problems and failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        spans.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent", "pass_id", "work"],
            "traced_passes": traced_ids,
            "spans": tracer.to_rows(),
        }), encoding="utf-8")
    return record


def report(record: dict[str, Any], declared: dict[str, Any]) -> None:
    """Every metric by name and unit, then the driver's result line."""
    units = {
        m["name"]: m["unit"]
        for m in declared["end_to_end"] + declared["per_layer"]
    }
    traced, walls, setup = record["trace"], record["pass_wall_s"], record["setup"]
    end_to_end, problems = record["end_to_end"], record["problems"]
    q1, median_wall, q3 = _quartiles(walls)
    print(f"e12 {record['workload']} seed={record['seed']} size={record['size']} "
          f"trace={traced}")
    print("host: " + " ".join(f"{k}={v}" for k, v in record["host"].items()))
    print(f"pass wall: fastest quarter {fast_quarter(walls):.4f} s  median "
          f"{median_wall:.4f} s  quartiles {q1:.4f}..{q3:.4f} s  over {len(walls)} "
          f"passes of {record['ops_per_pass']} {record['unit_of_work']}")
    print(f"set-up: imports {setup['import_s']:.3f} s + inputs "
          f"{statistics.median(setup['prepare_s']):.3f} s (median of "
          f"{len(setup['prepare_s'])}) + warm-up pass {setup['warmup_s']:.3f} s")
    if record["reference_s"]:
        factor = record["host_factor"]
        print(f"host factor: {factor['run']:.4f} over the passes (fastest quarter of "
              f"{len(record['reference_s'])} reference calls / nominal), "
              f"{factor['setup']:.4f} at set-up (their median / nominal)")
        print("as measured, before scaling by the host factor: work_per_s "
              f"{record['ops_per_pass'] / fast_quarter(walls):.4f} 1/s  setup_s "
              f"{end_to_end['setup_s'] * factor['setup']:.4f} s")
    else:
        print("host factor: not measured in a traced run; numbers are as measured")
    print(f"{record['alias']:<34}{end_to_end['work_per_s']:>16.4f} 1/s"
          "   (this workload's work_per_s)")
    for name, value in end_to_end.items():
        print(f"{name:<34}{value:>16.4f} {units[name]}")
    print(f"{'fail_share':<34}{record['failed'] / record['attempted']:>16.6f} ratio "
          f"({record['failed']}/{record['attempted']})")
    for name, value in record["simulated"].items():
        print(f"{name:<34}{value!r:>16} {units[name]}   (simulated; model "
              "unvalidated against real hardware)")
    verdict = "MISMATCH" if problems else \
        "golden ok" if record["golden_checked"] else "passes agree"
    for name, value in record["digests"].items():
        print(f"digest {name:<27}{value[:16]:>16} {verdict}")
    for problem in problems:
        print(f"check failed: {problem}")
    if traced:
        print(f"per-layer table ({len(record['traced_passes'])} traced passes; "
              "0 = layer not entered on this workload):")
        for metric in declared["per_layer"]:
            value = record["per_layer"].get(metric["name"], 0.0)
            print(f"  {metric['name']:<36}{value:>16.6g} {metric['unit']}")
    print("leak guard: ok (no thread, pool worker or child process left)")
    values = record["per_layer"] if traced else end_to_end
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared["per_layer" if traced else "end_to_end"]
        },
    }))


def run_workload(args: argparse.Namespace, start: float) -> int:
    guard = LeakGuard()
    declared = load_declared()
    src = REPO / "src"
    if not (src / "repro").is_dir():
        print(f"e12: no program to measure at {src}", file=sys.stderr)
        return 2
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    record = measure(args, start)
    leaks = guard.leaks()
    if leaks:
        print("e12: leak guard: still alive: " + ", ".join(leaks), file=sys.stderr)
        return 3
    undeclared = sorted(
        set(record["per_layer"]) - {m["name"] for m in declared["per_layer"]}
    )
    if undeclared:
        print(f"e12: metrics not in BENCHMARK.json: {undeclared}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else OUT / "runs.jsonl"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    report(record, declared)
    return 0


# -- compare two sets of runs ------------------------------------------------


def _load_runs(path: str) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(path_a: str, path_b: str) -> int:
    """Per workload x end-to-end metric: both medians with quartiles,
    the bound, and ok / regressed / unresolved.  Simulated statistics,
    digests and fail_share of matching seeds must agree exactly."""
    declared = load_declared()
    runs_a, runs_b = _load_runs(path_a), _load_runs(path_b)
    bad = 0
    print(f"{'workload':<20}{'metric':<20}{'A q1/median/q3':>34}"
          f"{'B q1/median/q3':>34}{'bound':>7}  status")
    for workload in WORKLOADS:
        set_a, set_b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not set_a or not set_b:
            continue
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run["end_to_end"][name] for run in set_a]
            b = [run["end_to_end"][name] for run in set_b]
            (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
            sign = -1.0 if metric["better"] == "higher" else 1.0
            worse = sign * (bm - am) / am
            spread = max((a3 - a1) / am, (b3 - b1) / bm)
            all_better = (
                min(b) > max(a) if metric["better"] == "higher" else max(b) < min(a)
            )
            if worse > bound:
                status = "regressed"
            elif spread > bound and not all_better and name != "setup_s":
                status = "unresolved"
            else:
                status = "ok"
            bad += status != "ok"
            print(f"{workload:<20}{name:<20}"
                  f"{f'{a1:.4g}/{am:.4g}/{a3:.4g}':>34}"
                  f"{f'{b1:.4g}/{bm:.4g}/{b3:.4g}':>34}{bound:>7.2f}  {status}")
        by_seed = {run["seed"]: run for run in set_a}
        for run in set_b:
            twin = by_seed.get(run["seed"])
            if twin is None:
                continue
            exact = {**twin["digests"], **twin["simulated"]}
            for key, value in {**run["digests"], **run["simulated"]}.items():
                want = exact.get(key)
                if not _same(value, want):
                    bad += 1
                    print(f"{workload:<20}{key:<20} seed {run['seed']}: "
                          f"{want!r} -> {value!r}  regressed (must repeat exactly)")
            share_a = twin["failed"] / twin["attempted"]
            share_b = run["failed"] / run["attempted"]
            if share_b > share_a:
                bad += 1
                print(f"{workload:<20}{'fail_share':<20} seed {run['seed']}: "
                      f"{share_a:.6f} -> {share_b:.6f}  regressed (any rise)")
    print("compare: " + ("ok" if not bad else f"{bad} regressed/unresolved"))
    return 1 if bad else 0


def main(argv: list[str] | None = None, start: float | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="BENCHMARK.json lists the ones the driver runs")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="generates every input (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=34.0,
                        help="keep adding timed passes for this long "
                             "(never fewer than the floor)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced/traced passes, print per-layer")
    parser.add_argument("--size", choices=sorted(PASSES), default="full",
                        help="tiny is the smoke test's shape of the inputs")
    parser.add_argument("--out", help="append the run record to this JSONL file "
                                      "(default benchmarks/e12/out/runs.jsonl)")
    parser.add_argument("--update-goldens", action="store_true",
                        help="pin this run's digests and simulated statistics")
    parser.add_argument("--compare", nargs=2, metavar=("A.jsonl", "B.jsonl"),
                        help="judge set B against set A and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.update_goldens and args.seed != DEFAULT_SEED:
        parser.error(f"goldens are pinned for the default seed {DEFAULT_SEED}")
    return run_workload(args, time.perf_counter() if start is None else start)


if __name__ == "__main__":
    sys.exit(main(start=_PROCESS_START))
