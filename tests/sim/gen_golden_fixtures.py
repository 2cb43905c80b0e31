"""Generate the golden-equivalence fixtures for the sim-plane fast path.

Run as a script to (re)create the fixtures under ``tests/sim/fixtures``
(the records and emulations, or the ones named)::

    PYTHONPATH=src python tests/sim/gen_golden_fixtures.py [records] [emulations] [packed]

``golden_records.json`` was produced by the *scalar* engine and lockstep
profiler (pre vectorisation, PR 2); ``test_golden_equivalence.py`` then
pins the vectorised implementation to those numbers within 1e-9 relative
tolerance.  ``golden_emulations.json`` holds whole emulation records —
profile → plan → packed workload → noisy replay — generated by the
per-sample plan builder and the per-stream timeline (before PR 19) and
pinned *exactly*: floats are stored by ``repr`` and series as digests of
their bytes.  ``golden_app_packed.json`` holds one digest per packed
workload (every column, name table and stream table) of
:data:`APP_CASES` on :data:`PACKED_MACHINES` and of :func:`packed_plan`
under :data:`PLAN_CONFIGS`; the application digests were taken from the
direct column builders the models had before ``build_packed`` became
``pack_workload(build_workload())``, so they pin the one demand model to
what the hand-written twins emitted — never regenerate that one.
Regenerate the others only when the execution *model* changes on
purpose (new cost formula, new noise semantics) — never to paper over an
accidental behaviour change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.apps import EnsembleApp, GromacsModel, SleeperApp, SyntheticApp
from repro.apps.ensemble import EnsembleStage
from repro.apps.skeleton import chain, fan_out_fan_in
from repro.atoms.base import AtomWork
from repro.core.api import profile
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.plan import EmulationPlan, PlanSample
from repro.sim.backend import SimBackend
from repro.sim.machines import get_machine
from repro.sim.packed import PackedWorkload

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_records.json"
EMULATION_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_emulations.json"
PACKED_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_app_packed.json"

#: (case name, machine, seed, app factory) — one seeded noisy run each.
CASES = [
    ("gromacs-thinkie", "thinkie", 0, lambda: GromacsModel(iterations=200_000)),
    ("gromacs-comet-threads", "comet", 1,
     lambda: GromacsModel(iterations=500_000, threads=4, paradigm="openmp")),
    ("synthetic-mixed", "thinkie", 0, lambda: SyntheticApp(
        instructions=2e9, bytes_read=96 << 20, bytes_written=64 << 20,
        memory_bytes=256 << 20, net_sent=8 << 20, net_received=4 << 20,
        sleep_seconds=0.5, chunks=16)),
    ("synthetic-overlap", "supermic", 2, lambda: SyntheticApp(
        instructions=4e9, bytes_written=256 << 20, filesystem="lustre",
        overlap_io=True, chunks=32)),
    ("synthetic-heavy", "stampede", 3, lambda: SyntheticApp(
        instructions=8e9, bytes_read=512 << 20, bytes_written=512 << 20,
        memory_bytes=1 << 30, net_sent=64 << 20, sleep_seconds=0.25,
        threads=8, chunks=200)),
    ("sleeper", "thinkie", 0, lambda: SleeperApp(sleep_seconds=3.0)),
    ("ensemble", "stampede", 1, lambda: EnsembleApp(stages=(
        EnsembleStage(tasks=4, instructions=2e9, bytes_written=16 << 20),
        EnsembleStage(tasks=2, instructions=1e9, workload_class="app.generic"),
    ))),
]

#: (case name, machine, seed, sample rate, app factory) — profiled runs.
PROFILE_CASES = [
    ("profile-gromacs", "thinkie", 0, 2.0, lambda: GromacsModel(iterations=200_000)),
    ("profile-synthetic", "comet", 1, 1.0, lambda: SyntheticApp(
        instructions=4e9, bytes_written=128 << 20, memory_bytes=128 << 20,
        overlap_io=True, chunks=24)),
]

#: (case name, profiled gromacs iterations, profile seed, emulating
#: machine, emulation seed, emulation config) — one noisy emulation each.
#: Profiles are taken on thinkie at 2 Hz: 10^7 iterations are 426
#: samples, 10^6 are 44 (the sizes of E12's ``small_runs``).
EMULATION_CASES = [
    ("emulate-426-thinkie", 10_000_000, 0, "thinkie", 3, {}),
    ("emulate-426-comet-load", 10_000_000, 0, "comet", 4, {"cpu_load": 0.5}),
    ("emulate-44-thinkie-load", 1_000_000, 1, "thinkie", 5, {"cpu_load": 0.25}),
    ("emulate-44-stampede", 1_000_000, 1, "stampede", 6, {}),
]

#: (case name, app factory) — every application shape, packed on every
#: machine of :data:`PACKED_MACHINES`.
APP_CASES = [
    ("synthetic-full", lambda: SyntheticApp(
        instructions=5e8, bytes_read=1 << 22, bytes_written=1 << 21,
        memory_bytes=1 << 24, net_sent=1 << 20, net_received=1 << 19,
        sleep_seconds=0.2, threads=4, overlap_io=True, chunks=12)),
    ("synthetic-serial", lambda: SyntheticApp(
        instructions=3e8, bytes_written=1 << 20, chunks=5)),
    ("synthetic-empty-overlap", lambda: SyntheticApp(overlap_io=True, chunks=3)),
    ("gromacs-threads", lambda: GromacsModel(iterations=20_000, threads=4)),
    ("gromacs-mpi", lambda: GromacsModel(iterations=30_000, threads=8, paradigm="mpi")),
    ("sleeper", lambda: SleeperApp(sleep_seconds=1.5)),
    ("ensemble", lambda: EnsembleApp(stages=(
        EnsembleStage(tasks=4, instructions=1e9, bytes_written=4096),
        EnsembleStage(tasks=1, instructions=5e8)))),
    ("skeleton-chain", lambda: chain(
        {"a": SleeperApp(sleep_seconds=0.1), "b": GromacsModel(iterations=2000)})),
    ("skeleton-fan", lambda: fan_out_fan_in(
        SyntheticApp(bytes_read=1 << 20, chunks=2),
        {"w1": GromacsModel(iterations=1000), "w2": SleeperApp(sleep_seconds=0.2)},
        SyntheticApp(bytes_written=1 << 20, chunks=2))),
]

#: The machines of E12's campaigns.
PACKED_MACHINES = ("thinkie", "comet", "stampede", "archer")

#: Emulation configs :func:`packed_plan` is packed under.
PLAN_CONFIGS = {
    "default": {},
    "load-efficiency": {"cpu_load": 0.5, "efficiency_target": 0.8},
    "mpi-lustre": {"mpi_processes": 4, "io_filesystem": "lustre"},
}


def record_case(machine: str, seed: int, factory) -> dict:
    backend = SimBackend(machine, noisy=True, seed=seed)
    record = backend.spawn(factory()).record
    return {
        "duration": record.duration,
        "totals": record.totals(),
        "phase_bounds": [list(b) for b in record.phase_bounds],
        "n_io_events": len(record.io_events),
    }


def profile_case(machine: str, seed: int, rate: float, factory) -> dict:
    backend = SimBackend(machine, noisy=True, seed=seed)
    prof = profile(factory(), backend=backend, config=SynapseConfig(sample_rate=rate))
    return {
        "tx": prof.tx,
        "samples": [
            {"t": s.t, "dt": s.dt, "values": dict(s.values)}
            for s in prof.samples
        ],
    }


def _digest(*arrays) -> str:
    """Digest of the exact float64 bytes of ``arrays``."""
    h = hashlib.blake2b(digest_size=16)
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def emulation_case(
    iterations: int, profile_seed: int, machine: str, seed: int, config: dict
) -> dict:
    """Profile gromacs on thinkie, emulate the profile on ``machine``."""
    prof = profile(
        GromacsModel(iterations=iterations),
        backend=SimBackend("thinkie", noisy=True, seed=profile_seed),
        config=SynapseConfig(sample_rate=2.0),
    )
    emulation_config = SynapseConfig(**config)
    plan = EmulationPlan.from_profile(prof, emulation_config)
    result = Emulator(
        backend=SimBackend(machine, noisy=True, seed=seed), config=emulation_config
    ).replay(plan)
    record = result.handle.record
    series = {**record.counters, **record.levels}
    return {
        "n_samples": prof.n_samples,
        "source_tx": repr(prof.tx),
        "plan_totals": {k: repr(v) for k, v in asdict(plan.totals()).items()},
        "tx": repr(result.tx),
        "startup_delay": repr(result.startup_delay),
        "totals": {k: repr(v) for k, v in sorted(record.totals().items())},
        "n_phases": len(record.phase_bounds),
        "phase_bounds": _digest(record.phase_bounds),
        "n_io_events": len(record.io_events),
        "io_events": _digest([e.t for e in record.io_events]),
        "series": {
            name: [len(ts), _digest(ts.times, ts.values)]
            for name, ts in sorted(series.items())
        },
    }


def packed_plan() -> EmulationPlan:
    """A 25-sample plan with every quantum, about half the samples
    without cycles."""
    rng = np.random.default_rng(11)
    samples = [
        PlanSample(
            index=i,
            work=AtomWork(
                cycles=float(rng.integers(0, 2)) * float(rng.uniform(1e6, 1e9)),
                flops=float(rng.uniform(0, 5e8)),
                alloc_bytes=int(rng.integers(0, 1 << 22)),
                free_bytes=int(rng.integers(0, 1 << 20)),
                read_bytes=int(rng.integers(0, 1 << 22)),
                write_bytes=int(rng.integers(0, 1 << 22)),
                sent_bytes=int(rng.integers(0, 1 << 16)),
                received_bytes=int(rng.integers(0, 1 << 16)),
            ),
        )
        for i in range(25)
    ]
    return EmulationPlan(samples=samples, command="cmd")


def packed_digest(packed: PackedWorkload) -> str:
    """Digest of everything a packed workload holds: identity, name
    tables, and every column's dtype and bytes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(json.dumps([
        packed.name, packed.base_rss, packed.metadata, packed.n, packed.n_phases,
        packed.class_names, packed.paradigm_names, packed.fs_names,
    ], sort_keys=True).encode("utf-8"))
    for name, column in packed.column_arrays().items():
        h.update(f"{name}:{column.dtype.str}:".encode("utf-8"))
        h.update(np.ascontiguousarray(column).tobytes())
    return h.hexdigest()


def _write(path: Path, out: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
    print(f"wrote {path}")


def write_records() -> None:
    _write(FIXTURE_PATH, {
        "records": {
            name: record_case(machine, seed, factory)
            for name, machine, seed, factory in CASES
        },
        "profiles": {
            name: profile_case(machine, seed, rate, factory)
            for name, machine, seed, rate, factory in PROFILE_CASES
        },
    })


def write_emulations() -> None:
    _write(EMULATION_FIXTURE_PATH, {
        name: emulation_case(*case) for name, *case in EMULATION_CASES
    })


def write_packed() -> None:
    plan = packed_plan()
    _write(PACKED_FIXTURE_PATH, {
        "apps": {
            name: {
                machine: packed_digest(factory().build_packed(get_machine(machine)))
                for machine in PACKED_MACHINES
            }
            for name, factory in APP_CASES
        },
        "plans": {
            name: packed_digest(plan.build_packed_workload(SynapseConfig(**config)))
            for name, config in PLAN_CONFIGS.items()
        },
    })


def main(argv: list[str]) -> None:
    writers = {
        "records": write_records, "emulations": write_emulations, "packed": write_packed,
    }
    # ``packed`` is written only when named: see the module docstring.
    for name in argv or ["records", "emulations"]:
        writers[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
