"""Generate the golden-equivalence fixtures for the sim-plane fast path.

Run as a script to (re)create the fixtures under ``tests/sim/fixtures``
(all of them, or the ones named)::

    PYTHONPATH=src python tests/sim/gen_golden_fixtures.py [records] [emulations]

``golden_records.json`` was produced by the *scalar* engine and lockstep
profiler (pre vectorisation, PR 2); ``test_golden_equivalence.py`` then
pins the vectorised implementation to those numbers within 1e-9 relative
tolerance.  ``golden_emulations.json`` holds whole emulation records —
profile → plan → packed workload → noisy replay — generated by the
per-sample plan builder and the per-stream timeline (before PR 19) and
pinned *exactly*: floats are stored by ``repr`` and series as digests of
their bytes.  Regenerate only when the execution *model* changes on
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
from repro.core.api import profile
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.plan import EmulationPlan
from repro.sim.backend import SimBackend

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_records.json"
EMULATION_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_emulations.json"

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


def main(argv: list[str]) -> None:
    writers = {"records": write_records, "emulations": write_emulations}
    for name in argv or list(writers):
        writers[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
