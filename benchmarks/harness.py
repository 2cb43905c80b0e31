"""Shared experiment harness of the paper's figure and table checks
(``tests/paper``).

Every check runs on the simulation plane with deterministic noise:
``repeat`` indices seed independent draws, so means and confidence
intervals are reproducible run-to-run (the paper's E.3 reports 99 % CIs
over repeated runs).

Execution goes through the unified run service (:mod:`repro.runtime`):
the helpers below build declarative :class:`~repro.runtime.RunRequest`s
and submit them to the process-wide service, so every figure check —
whether it calls the single-run helpers or batches whole
sweeps via :func:`submit` — shares one persistent worker pool and the
deterministic per-request seeding (``seed=repeat``, spawn slot 1 —
exactly what a fresh per-repeat backend drew before).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.apps import GromacsModel
from repro.core.config import SynapseConfig
from repro.core.emulator import EmulationResult
from repro.core.samples import Profile
from repro.runtime import RunRequest, get_service
from repro.sim.backend import SimBackend

#: Each figure's result table lands here as ``<figure>.txt``.
RESULTS_DIR = Path(__file__).parent / "results"


#: Result tables registered by :func:`report`, in registration order.
REPORTS: list[tuple[str, str]] = []
_REPORTED: set[Path] = set()


def report(title: str, text: str) -> None:
    """Register a result table for the terminal summary
    (:func:`print_reports`) and write it to
    ``benchmarks/results/<figure>.txt``, fresh in each process."""
    REPORTS.append((title, text))
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = title.split(":")[0].strip().lower().replace(" ", "_").replace("/", "-")
    path = RESULTS_DIR / f"{slug}.txt"
    with open(path, "a" if path in _REPORTED else "w", encoding="utf-8") as handle:
        handle.write(f"== {title} ==\n{text}\n\n")
    _REPORTED.add(path)


def print_reports(terminalreporter) -> None:
    """Print the registered tables in pytest's terminal summary."""
    if not REPORTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 72)
    terminalreporter.write_line("PAPER FIGURE / TABLE REPRODUCTIONS")
    terminalreporter.write_line("=" * 72)
    for title, text in REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title} ==")
        for line in text.splitlines():
            terminalreporter.write_line(line)


#: Iteration sweep of E.1/E.2 (Fig 4-7).
E1_SIZES = (10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000)
#: Sampling-rate sweep of E.1 (Fig 4/6).
E1_RATES = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
#: Iteration sweep of E.3 (Fig 8-11) — the paper's sizes plus two larger
#: points that show convergence past our (smaller) app's startup regime.
E3_SIZES = (1_000, 5_000, 10_000, 25_000, 50_000, 75_000, 100_000, 500_000, 1_000_000)


def backend(machine: str, repeat: int = 0, noisy: bool = True) -> SimBackend:
    """Deterministically seeded backend for one experiment repeat."""
    return SimBackend(machine, noisy=noisy, seed=repeat)


def submit(requests: Iterable[RunRequest]) -> list:
    """Run a batch of requests through the shared service; returns values.

    The request-level entry point for checks that sweep (sizes x
    repeats x machines): build all requests up front, submit once, and
    the service fans them over its persistent pool — or runs serially
    on one core — with bit-identical results either way.
    """
    return [result.value for result in get_service().run(list(requests))]


def _duration(record) -> float:
    """Worker-side reducer for native runs: only Tx crosses the pool."""
    return record.duration


def app_request(machine: str, iterations: int, repeat: int = 0, threads: int = 1,
                paradigm: str = "openmp") -> RunRequest:
    """Native-execution request for one Gromacs run (reduces to Tx)."""
    return RunRequest(
        kind="engine",
        target=GromacsModel(iterations=iterations, threads=threads, paradigm=paradigm),
        machine=machine,
        seed=repeat,
        reduce=_duration,
    )


def profile_request(
    machine: str,
    iterations: int,
    rate: float = 1.0,
    repeat: int = 0,
) -> RunRequest:
    """Profiling request for one Gromacs run."""
    app = GromacsModel(iterations=iterations)
    return RunRequest(
        kind="profile",
        target=app,
        machine=machine,
        config={"sample_rate": rate},
        seed=repeat,
        tags=app.tags(),
        command=app.command(),
    )


def emulate_request(
    prof: Profile,
    machine: str,
    repeat: int = 0,
    **config_kwargs,
) -> RunRequest:
    """Emulation request replaying ``prof`` on ``machine``."""
    return RunRequest(
        kind="emulate",
        target=prof,
        machine=machine,
        config=SynapseConfig(**config_kwargs),
        seed=repeat,
    )


def run_app(machine: str, iterations: int, repeat: int = 0, threads: int = 1,
            paradigm: str = "openmp") -> float:
    """Native application execution; returns Tx."""
    [tx] = submit([app_request(machine, iterations, repeat, threads, paradigm)])
    return tx


def profile_app(
    machine: str,
    iterations: int,
    rate: float = 1.0,
    repeat: int = 0,
) -> Profile:
    """Profile one Gromacs run."""
    [prof] = submit([profile_request(machine, iterations, rate, repeat)])
    return prof


def emulate_profile(
    prof: Profile,
    machine: str,
    repeat: int = 0,
    **config_kwargs,
) -> EmulationResult:
    """Emulate a profile on a (possibly different) machine."""
    [result] = submit([emulate_request(prof, machine, repeat, **config_kwargs)])
    return result


@dataclass(frozen=True)
class Series:
    """Mean and spread of repeated measurements."""

    mean: float
    std: float
    n: int

    @classmethod
    def of(cls, values) -> "Series":
        arr = np.asarray(list(values), dtype=float)
        return cls(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
            n=int(arr.size),
        )

    @property
    def ci99(self) -> float:
        from scipy import stats

        if self.n < 2 or self.std == 0:
            return 0.0
        return float(stats.t.ppf(0.995, self.n - 1) * self.std / np.sqrt(self.n))


def err_pct(reference: float, measured: float) -> float:
    """Signed percentage difference of measured vs reference."""
    return 100.0 * (measured - reference) / reference
