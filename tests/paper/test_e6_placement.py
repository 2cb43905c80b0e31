"""E.6 (extension) — Prediction throughput and placement plan quality.

The placement companion paper (arXiv:1506.00272) argues profiles make
workload behaviour predictable on resources never executed on; the value
of the analytical predictor over "emulate every candidate" is speed, and
the value of the placement heuristics is how close they land to the
exhaustively optimal assignment.  Two measurements:

* **Prediction throughput** — ``Predictor.predict_many`` must evaluate a
  ``workloads × machines`` candidate matrix far faster than real time
  (acceptance: ≥ 1000 pairs in < 1 s; measured: millions/s).
* **Plan quality** — on an 8-task heterogeneous level over 3 machines,
  enumerate all 3^8 = 6561 assignments with the contended wave model,
  find the true optimum, and compare both heuristics' predicted and
  sim-plane emulated makespans against it.

The ``validate_plan`` replays execute as engine requests through the
unified run service (:mod:`repro.runtime`), sharing its persistent
worker pool across all four validations below.
"""

from __future__ import annotations

import itertools
import time

import numpy as np
import pytest
from figure_golden import pin
from harness import report

from repro.predict.models import DemandVector, Task
from repro.predict.placement import plan, wave_time
from repro.predict.predictor import Predictor
from repro.predict.validate import validate_plan
from repro.sim.machines import get_machine
from repro.util.tables import Table

MACHINES = ("titan", "comet", "supermic")

#: Heterogeneous single-level task set: mixed compute sizes, some I/O.
TASKS = [
    Task(
        name=f"t{i}",
        demand=DemandVector(
            instructions=(2.0 + (i * 7) % 5) * 1e9,
            workload_class="app.md" if i % 3 else "app.generic",
            io_write_bytes=(i % 2) * (32 << 20),
            io_block_size=256 << 10,
        ),
    )
    for i in range(8)
]


def measure_throughput(n_workloads: int = 500) -> dict[str, float]:
    rng = np.random.default_rng(42)
    vectors = [
        DemandVector(
            instructions=float(rng.integers(int(1e8), int(1e10))),
            io_write_bytes=float(rng.integers(0, 1 << 26)),
            io_read_bytes=float(rng.integers(0, 1 << 26)),
            workload_class=("app.md", "app.generic", "app.io")[int(rng.integers(3))],
        )
        for _ in range(n_workloads)
    ]
    machines = [get_machine(name) for name in MACHINES] + [
        get_machine("stampede"),
        get_machine("archer"),
        get_machine("thinkie"),
    ]
    predictor = Predictor()
    start = time.perf_counter()
    matrix = predictor.predict_many(vectors, machines)
    elapsed = time.perf_counter() - start
    pairs = matrix.shape[0] * matrix.shape[1]
    return {"pairs": pairs, "seconds": elapsed, "pairs_per_second": pairs / elapsed}


def exhaustive_optimum(predictor: Predictor) -> tuple[float, tuple[str, ...]]:
    """Brute-force the single-level placement over all 3^8 assignments."""
    specs = {name: get_machine(name) for name in MACHINES}
    best, best_assignment = float("inf"), None
    for combo in itertools.product(MACHINES, repeat=len(TASKS)):
        waves = {name: [] for name in MACHINES}
        for task, name in zip(TASKS, combo):
            waves[name].append(task)
        makespan = max(
            wave_time(wave, specs[name], predictor) for name, wave in waves.items()
        )
        if makespan < best:
            best, best_assignment = makespan, combo
    return best, best_assignment


def compute_e6() -> dict:
    throughput = measure_throughput()
    predictor = Predictor()
    t0 = time.perf_counter()
    optimum, _ = exhaustive_optimum(predictor)
    exhaustive_seconds = time.perf_counter() - t0
    rows = []
    for method in ("eft", "makespan"):
        result = plan(TASKS, MACHINES, method=method, predictor=predictor)
        exact = validate_plan(result, TASKS)
        noisy = validate_plan(result, TASKS, noisy=True, seed=5)
        rows.append(
            {
                "method": method,
                "predicted": result.makespan,
                "emulated": exact.emulated_makespan,
                "noisy_error": noisy.error_pct,
                "vs_optimal": result.makespan / optimum,
            }
        )
    return {
        "throughput": throughput,
        "optimum": optimum,
        "exhaustive_seconds": exhaustive_seconds,
        "rows": rows,
    }


def pinned(results) -> dict:
    """Everything but the host-timed throughput and search seconds."""
    return {
        "pairs": results["throughput"]["pairs"],
        "optimum": results["optimum"],
        "rows": results["rows"],
    }


def test_e6_prediction_and_placement():
    results = compute_e6()
    pin("e6", pinned(results))

    throughput = results["throughput"]
    table = Table(
        ["pairs", "seconds", "pairs/s"],
        title="prediction throughput (predict_many, 500 workloads x 6 machines)",
    )
    table.add_row(
        [
            int(throughput["pairs"]),
            throughput["seconds"],
            int(throughput["pairs_per_second"]),
        ]
    )
    quality = Table(
        ["method", "predicted [s]", "emulated [s]", "noisy err %", "vs optimal"],
        title=(
            "plan quality vs exhaustive search "
            f"(optimum {results['optimum']:.3f} s over 6561 candidates, "
            f"searched analytically in {results['exhaustive_seconds']:.2f} s)"
        ),
    )
    for row in results["rows"]:
        quality.add_row(
            [
                row["method"],
                row["predicted"],
                row["emulated"],
                row["noisy_error"],
                row["vs_optimal"],
            ]
        )
    report(
        "E6: Prediction throughput + placement quality",
        table.render() + "\n\n" + quality.render(),
    )

    # Acceptance: >= 1000 pairs in < 1 s (measured far below).
    assert throughput["pairs"] >= 1000
    assert throughput["seconds"] < 1.0
    for row in results["rows"]:
        # Exact replay is lossless; noisy replay stays inside the paper's
        # placement-accuracy envelope; heuristics land near the optimum.
        assert row["emulated"] == pytest.approx(row["predicted"], rel=1e-9)
        assert row["noisy_error"] < 25.0
        assert row["vs_optimal"] < 1.25
