"""E.4 / Figures 12-14 — Emulating parallel execution.

Fig 12: a *single-threaded* Gromacs profile is emulated with OpenMP
(threads) or OpenMPI (processes) parallelism, scaling to a full node on
Titan (16 cores) and Supermic (20 cores).  Paper claims: "good scaling
for small core numbers, but diminishing return for larger core numbers";
Supermic executes faster than Titan; "OpenMP outperforms OpenMPI on
Titan, but we observe the opposite on Supermic"; Titan's runs are more
consistent (smaller error bars).

Figs 13/14: the *actual* Gromacs application scaling on Titan with
OpenMP / OpenMPI — the reference curves the emulation is compared to
("we find the scaling behavior to be similar to the actual Gromacs
application").
"""

from __future__ import annotations

from harness import backend, emulate_profile, profile_app, report, Series

from repro.apps import GromacsModel
from repro.util.tables import Table

REPEATS = 3
ITERATIONS = 1_000_000
CORE_COUNTS = {"titan": (1, 2, 4, 8, 12, 16), "supermic": (1, 2, 4, 8, 16, 20)}


def emulated_scaling(machine: str):
    prof = profile_app(machine, ITERATIONS, rate=1.0, repeat=42)
    curves: dict[str, dict[int, Series]] = {"openmp": {}, "mpi": {}}
    for paradigm in curves:
        for cores in CORE_COUNTS[machine]:
            kwargs = (
                {"openmp_threads": cores}
                if paradigm == "openmp"
                else {"mpi_processes": cores}
            )
            txs = [
                emulate_profile(prof, machine, repeat=r, **kwargs).tx
                for r in range(REPEATS)
            ]
            curves[paradigm][cores] = Series.of(txs)
    return curves


def app_scaling(machine: str):
    curves: dict[str, dict[int, Series]] = {"openmp": {}, "mpi": {}}
    for paradigm in curves:
        for cores in CORE_COUNTS[machine]:
            txs = []
            for repeat in range(REPEATS):
                app = GromacsModel(
                    iterations=ITERATIONS, threads=cores, paradigm=paradigm
                )
                txs.append(backend(machine, repeat).spawn(app).duration)
            curves[paradigm][cores] = Series.of(txs)
    return curves


def compute_e4():
    return {
        "emulated": {m: emulated_scaling(m) for m in CORE_COUNTS},
        "app_titan": app_scaling("titan"),
    }


def render_curves(curves, core_counts, title) -> Table:
    table = Table(
        ["cores", "OpenMP Tx [s]", "OpenMP std", "OpenMPI Tx [s]", "OpenMPI std"],
        title=title,
    )
    for cores in core_counts:
        omp = curves["openmp"][cores]
        mpi = curves["mpi"][cores]
        table.add_row([cores, omp.mean, omp.std, mpi.mean, mpi.std])
    return table


def test_e4_parallel_emulation():
    data = compute_e4()

    text = "\n\n".join(
        render_curves(
            data["emulated"][machine],
            CORE_COUNTS[machine],
            f"Fig 12: emulated Gromacs scaling ({machine})",
        ).render()
        for machine in CORE_COUNTS
    )
    report("Fig 12: Emulated parallel scaling (E.4)", text)
    report(
        "Figs 13/14: Actual Gromacs scaling on Titan (E.4)",
        render_curves(
            data["app_titan"],
            CORE_COUNTS["titan"],
            "Figs 13/14: application scaling (titan, OpenMP / OpenMPI)",
        ).render(),
    )

    titan = data["emulated"]["titan"]
    supermic = data["emulated"]["supermic"]

    # Good scaling at small core counts ...
    for curves, machine in ((titan, "titan"), (supermic, "supermic")):
        for paradigm in ("openmp", "mpi"):
            assert curves[paradigm][4].mean < 0.45 * curves[paradigm][1].mean
    # ... diminishing returns at the full node.
    full_titan = CORE_COUNTS["titan"][-1]
    speedup = titan["openmp"][1].mean / titan["openmp"][full_titan].mean
    assert speedup < 0.75 * full_titan

    # Supermic executes faster than Titan (2.8+ GHz Xeon vs 2.2 GHz Opteron).
    assert supermic["openmp"][1].mean < titan["openmp"][1].mean

    # OpenMP beats MPI on Titan; the opposite on Supermic.
    assert titan["openmp"][full_titan].mean < titan["mpi"][full_titan].mean
    full_supermic = CORE_COUNTS["supermic"][-1]
    assert supermic["mpi"][full_supermic].mean < supermic["openmp"][full_supermic].mean

    # Titan more consistent: smaller relative scatter.
    titan_rel = titan["openmp"][full_titan].std / titan["openmp"][full_titan].mean
    supermic_rel = (
        supermic["openmp"][full_supermic].std / supermic["openmp"][full_supermic].mean
    )
    assert titan_rel < supermic_rel

    # Emulated scaling resembles the actual application scaling (Fig 13).
    app = data["app_titan"]
    for cores in (2, 8, 16):
        app_speedup = app["openmp"][1].mean / app["openmp"][cores].mean
        emu_speedup = titan["openmp"][1].mean / titan["openmp"][cores].mean
        assert abs(emu_speedup - app_speedup) / app_speedup < 0.30
