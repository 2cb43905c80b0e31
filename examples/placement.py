#!/usr/bin/env python
"""Profile-driven prediction and workload placement (repro.predict).

The companion paper "Synapse: Bridging the Gap Towards Predictable
Workload Placement" uses stored profiles to estimate execution
characteristics on distributed heterogeneous resources and choose
placements.  This example walks the full loop:

1. profile an ensemble application on the profiling host (Thinkie);
2. reduce the stored profiles to a demand vector and *predict* its
   runtime on every paper machine — no emulation runs needed;
3. decompose the ensemble into tasks and *place* them across a
   heterogeneous 3-machine set with both heuristics;
4. *validate* the chosen plan by replaying it through the simulation
   engine and reporting predicted-vs-emulated error.

Run:  python examples/placement.py
"""

import repro as synapse
from repro.apps.ensemble import EnsembleApp, EnsembleStage
from repro.core.config import SynapseConfig
from repro.predict import (
    Predictor,
    extract,
    plan_greedy_eft,
    plan_min_makespan,
    tasks_from_ensemble,
    validate_plan,
)
from repro.sim import SimBackend
from repro.sim.machines import list_machines
from repro.util.tables import Table
from repro.util.units import format_duration

MACHINES = ("titan", "comet", "supermic")


def build_app() -> EnsembleApp:
    return EnsembleApp(
        stages=(
            EnsembleStage(tasks=8, instructions=4e9, bytes_written=32 << 20),
            EnsembleStage(tasks=1, instructions=1e9, workload_class="app.generic"),
            EnsembleStage(tasks=8, instructions=4e9),
        )
    )


def main() -> None:
    app = build_app()
    store = synapse.MemoryStore()

    # 1. Profile on the profiling host, three repeats (E.1 statistics).
    for repeat in range(3):
        synapse.profile(
            app,
            backend=SimBackend("thinkie", seed=repeat),
            config=SynapseConfig(sample_rate=2.0),
            store=store,
        )
    print(f"stored {store.count()} profiles of {app.command()!r} on thinkie\n")

    # 2. Demand vector + prediction across every registered machine.
    vector = extract(store, app.command(), workload_class="app.md")
    predictor = Predictor()
    table = Table(
        ["machine", "compute [s]", "io [s]", "total [s]"],
        title="predicted serial runtime (no emulation run needed)",
    )
    for name in list_machines():
        p = predictor.predict(vector, name)
        table.add_row([name, p.compute_seconds, p.io_seconds, p.seconds])
    print(table.render())
    print(
        "the prediction ranks machines before any cross-resource "
        "emulation is attempted.\n"
    )

    # 3. Placement across a heterogeneous machine set, both heuristics.
    tasks = tasks_from_ensemble(app)
    eft = plan_greedy_eft(tasks, MACHINES, predictor=predictor)
    lpt = plan_min_makespan(tasks, MACHINES, predictor=predictor)
    print(eft.table().render())
    loads = eft.load()
    print(
        "per-machine busy time: "
        + ", ".join(f"{name}={loads[name]:.2f}s" for name in eft.machines)
    )
    print(
        f"eft makespan {format_duration(eft.makespan)} vs "
        f"min-makespan {format_duration(lpt.makespan)}\n"
    )

    # 4. Closed-loop validation on the simulation plane.
    best = min((eft, lpt), key=lambda plan: plan.makespan)
    exact = validate_plan(best, tasks)
    noisy = validate_plan(best, tasks, noisy=True, seed=1)
    print(exact.table().render())
    print(
        f"noisy replay error {noisy.error_pct:.2f}% — the analytical plan "
        "stays inside the paper's placement-accuracy envelope."
    )


if __name__ == "__main__":
    main()
