#!/usr/bin/env python
"""Campaign analysis: a finished ledger becomes the paper's tables.

The Synapse paper's results are aggregates over sweeps — consistency
tables (mean/std/CV of durations across repeated runs, E.1), error
tables (relative counter errors against a reference, E.2/E.3) and
sampling-overhead columns.  ``repro.runtime.analyze`` rebuilds those
tables from any campaign ledger; this example:

1. executes a (2 apps x 2 machines x 3 seeds x 2 repeats) campaign —
   split between two elastic workers, to show the analysis is oblivious
   to *how* the ledger was filled;
2. aggregates it with ``core.api.campaign_report`` and prints the
   consistency/error table (reference machine: first in the spec);
3. drills into one group's per-metric lines and the JSON/CSV forms the
   CLI exposes as ``repro campaign <spec> --report --format json|csv``.

Run:  python examples/campaign_report.py
"""

import repro as synapse
from repro.core.api import campaign_report
from repro.runtime import CampaignSpec, elastic_worker

SPEC = {
    "name": "report-demo",
    "kind": "profile",
    "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=2"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1, 2],
    "repeats": 2,
    "config": {"sample_rate": 2.0},
    "policy": {"retries": 1},
}


def main() -> None:
    spec = CampaignSpec.from_dict(SPEC)
    store = synapse.MemoryStore()

    # 1. Fill the ledger as two workers would on two hosts.
    for worker, limit in (("host-0", spec.n_cells // 2), ("host-1", None)):
        report = elastic_worker(spec, store, worker=worker, limit=limit)
        print(f"worker {worker}: executed {report.executed} cells")
    print()

    # 2. The paper-style consistency/error table.
    analysis = campaign_report(spec, store=store)
    assert analysis.complete
    print(analysis.table().render())

    # 3. Per-metric detail of one group: every counter's mean, spread
    # and relative error against the reference machine.
    group = analysis.group(spec.apps[0], "comet")
    print(f"\n{group.app!r} on {group.machine!r} vs {analysis.reference!r}:")
    for name, err in sorted(group.counter_errors().items()):
        line = group.metrics[name]
        print(f"  {name:24} mean={line.mean:14.1f}  cv={line.cv_pct:5.2f}%  "
              f"err={err:6.2f}%")

    # Machine-independent demands (instructions, bytes) differ only by
    # measurement noise; machine-bound counters (cycles) genuinely move.
    assert group.counter_errors()["cpu.instructions"] < 2.0

    doc = analysis.to_dict()
    csv_rows = analysis.to_csv().splitlines()
    print(f"\njson: {len(doc['groups'])} groups; "
          f"csv: {len(csv_rows) - 1} metric rows "
          f"(repro campaign <spec> --report --format json|csv)")


if __name__ == "__main__":
    main()
