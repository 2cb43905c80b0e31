#!/usr/bin/env python
"""Declarative campaign sweeps with a resumable ledger (repro.runtime).

The paper's experiments are sweeps: the same applications profiled
across machines, noise seeds and repeats (E.1-E.3).  The campaign layer
turns such a sweep into data — a JSON-able spec — and executes it
through the unified run service, recording every cell in a profile
store.  The store *is* the ledger: re-running the campaign skips every
cell it already contains, so interrupted sweeps resume exactly where
they stopped, and a finished campaign is a no-op.

This example walks the loop:

1. declare a (2 apps x 2 machines x 2 seeds) campaign;
2. run only part of it (``limit=3`` stands in for an interruption);
3. resume: the second run executes only the missing cells;
4. verify the ledger is complete and query it like any profile store;
5. fill a second store with two elastic workers and compare digests.

Sharing a sweep (multi-host sweeps)
-----------------------------------

The same ledger scales a sweep across hosts.  Point every host at one
shared store (an NFS-mounted ``file://`` root or a Mongo URL) and let
each join as an elastic worker::

    host-0$ repro --store file:///shared/sweep campaign spec.json --elastic --join host-0
    host-1$ repro --store file:///shared/sweep campaign spec.json --elastic --join host-1
    host-2$ repro --store file:///shared/sweep campaign spec.json --elastic --join host-2

Each worker *leases* the cells of its next wave in the ledger
(``elastic_worker(spec, store, worker=name)`` in the API), so nobody
computes a cell somebody else holds, and a dead host's leases are stolen
by the survivors (see ``examples/elastic_campaign.py``).  Step 5 below
does it in-process with two workers.  The final ledger is bit-identical
to a single-host run because each cell's noise derives from its own
identity, never from where or when it executed.  Flaky cells are
handled declaratively: a spec-level ``"policy"`` (retries / timeout /
backoff) makes a bad cell fail its wave gracefully.  Once the ledger is
complete, any host can aggregate it into the paper-style tables::

    $ repro --store file:///shared/sweep campaign spec.json --report

(see ``examples/campaign_report.py`` for the analysis side).

Run:  python examples/campaign_sweep.py
"""

import repro as synapse
from repro.runtime import (
    CampaignSpec,
    elastic_worker,
    ledger,
    ledger_digest,
    run_campaign,
)

SPEC = {
    "name": "demo-sweep",
    "kind": "profile",
    "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=2"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1],
    "repeats": 1,
    "config": {"sample_rate": 2.0},
    "tags": {"experiment": "example"},
}


def main() -> None:
    spec = CampaignSpec.from_dict(SPEC)
    store = synapse.MemoryStore()
    print(f"campaign {spec.name!r}: {spec.n_cells} cells "
          f"({len(spec.apps)} apps x {len(spec.machines)} machines x "
          f"{len(spec.seeds)} seeds x {spec.repeats} repeats)\n")

    # 2. Partial run — as if the sweep was interrupted after 3 cells.
    partial = run_campaign(spec, store, limit=3)
    print(partial.table().render())
    print(f"ledger now holds {len(ledger(store, spec.name))} cells\n")

    # 3. Resume — completed cells are skipped, only the rest execute.
    resumed = run_campaign(spec, store)
    print(resumed.table().render())
    assert resumed.skipped == 3 and resumed.complete

    # 4. The ledger is an ordinary profile store: query it.
    entries = ledger(store, spec.name)
    print(f"\nledger complete: {len(entries)} cells")
    for digest, profile in sorted(entries.items()):
        machine = profile.machine.get("name", "?")
        print(f"  cell {digest}  {profile.command!r:32} on {machine:8} "
              f"Tx={profile.tx:.3f}s")

    # Deterministic per-cell seeds mean a re-run adds nothing.
    again = run_campaign(spec, store)
    assert again.executed == 0 and again.skipped == spec.n_cells
    print("\nre-run executed 0 cells (ledger already complete)")

    # 5. Two workers sharing a store, as two hosts would: each leases
    # the waves it runs, and the ledger comes out the same.
    shared = synapse.MemoryStore()
    first = elastic_worker(spec, shared, worker="host-0", limit=5)
    second = elastic_worker(spec, shared, worker="host-1")
    assert (first.executed, second.executed) == (5, 3) and second.complete
    assert ledger_digest(shared, spec.name) == ledger_digest(store, spec.name)
    print("two elastic workers (5 + 3 cells) filled a bit-identical ledger")


if __name__ == "__main__":
    main()
