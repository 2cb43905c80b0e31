#!/usr/bin/env python
"""Elastic campaigns: lease-based work stealing over the shared ledger.

Splitting a sweep between hosts ahead of time works — until a host
dies and strands its part until a human notices.  The elastic
coordinator (:mod:`repro.runtime.coordinator`) shares a sweep with a
**pull loop** instead: every worker heartbeats its membership into the store,
pulls pending cells in *leased* batches, and steals the leases of
workers that crashed, hung or drained away.  Because every cell's
artifact derives only from the cell's own identity, the worst races —
two workers computing one cell during a steal window, a resurrected
worker storing after its thief — produce bit-identical duplicates the
ledger dedupes, so the converged ledger always equals a fault-free
single-worker run's.

This example walks the loop:

1. declare a (2 apps x 2 machines x 2 seeds) campaign and run it on a
   plain in-memory store — the reference ledger;
2. converge the same campaign with a **fleet of 3 worker processes**
   sharing one ``file://`` store (`run_elastic` — the CLI's
   ``--elastic --workers 3``);
3. attach one more worker *after the fact* (`elastic_worker` — the
   CLI's ``--elastic --join late``): it joins, finds the ledger
   complete and drains without executing anything;
4. verify the fleet's ledger is bit-identical to the reference.

Multi-host deployments look exactly like step 2/3 — point every host's
invocation at one shared store::

    host-a$ repro --store file:///shared/sweep campaign spec.json --elastic
    host-b$ repro --store file:///shared/sweep campaign spec.json --elastic --join host-b

Kill any of them mid-run; the survivors steal its leases after
``--lease-ttl`` seconds (heartbeats renew every third of that) and the
campaign still converges.  ``tests/runtime/test_coordinator.py`` pins
that chaos bar under seeded fault plans.

Run:  python examples/elastic_campaign.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.runtime import (
    CampaignSpec,
    elastic_worker,
    ledger_digest,
    run_campaign,
    run_elastic,
)
from repro.storage import FileStore, MemoryStore

SPEC = {
    "name": "elastic-demo",
    "kind": "profile",
    "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1],
    "repeats": 1,
    "config": {"sample_rate": 2.0},
}


def main() -> None:
    spec = CampaignSpec.from_dict(SPEC)

    # 1. The reference: a fault-free, single-process run of the lone loop.
    reference_store = MemoryStore()
    reference = run_campaign(spec, reference_store)
    print(f"reference run: {reference.executed} cells, "
          f"complete={reference.complete}")
    reference_digest = ledger_digest(reference_store, spec.name)

    with tempfile.TemporaryDirectory() as tmp:
        store_url = f"file://{Path(tmp) / 'sweep'}"

        # 2. A local fleet: three worker processes, one shared store.
        # Each worker is an independent OS process pulling leased
        # batches — the same topology as three hosts on an NFS mount.
        fleet = run_elastic(spec, store_url, workers=3, lease_ttl=10.0,
                            batch=2)
        print(f"fleet run: {fleet.executed} cells across 3 workers, "
              f"complete={fleet.complete}")

        # 3. A late joiner: attaches to the (already converged)
        # campaign, finds nothing pending, drains cleanly.
        store = FileStore(Path(tmp) / "sweep")
        late = elastic_worker(spec, store, worker="late", lease_ttl=10.0)
        print(f"late joiner: executed={late.executed}, "
              f"skipped={late.skipped} (ledger was complete)")

        # 4. The invariant that makes all of the above safe: the
        # fleet's ledger is bit-identical to the reference.
        fleet_digest = ledger_digest(store, spec.name)
        assert fleet_digest == reference_digest, (
            fleet_digest, reference_digest,
        )
        print(f"ledgers bit-identical: {fleet_digest[:16]}...")


if __name__ == "__main__":
    main()
