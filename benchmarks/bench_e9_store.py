"""E.9 (extension) — Store throughput: indexed lookups vs the full scan.

The §4.5 storage layer is the search index behind every plane (profiles
looked up by command/tags feed prediction, emulation replay and the
campaign ledger), so its fast paths get measured like any other hot
path:

* **tag-filtered ``find``** — cold (fresh store instance, sidecar index
  loaded from disk) and warm (index cached, validated by names-only
  directory listings) against the brute-force full scan
  (``ProfileStore.find``: every profile parsed and tested) on a
  5k-profile FileStore;
* **latest-profile ``get`` and batched ``get_many``** — the index plane
  resolves candidates first, then loads exactly the payloads needed;
* **campaign ledger bookkeeping** — ``completed_cells`` (the resume /
  wave re-scan cost) and the ``--report`` ledger build on a
  ledger-shaped store (one group per cell — the worst case for group
  pruning, where the win is payload-free index entries);
* **campaign resume** — a full ``run_campaign`` over an already
  complete ledger (pure bookkeeping, zero cells executed).

Every indexed result is asserted bit-identical to its brute-force
reference before timings are reported.  Results land in
``benchmarks/results/BENCH_e9_store.json``.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_e9_store.py [--quick] [--out X.json]

or through pytest: ``pytest benchmarks/bench_e9_store.py``.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.core.samples import Profile, Sample
from repro.runtime import CampaignSpec, completed_cells, ledger, run_campaign
from repro.storage import FileStore
from repro.storage.base import ProfileStore
from repro.util.tables import Table

#: Tag every benchmark profile carries (so one tag filter spans the store).
EXPERIMENT_TAG = "experiment=e9"


def _timeit(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_grouped_store(root: Path, n_profiles: int, n_groups: int,
                        n_samples: int) -> FileStore:
    """A paper-shaped store: repeated profiling runs in (command, tags)
    groups — ``n_profiles`` spread over ``n_groups`` groups."""
    store = FileStore(root)
    profiles = []
    for i in range(n_profiles):
        group = i % n_groups
        samples = [
            Sample(index=s, t=float(s), dt=1.0,
                   values={"cpu.cycles_used": float(s * i % 97),
                           "cpu.instructions_retired": float(s + i),
                           "io.bytes_read": float(i % 13)})
            for s in range(n_samples)
        ]
        profiles.append(Profile(
            command=f"bench app{group % 8}",
            tags=(f"cfg={group}", EXPERIMENT_TAG),
            machine={"name": "thinkie"},
            samples=samples,
            statics={"sys.cores": 4},
            created=1_000_000.0 + i * 0.001,
        ))
    store.put_many(profiles)
    return store


def make_ledger_spec(n_seeds: int) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "bench-e9",
        "kind": "profile",
        "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
        "machines": ["thinkie", "comet"],
        "seeds": list(range(n_seeds)),
        "repeats": 1,
        "config": {"sample_rate": 2.0},
    })


def build_ledger_store(root: Path, spec: CampaignSpec) -> FileStore:
    """A complete campaign ledger synthesised cell-by-cell (artifacts
    carry real cell tags; no cells are executed)."""
    store = FileStore(root)
    artifacts = [
        Profile(
            command=f"bench {cell.app}",
            tags=cell.cell_tags(),
            statics={"time.runtime_rusage": 1.0 + index * 0.01},
            created=2_000_000.0 + index * 0.001,
        )
        for index, cell in enumerate(spec.cells())
    ]
    store.put_many(artifacts)
    return store


def _reference_completed_cells(store, name: str) -> set[str]:
    """The pre-index implementation: full scan, payloads and all."""
    digests = set()
    for profile in ProfileStore.find(store, tags=[f"campaign={name}"]):
        for tag in profile.tags:
            if tag.startswith("cell="):
                digests.add(tag[len("cell="):])
    return digests


def measure(n_profiles: int = 5000, n_groups: int = 50, n_samples: int = 20,
            ledger_seeds: int = 250, warm_rounds: int = 10,
            scan_rounds: int = 3) -> dict:
    results: dict = {
        "store": {"n_profiles": n_profiles, "n_groups": n_groups,
                  "n_samples": n_samples},
    }
    with tempfile.TemporaryDirectory(prefix="bench-e9-") as tmp:
        root = Path(tmp) / "grouped"
        writer = build_grouped_store(root, n_profiles, n_groups, n_samples)
        target_tag = f"cfg={n_groups // 2}"
        target_cmd = f"bench app{(n_groups // 2) % 8}"

        # Correctness gate: indexed results bit-identical to the scan.
        indexed = [p.to_dict() for p in writer.find(tags=[target_tag])]
        reference = [p.to_dict()
                     for p in ProfileStore.find(writer, tags=[target_tag])]
        assert indexed == reference and indexed, "indexed find diverged"

        scan_s = _timeit(
            lambda: ProfileStore.find(writer, tags=[target_tag]), scan_rounds)
        cold_s = _timeit(
            lambda: FileStore(root).find(tags=[target_tag]), warm_rounds)
        warm_store = FileStore(root)
        warm_store.find(tags=[target_tag])
        warm_s = _timeit(
            lambda: warm_store.find(tags=[target_tag]), warm_rounds)
        results["find_tag_filtered"] = {
            "n_results": len(indexed),
            "scan_seconds": scan_s,
            "cold_seconds": cold_s,
            "warm_seconds": warm_s,
            "cold_speedup": scan_s / cold_s,
            "warm_speedup": scan_s / warm_s,
        }

        assert (warm_store.get(target_cmd, [target_tag]).to_dict()
                == reference[-1]), "indexed get diverged"
        get_scan_s = _timeit(
            lambda: ProfileStore.find(writer, target_cmd, [target_tag])[-1],
            scan_rounds)
        get_s = _timeit(
            lambda: warm_store.get(target_cmd, [target_tag]), warm_rounds)
        results["get_latest"] = {
            "scan_seconds": get_scan_s,
            "indexed_seconds": get_s,
            "speedup": get_scan_s / get_s,
        }

        ids = warm_store.ids_for(tags=[target_tag])
        get_many_s = _timeit(lambda: warm_store.get_many(ids), warm_rounds)
        results["get_many"] = {
            "n_ids": len(ids),
            "seconds": get_many_s,
            "profiles_per_sec": len(ids) / get_many_s if get_many_s else 0.0,
        }

        # Campaign-ledger shape: one group per cell (worst case for
        # group pruning; the index answers from sidecar entries).
        spec = make_ledger_spec(ledger_seeds)
        ledger_store = build_ledger_store(Path(tmp) / "ledger", spec)
        assert (completed_cells(ledger_store, spec.name)
                == _reference_completed_cells(ledger_store, spec.name))

        cells_scan_s = _timeit(
            lambda: _reference_completed_cells(ledger_store, spec.name),
            scan_rounds)
        cells_idx_s = _timeit(
            lambda: completed_cells(ledger_store, spec.name), warm_rounds)
        ledger_s = _timeit(
            lambda: ledger(ledger_store, spec.name), max(1, warm_rounds // 2))
        results["campaign_ledger"] = {
            "n_cells": spec.n_cells,
            "completed_cells_scan_seconds": cells_scan_s,
            "completed_cells_indexed_seconds": cells_idx_s,
            "completed_cells_speedup": cells_scan_s / cells_idx_s,
            "ledger_build_seconds": ledger_s,
            "ledger_cells_per_sec": spec.n_cells / ledger_s if ledger_s else 0.0,
        }

        # Full resume over the complete ledger: pure bookkeeping.
        resume_t0 = time.perf_counter()
        report = run_campaign(spec, ledger_store)
        resume_s = time.perf_counter() - resume_t0
        assert report.executed == 0 and report.skipped == spec.n_cells
        results["campaign_resume"] = {
            "seconds": resume_s,
            "cells_per_sec": spec.n_cells / resume_s if resume_s else 0.0,
        }
    return results


def as_table(results: dict) -> Table:
    store = results["store"]
    table = Table(
        ["path", "scan [s]", "indexed [s]", "speedup"],
        title=(f"E9 store fast path ({store['n_profiles']} profiles, "
               f"{store['n_groups']} groups)"),
    )
    find = results["find_tag_filtered"]
    table.add_row(["find(tags) cold", find["scan_seconds"],
                   find["cold_seconds"], f"{find['cold_speedup']:.1f}x"])
    table.add_row(["find(tags) warm", find["scan_seconds"],
                   find["warm_seconds"], f"{find['warm_speedup']:.1f}x"])
    get = results["get_latest"]
    table.add_row(["get latest", get["scan_seconds"],
                   get["indexed_seconds"], f"{get['speedup']:.1f}x"])
    campaign = results["campaign_ledger"]
    table.add_row(["completed_cells", campaign["completed_cells_scan_seconds"],
                   campaign["completed_cells_indexed_seconds"],
                   f"{campaign['completed_cells_speedup']:.1f}x"])
    table.add_row(["resume (no-op run)", "-",
                   results["campaign_resume"]["seconds"], "-"])
    return table


def test_e9_store():
    """Pytest entry: quick measurement + report registration."""
    from conftest import report  # noqa: PLC0415 - pytest-only plumbing

    results = measure(n_profiles=400, n_groups=10, n_samples=5,
                      ledger_seeds=20, warm_rounds=3, scan_rounds=1)
    # Equivalence is asserted inside measure(); here only sanity-check
    # that the indexed paths actually win (10x is pinned on the full-size
    # committed run, not on tiny CI stores).
    assert results["find_tag_filtered"]["warm_speedup"] > 1.0
    assert results["campaign_ledger"]["completed_cells_speedup"] > 1.0
    report("E9: store fast path", str(as_table(results)))


def main() -> None:
    from harness import write_json_result  # noqa: PLC0415 - script entry

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small store (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="result JSON path (default: benchmarks/results/)")
    args = parser.parse_args()
    if args.quick:
        results = measure(n_profiles=600, n_groups=12, n_samples=8,
                          ledger_seeds=30, warm_rounds=5, scan_rounds=2)
    else:
        results = measure()
    print(as_table(results).render())
    path = write_json_result("BENCH_e9_store", results, out=args.out)
    print(f"\nresults written to {path}")
    print(json.dumps({k: results[k] for k in
                      ("find_tag_filtered", "campaign_ledger")}, indent=1))


if __name__ == "__main__":
    main()
