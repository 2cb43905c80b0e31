"""Fault injection against the campaign ledger and its claim protocol.

A distributed, resumable ledger fails silently when it is wrong, so the
failure modes are exercised directly: corrupt/partial cell tags, a
shard killed mid-wave, stale and live foreign claims (double-claimed
cells), and duplicated artifacts.  The invariant under every fault:
a re-run recovers by executing exactly the missing cells, and the final
ledger equals the undisturbed reference.
"""

from __future__ import annotations

import time

import pytest

from repro.core.samples import Profile
from repro.runtime import (
    CampaignSpec,
    RunService,
    claims,
    completed_cells,
    run_campaign,
    shard_cells,
)
from repro.runtime.campaign import CLAIM_COMMAND
from repro.storage import FileStore
from repro.storage.base import MemoryStore

from tests.runtime.conftest import ledger_dict as _ledger_dict

SPEC = {
    "name": "fault-camp",
    "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1],
    "repeats": 1,
    "config": {"sample_rate": 2.0},
}


@pytest.fixture(scope="module")
def reference():
    spec = CampaignSpec.from_dict(SPEC)
    store = MemoryStore()
    assert run_campaign(spec, store).complete
    return spec, _ledger_dict(store, spec.name)


def _delete_one_cell(store, name: str) -> str:
    """Remove one artifact from the ledger; returns its cell digest."""
    victim_digest = sorted(completed_cells(store, name))[0]
    victims = store.ids_for(tags=[f"campaign={name}", f"cell={victim_digest}"])
    assert victims, "victim cell not found"
    store.delete(victims[0])
    return victim_digest


class TestCorruptLedgerEntries:
    def test_corrupt_and_partial_cell_tags_recover(self, reference):
        """Entries with malformed cell tags never count as completed
        (and never crash the scan); the real cell re-executes."""
        spec, expected = reference
        store = MemoryStore()
        run_campaign(spec, store)
        victim = _delete_one_cell(store, spec.name)
        # Inject tampered documents: a campaign entry with an empty cell
        # digest, one missing the cell tag entirely, and one claiming a
        # digest that belongs to no cell of the spec.
        for tags in (
            {"campaign": spec.name, "cell": ""},
            {"campaign": spec.name, "machine": "thinkie"},
            {"campaign": spec.name, "cell": "not-a-real-digest"},
        ):
            store.put(Profile(command="tampered", tags=tags))

        report = run_campaign(spec, store)
        assert report.executed == 1  # only the deleted cell
        assert report.complete
        assert _ledger_dict(store, spec.name) == expected

    def test_partial_write_leftovers_are_ignored(self, reference, tmp_path):
        """A crash between tmp-write and rename leaves ``*.tmp`` debris
        that must not hide or corrupt cells."""
        spec, expected = reference
        store = FileStore(tmp_path)
        run_campaign(spec, store)
        debris = tmp_path / "00000000000000000000-dead-000001.seg.tmp"
        debris.write_text("{trunca", encoding="utf-8")
        report = run_campaign(spec, store)
        assert report.executed == 0 and report.skipped == spec.n_cells
        assert _ledger_dict(store, spec.name) == expected

    def test_duplicate_artifacts_are_tolerated(self, reference):
        """Double execution (two racing shards) stores duplicate,
        bit-identical artifacts; resume and analysis dedupe by digest."""
        spec, expected = reference
        store = MemoryStore()
        run_campaign(spec, store)
        digest = sorted(completed_cells(store, spec.name))[0]
        [duplicate] = store.get_many(store.ids_for(tags=[f"cell={digest}"]))
        store.put(duplicate)
        assert store.count() == spec.n_cells + 1
        report = run_campaign(spec, store)
        assert report.executed == 0 and report.complete
        assert _ledger_dict(store, spec.name) == expected


class DyingService(RunService):
    """Run service that dies (hard) after N successful batches."""

    def __init__(self, die_after_batches: int) -> None:
        super().__init__()
        self._die_after = die_after_batches

    def run(self, requests, processes=None, rethrow=True):
        if self._die_after <= 0:
            raise KeyboardInterrupt
        self._die_after -= 1
        return super().run(requests, processes=processes, rethrow=rethrow)


class TestShardCrashRecovery:
    def test_shard_killed_mid_wave_resumes(self, reference):
        spec, expected = reference
        store = MemoryStore()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, store, shard=(0, 2), service=DyingService(1), checkpoint=2
            )
        survived = len(completed_cells(store, spec.name))
        assert survived == 2  # exactly the checkpointed first wave
        # The interrupted invocation cleaned its claims up on the way
        # out, so the re-run isn't deferred by its own corpse.
        assert claims(store, spec.name) == {}
        resumed = run_campaign(spec, store, shard=(0, 2))
        assert resumed.skipped == survived
        run_campaign(spec, store, shard=(1, 2))
        assert _ledger_dict(store, spec.name) == expected

    def test_claims_cleaned_when_readback_fails(self, reference):
        """If the claim read-back itself dies (store error mid-scan),
        the just-written markers are deleted on the way out — an
        immediate re-run must not defer to this invocation's corpse.
        The failure arrives through the chaos plane's ``campaign.claim``
        point — the same fault a ``--faults`` soak run can inject."""
        from repro.core.errors import StoreError
        from repro.faults import FaultPlan, injected_faults

        spec, expected = reference
        store = MemoryStore()
        plan = FaultPlan.from_dict({"rules": [
            {"point": "campaign.claim", "mode": "error", "error": "store",
             "at": 1},
        ]})
        with injected_faults(plan):
            with pytest.raises(StoreError):
                run_campaign(spec, store, shard=(0, 2))
        assert claims(store, spec.name) == {}
        report = run_campaign(spec, store, shard=(0, 2))
        assert report.deferred == 0 and report.executed == report.assigned
        run_campaign(spec, store, shard=(1, 2))
        assert _ledger_dict(store, spec.name) == expected

    def test_stale_claims_from_a_killed_shard_are_ignored(self, reference):
        """A hard-killed shard (no cleanup chance) leaves claim markers;
        once they age past claim_ttl a re-run executes right through."""
        spec, expected = reference
        store = MemoryStore()
        dead_wave = shard_cells(spec.cells(), (0, 2))[:2]
        for cell in dead_wave:
            store.put(Profile(
                command=CLAIM_COMMAND,
                tags={"campaign": spec.name, "claim": cell.digest,
                      "owner": "dead-shard"},
                created=time.time() - 3600.0,
            ))
        report = run_campaign(spec, store, shard=(0, 2), claim_ttl=60.0)
        assert report.deferred == 0
        assert report.executed == report.assigned
        # The expired markers were garbage-collected, not just ignored:
        # they must not pollute the shared store forever.
        assert claims(store, spec.name) == {}
        run_campaign(spec, store, shard=(1, 2))
        assert _ledger_dict(store, spec.name) == expected


class TestDoubleClaimedCells:
    def test_live_foreign_claim_defers_the_cell(self, reference):
        """A fresh claim by a concurrent invocation wins the cell; this
        invocation defers it instead of computing it twice."""
        spec, expected = reference
        store = MemoryStore()
        contested = shard_cells(spec.cells(), (0, 2))[0]
        rival = store.put(Profile(
            command=CLAIM_COMMAND,
            tags={"campaign": spec.name, "claim": contested.digest,
                  "owner": "a-rival"},
            created=time.time() - 1.0,  # earlier than ours -> rival wins
        ))
        report = run_campaign(spec, store, shard=(0, 2))
        assert report.deferred == 1
        assert report.executed == report.assigned - 1
        assert contested.digest not in completed_cells(store, spec.name)
        # The rival died without storing the cell: drop its claim and
        # re-run -> only the contested cell executes.
        store.delete(rival)
        recovery = run_campaign(spec, store, shard=(0, 2))
        assert recovery.executed == 1 and recovery.deferred == 0
        run_campaign(spec, store, shard=(1, 2))
        assert _ledger_dict(store, spec.name) == expected

    def test_claiming_can_protect_unsharded_runs(self, reference):
        """claim=True opts an unsharded run into the same protocol."""
        spec, expected = reference
        store = MemoryStore()
        report = run_campaign(spec, store, claim=True)
        assert report.complete and report.deferred == 0
        assert store.count() == spec.n_cells  # claims cleaned up
        assert _ledger_dict(store, spec.name) == expected

    def test_claim_scans_stop_when_no_rivals_are_live(self, reference):
        """The store-wide claim read-back is paid per wave only while a
        rival is actually live; a lone invocation scans exactly once."""
        spec, _ = reference

        class CountingStore(MemoryStore):
            claim_scans = 0

            def entries(self, command=None, tags=None):
                if command == CLAIM_COMMAND:
                    self.claim_scans += 1
                return super().entries(command, tags)

        store = CountingStore()
        report = run_campaign(spec, store, claim=True, checkpoint=2)
        assert report.complete
        assert len(spec.cells()) > 2  # several waves ran...
        assert store.claim_scans == 1  # ...but only the first scanned

    def test_double_execution_recovers_on_rerun(self, reference):
        """Claims off + overlapping invocations: the worst case is
        duplicate bit-identical artifacts, and a re-run is a no-op."""
        spec, expected = reference
        store = MemoryStore()
        run_campaign(spec, store, shard=(0, 2), claim=False)
        # The "overlap": the same shard runs again against a copy of the
        # ledger state it started from, re-executing its cells.
        rerun_store = MemoryStore()
        run_campaign(spec, rerun_store, shard=(0, 2), claim=False)
        store.put_many(rerun_store.get_many(rerun_store.ids_for()))
        assert store.count() == 2 * len(shard_cells(spec.cells(), (0, 2)))
        report = run_campaign(spec, store)  # completes shard 1's cells
        assert report.complete
        assert _ledger_dict(store, spec.name) == expected


class TestChaosConvergence:
    """The headline robustness invariant (the CI chaos job pins the same
    thing end to end through the CLI): a campaign run under injected
    faults converges to a ledger bit-identical to a fault-free run."""

    def test_store_faults_converge_to_the_reference_digest(self, reference):
        from repro.faults import FaultPlan, injected_faults
        from repro.runtime import ledger_digest

        spec, _ = reference
        clean = MemoryStore()
        assert run_campaign(spec, clean).complete
        reference_digest = ledger_digest(clean, spec.name)

        plan = FaultPlan.from_dict({"seed": 7, "rules": [
            {"point": "store.put", "mode": "error", "probability": 0.05},
            {"point": "store.entries", "mode": "error", "probability": 0.05},
        ]})
        faulted = MemoryStore()
        with injected_faults(plan):
            report = run_campaign(spec, faulted)
        assert report.complete
        assert ledger_digest(faulted, spec.name) == reference_digest

    def test_injected_worker_crash_converges(self, reference, tmp_path):
        """A worker crash mid-campaign (fuse-limited to exactly one):
        the supervisor restarts the pool, the wave completes, and the
        ledger digest still matches the fault-free run."""
        from repro.faults import FaultPlan, injected_faults
        from repro.runtime import ledger_digest

        spec, _ = reference
        clean = MemoryStore()
        assert run_campaign(spec, clean).complete
        reference_digest = ledger_digest(clean, spec.name)

        plan = FaultPlan.from_dict({"rules": [
            {"point": "worker.execute", "mode": "crash",
             "fuse": str(tmp_path / "campaign-crash.fuse")},
        ]})
        faulted = MemoryStore()
        with injected_faults(plan):
            # A fresh service whose pool forks after plan activation.
            with RunService(processes=2) as service:
                report = run_campaign(spec, faulted, service=service)
        assert report.complete
        assert (tmp_path / "campaign-crash.fuse").exists()
        assert service.stats["pool_crashes"] >= 1
        assert ledger_digest(faulted, spec.name) == reference_digest

    def test_ledger_digest_ignores_run_identity_only(self, reference):
        """Two independent executions digest identically; a changed
        result would not."""
        from repro.runtime import ledger_digest

        spec, _ = reference
        a, b = MemoryStore(), MemoryStore()
        run_campaign(spec, a)
        run_campaign(spec, b)
        assert ledger_digest(a, spec.name) == ledger_digest(b, spec.name)
        # Tampering with a stored result must change the digest.
        victim = sorted(completed_cells(b, spec.name))[0]
        [artifact] = b.get_many(b.ids_for(tags=[f"cell={victim}"]))
        artifact.info["tampered"] = True
        assert ledger_digest(a, spec.name) != ledger_digest(b, spec.name)


class TestGracefulDrain:
    def test_stop_drains_the_wave_and_checkpoints(self, reference):
        """A stop request (the SIGTERM handler's flag) finishes the
        in-flight wave, persists it, releases claims and reports
        ``interrupted``; a re-run completes exactly the remainder."""
        spec, expected = reference
        store = MemoryStore()
        waves: list[dict] = []
        report = run_campaign(
            spec, store, checkpoint=2, claim=True,
            progress=waves.append, stop=lambda: len(waves) >= 1,
        )
        assert report.interrupted
        assert report.to_dict()["interrupted"] is True
        assert report.executed == 2  # exactly the drained first wave
        assert not report.complete
        assert len(completed_cells(store, spec.name)) == 2
        assert claims(store, spec.name) == {}  # no claim debris left
        resumed = run_campaign(spec, store)
        assert not resumed.interrupted
        assert resumed.skipped == 2 and resumed.complete
        assert _ledger_dict(store, spec.name) == expected

    def test_stop_before_the_first_wave_executes_nothing(self, reference):
        spec, _ = reference
        store = MemoryStore()
        report = run_campaign(spec, store, stop=lambda: True)
        assert report.interrupted and report.executed == 0
        assert store.count() == 0

    def test_interrupted_table_names_the_state(self, reference):
        spec, _ = reference
        store = MemoryStore()
        report = run_campaign(spec, store, checkpoint=2, stop=lambda: True)
        assert "interrupted (drained)" in report.table().render()
