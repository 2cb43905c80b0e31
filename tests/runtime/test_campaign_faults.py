"""Fault injection against the campaign ledger.

A distributed, resumable ledger fails silently when it is wrong, so the
failure modes are exercised directly: corrupt/partial cell tags, an
invocation killed mid-wave, leftovers of an older version's protocol
and duplicated artifacts.  The invariant under every fault:
a re-run recovers by executing exactly the missing cells, and the final
ledger equals the undisturbed reference.  The same invariant drawn
across backends, topologies, kills and seeded fault plans is the
property in ``test_campaign_determinism.py``.
"""

from __future__ import annotations

import pytest

from repro.core.samples import Profile
from repro.runtime import (
    CampaignSpec,
    completed_cells,
    ledger_digest,
    run_campaign,
)
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
        """Double execution (two racing invocations) stores duplicate,
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


class TestParentStores:
    """Stores written before the claim protocol was deleted may hold its
    leftover marker documents (command ``synapse:campaign-claim``, tags
    ``campaign=`` / ``claim=`` / ``owner=``): they carry no ``cell=``
    tag, so they are neither completed cells nor part of the digest."""

    @pytest.mark.parametrize("make_store", [
        lambda tmp_path: MemoryStore(),
        lambda tmp_path: FileStore(tmp_path / "store"),
    ], ids=["memory", "file"])
    def test_leftover_claim_documents_do_not_disturb_resume(
        self, reference, tmp_path, make_store
    ):
        spec, expected = reference
        store = make_store(tmp_path)
        assert run_campaign(spec, store, limit=3).executed == 3
        before = ledger_digest(store, spec.name)
        store.put_many([
            Profile(
                command="synapse:campaign-claim",
                tags={"campaign": spec.name, "claim": cell.digest,
                      "owner": "dead-shard"},
                info={"cell": cell.digest},
            )
            for cell in spec.cells()[2:5]
        ])
        assert len(completed_cells(store, spec.name)) == 3
        assert ledger_digest(store, spec.name) == before
        resumed = run_campaign(spec, store)
        assert resumed.skipped == 3 and resumed.complete
        assert _ledger_dict(store, spec.name) == expected


class TestChaosConvergence:
    """The headline robustness invariant (``test_campaign_determinism.py``
    draws it across backends and topologies): a campaign run under
    injected faults converges to a ledger bit-identical to a fault-free
    run."""

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

    def test_a_failed_store_put_is_retried_once(self, reference):
        """One ``store.put`` fault inside a campaign: the wave's store op
        retries it, once, and the campaign completes to the reference."""
        from repro.faults import FaultPlan, injected_faults
        from repro.telemetry import MemorySink, get_bus

        spec, expected = reference
        plan = FaultPlan.from_dict({"rules": [
            {"point": "store.put", "mode": "error", "at": 1},
        ]})
        store, sink = MemoryStore(), get_bus().add_sink(MemorySink())
        try:
            with injected_faults(plan):
                report = run_campaign(spec, store)
        finally:
            get_bus().remove_sink(sink)
        assert report.complete
        [retry] = sink.named("campaign.store.retry")
        assert (retry.attrs["op"], retry.attrs["attempt"]) == ("artifacts.put", 1)
        assert _ledger_dict(store, spec.name) == expected

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
        in-flight wave, persists it and reports ``interrupted``; a
        re-run completes exactly the remainder."""
        spec, expected = reference
        store = MemoryStore()
        waves: list[dict] = []
        report = run_campaign(
            spec, store, checkpoint=2,
            progress=waves.append, stop=lambda: len(waves) >= 1,
        )
        assert report.interrupted
        assert report.to_dict()["interrupted"] is True
        assert report.executed == 2  # exactly the drained first wave
        assert not report.complete
        assert len(completed_cells(store, spec.name)) == 2
        assert store.count() == 2  # nothing but the artifacts
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
