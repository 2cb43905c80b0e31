"""Campaign specs, ledger resume semantics (``repro.runtime.campaign``)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.errors import ConfigError
from repro.runtime import (
    CampaignSpec,
    RunService,
    completed_cells,
    elastic_worker,
    ledger,
    ledger_digest,
    run_campaign,
)
from repro.storage.base import MemoryStore

from tests.runtime.conftest import comparable_profile as _comparable

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "campaign_seed_golden.json")
    .read_text(encoding="utf-8")
)

SPEC = {
    "name": "camp",
    "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1],
    "repeats": 1,
    "config": {"sample_rate": 2.0},
}


class TestSpec:
    def test_from_dict_and_expansion(self):
        spec = CampaignSpec.from_dict(SPEC)
        assert spec.n_cells == 2 * 2 * 2
        cells = spec.cells()
        assert len(cells) == spec.n_cells
        assert len({cell.digest for cell in cells}) == spec.n_cells

    def test_cell_order_and_digests_are_deterministic(self):
        first = CampaignSpec.from_dict(SPEC).cells()
        second = CampaignSpec.from_dict(SPEC).cells()
        assert [c.digest for c in first] == [c.digest for c in second]

    def test_digest_tracks_result_affecting_settings(self):
        base = CampaignSpec.from_dict(SPEC).cells()[0]
        changed = CampaignSpec.from_dict({**SPEC, "config": {"sample_rate": 5.0}})
        assert base.digest != changed.cells()[0].digest

    def test_digest_tracks_spec_tags(self):
        """Tags land in the stored artifacts, so editing them must
        invalidate old cells instead of silently reusing them."""
        tagged = CampaignSpec.from_dict({**SPEC, "tags": {"experiment": "a"}})
        retagged = CampaignSpec.from_dict({**SPEC, "tags": {"experiment": "b"}})
        assert tagged.cells()[0].digest != retagged.cells()[0].digest

    def test_duplicate_entries_rejected(self):
        """Duplicate apps/machines/seeds would expand to digest-identical
        cells — one artifact posing as several measurements."""
        with pytest.raises(ConfigError, match="seeds must not contain duplicates"):
            CampaignSpec.from_dict({**SPEC, "seeds": [0, 0]})
        with pytest.raises(ConfigError, match="apps must not contain duplicates"):
            CampaignSpec.from_dict({**SPEC, "apps": ["sleeper", "sleeper"]})
        with pytest.raises(ConfigError, match="machines must not contain"):
            CampaignSpec.from_dict({**SPEC, "machines": ["thinkie", "thinkie"]})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown campaign spec keys"):
            CampaignSpec.from_dict({**SPEC, "machnes": ["thinkie"]})

    def test_required_keys(self):
        with pytest.raises(ConfigError, match="need"):
            CampaignSpec.from_dict({"name": "x", "apps": ["sleeper"]})

    def test_bad_kind_and_name(self):
        with pytest.raises(ConfigError, match="kind"):
            CampaignSpec.from_dict({**SPEC, "kind": "teleport"})
        with pytest.raises(ConfigError, match="name"):
            CampaignSpec.from_dict({**SPEC, "name": "a=b"})

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC), encoding="utf-8")
        assert CampaignSpec.from_json(path).n_cells == 8
        with pytest.raises(ConfigError, match="cannot read"):
            CampaignSpec.from_json(tmp_path / "missing.json")


class TestRunCampaign:
    def test_full_run_fills_ledger(self):
        spec = CampaignSpec.from_dict(SPEC)
        store = MemoryStore()
        report = run_campaign(spec, store)
        assert report.complete
        assert report.executed == spec.n_cells
        assert set(ledger(store, spec.name)) == {c.digest for c in spec.cells()}

    def test_profiles_carry_cell_tags(self):
        spec = CampaignSpec.from_dict({**SPEC, "tags": {"experiment": "x"}})
        store = MemoryStore()
        run_campaign(spec, store)
        profile = store.find(tags=[f"campaign={spec.name}"])[0]
        assert "experiment=x" in profile.tags
        assert any(tag.startswith("cell=") for tag in profile.tags)

    def test_run_kind_stores_summary_artifacts(self):
        spec = CampaignSpec.from_dict(
            {**SPEC, "kind": "run", "config": {}, "apps": ["gromacs:iterations=20000"]}
        )
        store = MemoryStore()
        report = run_campaign(spec, store)
        assert report.complete
        profile = store.find(tags=[f"campaign={spec.name}"])[0]
        assert profile.statics["time.runtime_rusage"] > 0
        assert profile.info["campaign_kind"] == "run"

    def test_interrupted_campaign_resumes_only_missing_cells(self):
        """The acceptance scenario: interrupt mid-sweep, re-run, assert
        completed cells are skipped and the final ledger is identical to
        an uninterrupted run's."""
        spec = CampaignSpec.from_dict(SPEC)

        # Uninterrupted reference sweep.
        reference_store = MemoryStore()
        run_campaign(spec, reference_store)
        reference = {
            digest: _comparable(profile)
            for digest, profile in ledger(reference_store, spec.name).items()
        }

        # Interrupted sweep: 3 cells, stop, resume.
        store = MemoryStore()
        partial = run_campaign(spec, store, limit=3)
        assert partial.executed == 3 and partial.truncated
        assert partial.remaining == spec.n_cells - 3
        assert len(completed_cells(store, spec.name)) == 3

        resumed = run_campaign(spec, store)
        assert resumed.skipped == 3
        assert resumed.executed == spec.n_cells - 3
        assert resumed.complete

        final = {
            digest: _comparable(profile)
            for digest, profile in ledger(store, spec.name).items()
        }
        assert final == reference

    def test_completed_campaign_is_a_noop(self):
        spec = CampaignSpec.from_dict(SPEC)
        store = MemoryStore()
        run_campaign(spec, store)
        again = run_campaign(spec, store)
        assert again.executed == 0
        assert again.skipped == spec.n_cells
        assert again.complete

    def test_failed_cells_are_not_recorded_as_complete(self):
        spec = CampaignSpec.from_dict(
            {**SPEC, "apps": ["gromacs:iterations=20000", "nosuchapp"]}
        )
        store = MemoryStore()
        report = run_campaign(spec, store)
        assert len(report.failed) == 4  # nosuchapp x 2 machines x 2 seeds
        assert report.executed == 4
        assert not report.complete
        assert len(completed_cells(store, spec.name)) == 4

    def test_checkpoint_waves_persist_incrementally(self):
        """A service dying mid-sweep loses at most one checkpoint wave."""

        class DyingService(RunService):
            def __init__(self, die_after_batches: int) -> None:
                super().__init__()
                self._die_after = die_after_batches

            def run(self, requests, processes=None, rethrow=True):
                if self._die_after <= 0:
                    raise KeyboardInterrupt
                self._die_after -= 1
                return super().run(requests, processes=processes, rethrow=rethrow)

        spec = CampaignSpec.from_dict(SPEC)
        store = MemoryStore()
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                spec, store, service=DyingService(1), checkpoint=3
            )
        # The first wave (3 cells) survived the crash.
        assert len(completed_cells(store, spec.name)) == 3
        resumed = run_campaign(spec, store)
        assert resumed.skipped == 3 and resumed.complete

    def test_report_dict_roundtrip(self):
        spec = CampaignSpec.from_dict(SPEC)
        report = run_campaign(spec, MemoryStore(), limit=2)
        doc = report.to_dict()
        assert doc["total"] == spec.n_cells
        assert doc["executed"] == 2
        assert doc["truncated"] is True
        assert doc["complete"] is False


class TestScopeShapes:
    """A sweep executes in one plan scope, and how its waves cut the
    (app, machine) pairs decides which rows replay together — never what
    lands in the ledger."""

    SPEC = {
        **SPEC, "name": "shapes", "seeds": [5, 6, 7, 8], "repeats": 2,
    }  # 4 pairs of 8 cells

    @pytest.fixture(scope="class")
    def reference(self):
        """Every cell's request alone in a batch of its own."""
        spec = CampaignSpec.from_dict(self.SPEC)
        store = MemoryStore()
        with RunService(processes=1) as svc:
            store.put_many([
                cell.artifact(svc.run([cell.to_request()])[0].value)
                for cell in spec.cells()
            ])
        return ledger_digest(store, spec.name)

    @pytest.mark.parametrize("checkpoint", [1, 3, 8, 64])
    def test_digest_is_the_same_for_every_wave_size(
        self, reference, checkpoint
    ):
        spec = CampaignSpec.from_dict(self.SPEC)
        store = MemoryStore()
        with RunService(processes=1) as svc:
            report = run_campaign(spec, store, service=svc, checkpoint=checkpoint)
        assert report.complete and report.executed == 32
        assert ledger_digest(store, spec.name) == reference

    def test_sweep_interrupted_mid_pair_and_resumed(self, reference):
        spec = CampaignSpec.from_dict(self.SPEC)
        store = MemoryStore()
        stops = iter([False, False, True])
        with RunService(processes=1) as svc:
            # 5 of the first pair's 8 cells; then two waves of 3 into the
            # next pair and a drain; then whatever is left.
            assert run_campaign(spec, store, service=svc, limit=5).executed == 5
            drained = run_campaign(
                spec, store, service=svc, checkpoint=3, stop=lambda: next(stops)
            )
            assert drained.interrupted and drained.executed == 6
            assert run_campaign(spec, store, service=svc).complete
        assert store.count() == 32
        assert ledger_digest(store, spec.name) == reference

    def test_two_worker_union_equals_lone(self, reference):
        """Two invocations that split the sweep mid-pair — elastic
        workers, the way invocations share one — fill the same ledger."""
        spec = CampaignSpec.from_dict(self.SPEC)
        store = MemoryStore()
        with RunService(processes=1) as svc:
            reports = [
                elastic_worker(
                    spec, store, worker=worker, service=svc, batch=3, limit=limit
                )
                for worker, limit in (("a", 13), ("b", None))
            ]
        assert [report.executed for report in reports] == [13, 19]
        assert store.count() == 32
        assert store.markers(spec.name) == []
        assert ledger_digest(store, spec.name) == reference


class TestSeedGoldens:
    """Pin the digest scheme and per-cell noise-seed derivation: a
    change to either the cell-digest scheme or ``seed_from`` fails these
    tests instead of silently invalidating every stored ledger."""

    @pytest.fixture(scope="class")
    def reference(self):
        """Reference run of the golden spec (shared; read-only)."""
        spec = CampaignSpec.from_dict(GOLDEN["spec"])
        store = MemoryStore()
        assert run_campaign(spec, store).complete
        return spec, store

    def test_digests_match_golden(self):
        cells = {c.digest: c for c in CampaignSpec.from_dict(GOLDEN["spec"]).cells()}
        assert len(GOLDEN["cells"]) == len(cells)
        for pin in GOLDEN["cells"]:
            cell = cells.get(pin["digest"])
            assert cell is not None, f"digest {pin['digest']} disappeared"
            assert (cell.app, cell.machine, cell.seed, cell.rep) == (
                pin["app"], pin["machine"], pin["seed"], pin["rep"]
            )

    def test_noise_seeds_match_golden(self):
        """The exact seed each cell's engine noise stream derives from.

        ``seed_from(machine, workload, seed, index)`` is the spawn-slot
        derivation the sim backend and the run service share; the pins
        make any change to it (or to the workload naming it hashes)
        loud.
        """
        from repro.apps.registry import parse_app
        from repro.sim.machines import resolve_machine
        from repro.sim.noise import seed_from

        for pin in GOLDEN["cells"]:
            workload = parse_app(pin["app"]).build_workload(
                resolve_machine(pin["machine"])
            )
            assert workload.name == pin["workload"]
            assert (
                seed_from(pin["machine"], workload.name, pin["seed"], pin["rep"] + 1)
                == pin["noise_seed"]
            )

    def test_executed_profiles_draw_the_pinned_streams(self, reference):
        """End to end: two independent runs of the pinned spec agree on
        every noisy duration, so the goldens really pin the streams the
        ledger stores."""
        spec, ref_store = reference
        store = MemoryStore()
        run_campaign(spec, store)
        reference_entries = ledger(ref_store, spec.name)
        for digest, profile in ledger(store, spec.name).items():
            assert profile.tx == reference_entries[digest].tx


class TestOneWaveBody:
    """``run_campaign`` and ``elastic_worker`` choose waves differently
    and execute them through the same body."""

    SPEC = {**SPEC, "name": "body", "apps": ["gromacs:iterations=20000", "nosuchapp"]}

    def run_both(self):
        spec = CampaignSpec.from_dict(self.SPEC)
        outcomes = []
        with RunService(processes=1) as svc:
            for loop, waves in (
                (run_campaign, {"checkpoint": 3}),
                (elastic_worker, {"batch": 3, "worker": "w"}),
            ):
                store, seen = MemoryStore(), []
                report = loop(
                    spec, store, service=svc, progress=seen.append, **waves
                )
                outcomes.append((report, seen, ledger_digest(store, spec.name)))
        return outcomes

    def test_wave_summaries_have_the_same_keys_and_meaning(self):
        (lone, lone_seen, lone_digest), (worker, seen, digest) = self.run_both()
        assert lone_digest == digest
        assert len(lone_seen) == len(seen) == 3  # 8 cells in waves of 3
        for mine, theirs in zip(lone_seen, seen):
            assert mine.keys() == theirs.keys()
            transient = ("member", "elapsed")
            assert {k: v for k, v in mine.items() if k not in transient} == {
                k: v for k, v in theirs.items() if k not in transient
            }
        # Per wave since the previous summary / sweep-wide.
        assert [s["executed"] for s in seen] == [3, 1, 0]
        assert [s["failed"] for s in seen] == [0, 2, 2]
        assert [s["deferred"] for s in seen] == [0, 0, 0]
        assert [s["completed"] for s in seen] == [3, 4, 4]
        assert [s["pending"] for s in seen] == [5, 4, 4]

    def test_a_failing_request_build_is_recorded_identically(self):
        (lone, _, _), (worker, _, _) = self.run_both()
        assert lone.failed == worker.failed and len(lone.failed) == 4
        assert all("nosuchapp" in failure["error"] for failure in lone.failed)
        assert lone.to_dict().keys() == worker.to_dict().keys()
        assert (lone.executed, lone.remaining) == (worker.executed, worker.remaining)
