"""The read-only v1 shim: stores written before segments stay usable.

The old layout (a directory per ``(command, tags)`` group, a ``*.json``
file per profile, an ``index.jsonl`` journal) is written by hand —
:func:`tests.storage.conftest.write_v1` — and every index- and
payload-plane call must agree with the brute-force ``_iter_profiles``
scan on a root holding both layouts.  v1 groups are never written:
deletes unlink the payload file and nothing else, and new profiles land
beside the groups as segments.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import CorruptArtifactError, StoreError
from repro.runtime import CampaignSpec, ledger_digest, run_campaign
from repro.storage import FileStore
from repro.storage.base import MemoryStore, ProfileStore
from tests.storage.conftest import damage_record, segment_files, write_v1
from tests.storage.test_store_index import PROBES, random_profile


def tree(root) -> dict[str, bytes]:
    """Every file under the root's non-dot directories (the v1 groups)."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for group in root.iterdir() if group.is_dir() and group.name[0] != "."
        for path in group.iterdir()
    }


@pytest.fixture
def mixed(tmp_path):
    """A root holding 20 v1 profiles, then 20 more as segments."""
    rng = random.Random(31)
    profiles = [random_profile(rng, 1000.0 + i * rng.uniform(0.5, 2.0))
                for i in range(40)]
    # Two of the v1 profiles lack a journal line, five lack a ``sum``.
    ids = write_v1(tmp_path, profiles[:13])
    ids += write_v1(tmp_path, profiles[13:18], sums=False)
    ids += write_v1(tmp_path, profiles[18:20], journal=False)
    store = FileStore(tmp_path)
    ids += store.put_many(profiles[20:30])
    for profile in profiles[30:]:
        ids.append(store.put(profile))
    return tmp_path, ids, profiles


def assert_matches_scan(store) -> None:
    for command, tags, query in PROBES:
        found = store.find(command, tags, query)
        assert [p.to_dict() for p in found] == [
            p.to_dict() for p in ProfileStore.find(store, command, tags, query)
        ], (command, tags, query)
        assert [tuple(e) for e in store.entries(command, tags)] == [
            tuple(e) for e in ProfileStore.entries(store, command, tags)
        ]
        ids = store.find_ids(command, tags, query)
        assert ids == ProfileStore.find_ids(store, command, tags, query)
        assert [p.to_dict() for p in store.get_many(ids)] == [
            p.to_dict() for p in found
        ]
    assert store.count() == sum(1 for _ in store._iter_profiles())
    assert store.keys() == ProfileStore.keys(store)


class TestMixedRoot:
    def test_every_plane_matches_the_scan(self, mixed):
        root, ids, profiles = mixed
        for store in (FileStore(root), FileStore(root)):  # cold, then again warm
            assert_matches_scan(store)
            assert_matches_scan(store)
            assert store.count() == 40
            assert sorted(store.ids_for()) == sorted(ids)
            by_id = dict(zip(ids, profiles))
            for pid, got in zip(ids, store.get_many(ids)):
                assert got.to_dict() == by_id[pid].to_dict()

    def test_v1_ids_and_files_stay_as_they_were(self, mixed):
        root, ids, _profiles = mixed
        before = tree(root)
        store = FileStore(root)
        assert_matches_scan(store)
        store.put(random_profile(random.Random(1), 5000.0))
        assert_matches_scan(store)
        assert tree(root) == before  # nothing healed, compacted or appended
        assert all(pid.endswith(".json") and (root / pid).is_file() for pid in ids[:20])

    def test_delete_on_both_layouts(self, mixed):
        root, ids, _profiles = mixed
        store, rival = FileStore(root), FileStore(root)
        assert rival.count() == 40  # warm the rival's cache
        before = tree(root)
        rng = random.Random(37)
        victims = rng.sample(ids[:20], 6) + rng.sample(ids[20:], 6)
        for pid in victims:
            store.delete(pid)
            assert not (root / pid).exists()
        for handle in (store, rival, FileStore(root)):
            assert sorted(handle.ids_for()) == sorted(set(ids) - set(victims))
            assert_matches_scan(handle)
        with pytest.raises(StoreError):
            store.delete(victims[0])
        with pytest.raises(StoreError):
            rival.get_many([victims[0]])
        # A v1 delete is one unlink: journals keep their stale lines.
        after = tree(root)
        assert set(before) - set(after) == set(victims[:6])
        assert all(after[name] == before[name] for name in after)

    def test_corrupt_v1_payload_is_fatal(self, tmp_path):
        rng = random.Random(41)
        [with_sum] = write_v1(tmp_path, [random_profile(rng, 1.0)])
        [without] = write_v1(tmp_path, [random_profile(rng, 2.0)], sums=False)
        store = FileStore(tmp_path)
        assert store.count() == 2  # ``without`` adopts its digest here
        damage_record(tmp_path, with_sum, b'"created": 1.0', b'"created": 9.0')
        damage_record(tmp_path, without, b'"created": 2.0', b'"created": 9.0')
        for pid in (with_sum, without):
            with pytest.raises(CorruptArtifactError):
                store.get_many([pid])
        # A cold handle judges against the journal's sum where there is one.
        with pytest.raises(CorruptArtifactError):
            FileStore(tmp_path).entries()

    def test_garbage_v1_payload_raises_cleanly(self, tmp_path):
        [pid] = write_v1(tmp_path, [random_profile(random.Random(43), 1.0)], sums=False)
        (tmp_path / pid).write_text("[1, 2")
        with pytest.raises(StoreError):
            FileStore(tmp_path).count()
        (tmp_path / pid).write_text("[1, 2]")
        with pytest.raises(StoreError):
            FileStore(tmp_path).count()

    def test_stranger_files_in_the_root_are_not_groups(self, tmp_path):
        (tmp_path / "README").write_text("hello")
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "emptydir").mkdir()
        store = FileStore(tmp_path)
        pid = store.put(random_profile(random.Random(47), 1.0))
        assert FileStore(tmp_path).ids_for() == [pid]
        assert_matches_scan(FileStore(tmp_path))


class TestCampaignOnV1Ledger:
    SPEC = {
        "name": "v1-camp",
        "kind": "profile",
        "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
        "machines": ["thinkie", "comet"],
        "seeds": [0, 1],
        "repeats": 1,
        "config": {"sample_rate": 2.0},
    }

    def test_resume_executes_nothing_and_new_waves_land_as_segments(self, tmp_path):
        spec = CampaignSpec.from_dict(self.SPEC)
        reference = MemoryStore()
        assert run_campaign(spec, reference).complete
        write_v1(tmp_path, [profile for _pid, profile in reference._iter_profiles()])
        before = tree(tmp_path)
        assert len(before) == 2 * spec.n_cells  # a payload and a journal per cell

        store = FileStore(tmp_path)
        report = run_campaign(spec, store)
        assert report.executed == 0 and report.skipped == spec.n_cells
        assert report.complete
        assert ledger_digest(store, spec.name) == ledger_digest(reference, spec.name)
        assert segment_files(tmp_path) == [] and tree(tmp_path) == before

        wider = CampaignSpec.from_dict({**self.SPEC, "seeds": [0, 1, 2]})
        report = run_campaign(wider, FileStore(tmp_path))
        assert report.executed == wider.n_cells - spec.n_cells and report.complete
        assert len(segment_files(tmp_path)) >= 1
        assert tree(tmp_path) == before
        whole = MemoryStore()
        run_campaign(wider, whole)
        assert ledger_digest(FileStore(tmp_path), wider.name) == ledger_digest(
            whole, wider.name
        )
