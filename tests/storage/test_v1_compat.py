"""v1 stores: refused by the live store, rewritten as segments by ``migrate``.

The old layout (a directory per ``(command, tags)`` group, a ``*.json``
file per profile, an ``index.jsonl`` journal) is written by hand —
:func:`tests.storage.conftest.write_v1`.  Until it is migrated, every
query on a root holding a v1 group raises a :class:`StoreError` naming
``repro migrate`` and touches nothing.  After it, the root holds only
segments, the profiles read back in the order they were listed in, and
every index- and payload-plane call agrees with the brute-force
``_iter_profiles`` scan.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import CorruptArtifactError, StoreError
from repro.runtime import CampaignSpec, ledger_digest, run_campaign
from repro.storage import FileStore
from repro.storage.base import MemoryStore, ProfileStore
from repro.storage.migrate import migrate
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


def assert_refused(root) -> None:
    store = FileStore(root)
    refusal = "repro --store file://.* migrate"
    for call in (store.entries, store.find, store.count):
        with pytest.raises(StoreError, match=refusal):
            call()
    with pytest.raises(StoreError, match=refusal):
        list(store._iter_profiles())


class TestMixedRoot:
    def test_every_plane_matches_the_scan(self, mixed):
        root, ids, profiles = mixed
        groups = len({pid.split("/")[0] for pid in ids[:20]})
        assert tuple(migrate(root)) == (0, groups, 20)
        assert tree(root) == {}
        for store in (FileStore(root), FileStore(root)):  # cold, then again warm
            assert_matches_scan(store)
            assert_matches_scan(store)
            assert store.count() == 40
            # Segment ids stay; v1 ids become ids of the groups' segments.
            migrated = set(store.ids_for()) - set(ids[20:])
            assert len(migrated) == 20 and all(".seg/" in pid for pid in migrated)
            assert [p.to_dict() for p in store.find()] == [
                p.to_dict() for p in sorted(profiles, key=lambda p: p.created)
            ]

    def test_v1_ids_and_files_stay_as_they_were(self, mixed):
        """Before ``migrate``, reads refuse the root and change nothing;
        a put still lands beside the groups as a segment."""
        root, ids, _profiles = mixed
        before = tree(root)
        assert_refused(root)
        FileStore(root).put(random_profile(random.Random(1), 5000.0))
        assert_refused(root)
        assert tree(root) == before  # nothing healed, compacted or appended
        assert all(pid.endswith(".json") and (root / pid).is_file() for pid in ids[:20])

    def test_delete_on_both_layouts(self, mixed):
        """Migrated and native records delete alike, seen by every handle."""
        root, ids, _profiles = mixed
        migrate(root)
        store, rival = FileStore(root), FileStore(root)
        assert rival.count() == 40  # warm the rival's cache
        ids = store.find_ids()
        rng = random.Random(37)
        victims = rng.sample(ids[:20], 6) + rng.sample(ids[20:], 6)
        for pid in victims:
            store.delete(pid)
        for handle in (store, rival, FileStore(root)):
            assert sorted(handle.ids_for()) == sorted(set(ids) - set(victims))
            assert_matches_scan(handle)
        with pytest.raises(StoreError):
            store.delete(victims[0])
        with pytest.raises(StoreError):
            rival.get_many([victims[0]])

    def test_corrupt_v1_payload_is_fatal(self, tmp_path):
        """A payload that no longer hashes to its journal's digest stops
        ``migrate``: it is not sealed under a fresh digest, and its group
        stays as it was (and refused)."""
        rng = random.Random(41)
        [pid] = write_v1(tmp_path, [random_profile(rng, 1.0)])
        damage_record(tmp_path, pid, b'"created": 1.0', b'"created": 9.0')
        before = tree(tmp_path)
        with pytest.raises(CorruptArtifactError, match="integrity check"):
            migrate(tmp_path)
        assert tree(tmp_path) == before and segment_files(tmp_path) == []
        assert_refused(tmp_path)

    def test_garbage_v1_payload_raises_cleanly(self, tmp_path):
        [pid] = write_v1(tmp_path, [random_profile(random.Random(43), 1.0)], sums=False)
        for garbage in ("[1, 2", "[1, 2]", '{"command": 7, "samples": [1]}'):
            (tmp_path / pid).write_text(garbage)
            with pytest.raises(CorruptArtifactError, match="not a readable record"):
                migrate(tmp_path)
            assert (tmp_path / pid).read_text() == garbage

    def test_stranger_files_in_the_root_are_not_groups(self, tmp_path):
        (tmp_path / "README").write_text("hello")
        (tmp_path / "notes.txt").write_text("hello")
        (tmp_path / "emptydir").mkdir()
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "notes.txt").write_text("hello")
        store = FileStore(tmp_path)
        pid = store.put(random_profile(random.Random(47), 1.0))
        assert FileStore(tmp_path).ids_for() == [pid]
        assert_matches_scan(FileStore(tmp_path))
        assert tuple(migrate(tmp_path)) == (0, 0, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["README", "notes.txt", "emptydir", "data", pid.split("/")[0]]
        )


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

        with pytest.raises(StoreError, match="migrate"):
            run_campaign(spec, FileStore(tmp_path))
        assert tree(tmp_path) == before
        assert migrate(tmp_path).profiles == spec.n_cells
        assert tree(tmp_path) == {}

        store = FileStore(tmp_path)
        report = run_campaign(spec, store)
        assert report.executed == 0 and report.skipped == spec.n_cells
        assert report.complete
        assert ledger_digest(store, spec.name) == ledger_digest(reference, spec.name)
        migrated = segment_files(tmp_path)

        wider = CampaignSpec.from_dict({**self.SPEC, "seeds": [0, 1, 2]})
        report = run_campaign(wider, FileStore(tmp_path))
        assert report.executed == wider.n_cells - spec.n_cells and report.complete
        assert len(segment_files(tmp_path)) > len(migrated)
        whole = MemoryStore()
        run_campaign(wider, whole)
        assert ledger_digest(FileStore(tmp_path), wider.name) == ledger_digest(
            whole, wider.name
        )
