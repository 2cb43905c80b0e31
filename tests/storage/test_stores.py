"""Profile store tests: memory, file, mongo; truncation; open_store."""

from __future__ import annotations

import pytest

from repro.core.errors import DocumentTooLargeError, ProfileNotFoundError, StoreError
from repro.core.samples import Profile, Sample
from repro.storage import FileStore, MemoryStore, MongoStore, open_store
from repro.storage.mongostore import MongoLite


def make_profile(command="app x", tags=("k=1",), n_samples=3, created=None):
    samples = [
        Sample(index=i, t=float(i), dt=1.0, values={"cpu.cycles_used": float(i)})
        for i in range(n_samples)
    ]
    kwargs = {} if created is None else {"created": created}
    return Profile(command=command, tags=tags, samples=samples, **kwargs)


@pytest.fixture(params=["memory", "file", "mongo"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    if request.param == "file":
        return FileStore(tmp_path / "profiles")
    return MongoStore()


class TestStoreContract:
    def test_put_and_get(self, store):
        profile = make_profile()
        store.put(profile)
        found = store.get("app x", ("k=1",))
        assert found.command == "app x"
        assert found.n_samples == 3
        assert found.totals() == profile.totals()

    def test_get_missing_raises(self, store):
        with pytest.raises(ProfileNotFoundError):
            store.get("nothing here")

    def test_find_by_command(self, store):
        store.put(make_profile(command="a"))
        store.put(make_profile(command="b"))
        assert len(store.find("a")) == 1
        assert len(store.find()) == 2

    def test_find_by_tag_subset(self, store):
        store.put(make_profile(tags=("k=1", "j=2")))
        assert len(store.find(tags=["k=1"])) == 1
        assert len(store.find(tags=["k=1", "j=2"])) == 1
        assert len(store.find(tags=["missing"])) == 0

    def test_find_with_query(self, store):
        store.put(make_profile(command="a"))
        found = store.find(query={"command": {"$regex": "^a"}})
        assert len(found) == 1

    def test_get_returns_most_recent(self, store):
        store.put(make_profile(n_samples=1, created=100.0))
        store.put(make_profile(n_samples=5, created=200.0))
        assert store.get("app x").n_samples == 5

    def test_count_and_keys(self, store):
        store.put(make_profile(command="a", tags=()))
        store.put(make_profile(command="a", tags=()))
        store.put(make_profile(command="b", tags=("t=1",)))
        assert store.count() == 3
        keys = store.keys()
        assert ("a", (), 2) in keys
        assert ("b", ("t=1",), 1) in keys


class TestMemoryStore:
    def test_delete(self):
        store = MemoryStore()
        pid = store.put(make_profile())
        store.delete(pid)
        assert store.count() == 0

    def test_clear(self):
        store = MemoryStore()
        store.put(make_profile())
        store.clear()
        assert store.count() == 0


class TestFileStore:
    def test_persists_across_instances(self, tmp_path):
        root = tmp_path / "p"
        FileStore(root).put(make_profile())
        assert FileStore(root).count() == 1

    def test_delete(self, tmp_path):
        store = FileStore(tmp_path / "p")
        pid = store.put(make_profile())
        store.delete(pid)
        assert store.count() == 0

    def test_delete_missing(self, tmp_path):
        store = FileStore(tmp_path / "p")
        with pytest.raises(StoreError):
            store.delete("nope.json")

    def test_one_segment_per_put(self, tmp_path):
        """Whatever the keys: a call is a file, never a directory."""
        root = tmp_path / "p"
        store = FileStore(root)
        store.put(make_profile(command="a"))
        store.put(make_profile(command="a"))
        store.put_many([make_profile(command="a"), make_profile(command="b")])
        assert len(list(root.iterdir())) == 3
        assert all(p.is_file() and p.suffix == ".seg" for p in root.iterdir())
        assert store.keys() == [("a", ("k=1",), 3), ("b", ("k=1",), 1)]

    def test_concurrent_writers_never_clobber(self, tmp_path):
        """Two stores (two processes' worth of sequence counters) writing
        the same key at the same creation timestamp keep both segments."""
        root = tmp_path / "p"
        first, second = FileStore(root), FileStore(root)
        profile = make_profile(created=1234.5)
        ids = {first.put(profile), second.put(profile), first.put(profile)}
        assert len(ids) == 3
        assert FileStore(root).count() == 3

    def test_put_many_round_trips(self, tmp_path):
        store = FileStore(tmp_path / "p")
        profiles = [
            make_profile(command="a", created=1.0),
            make_profile(command="b", created=2.0),
            make_profile(command="a", created=3.0),
        ]
        ids = store.put_many(profiles)
        assert len(ids) == len(set(ids)) == 3
        assert store.count() == 3
        assert len(store.find(command="a")) == 2

    def test_put_many_matches_put_ids(self, tmp_path):
        store = FileStore(tmp_path / "p")
        pid = store.put_many([make_profile()])[0]
        store.delete(pid)  # the returned id resolves like put()'s
        assert store.count() == 0

    def test_put_many_on_memory_store_default(self):
        store = MemoryStore()
        ids = store.put_many([make_profile(command="a"), make_profile(command="b")])
        assert len(ids) == 2
        assert store.count() == 2


class TestMongoStoreTruncation:
    def test_small_profiles_untouched(self):
        store = MongoStore()
        store.put(make_profile())
        assert not store.get("app x").truncated

    def test_oversized_profile_truncated(self):
        """The paper's §4.5 DB limitation: samples drop to fit 16 MB."""
        profile = make_profile(n_samples=200)
        per_sample = profile.document_size() // 200 + 1
        store = MongoStore(limit_bytes=per_sample * 100)
        store.put(profile)
        stored = store.get("app x")
        assert stored.truncated
        assert 0 < stored.n_samples < 200

    def test_truncation_keeps_prefix(self):
        profile = make_profile(n_samples=50)
        store = MongoStore(limit_bytes=profile.truncate(20).document_size() + 10)
        store.put(profile)
        stored = store.get("app x")
        values = [s.values["cpu.cycles_used"] for s in stored.samples]
        assert values == [float(i) for i in range(stored.n_samples)]

    def test_samples_dropped_reporting(self):
        profile = make_profile(n_samples=50)
        store = MongoStore(limit_bytes=profile.truncate(20).document_size())
        dropped = store.samples_dropped(profile)
        assert dropped >= 30
        assert store.samples_dropped(make_profile(n_samples=1)) == 0

    def test_strict_mode_raises(self):
        profile = make_profile(n_samples=100)
        store = MongoStore(limit_bytes=1000, strict=True)
        with pytest.raises(DocumentTooLargeError):
            store.put(profile)

    def test_metadata_too_large_raises(self):
        profile = make_profile(n_samples=1)
        store = MongoStore(limit_bytes=10)
        with pytest.raises(DocumentTooLargeError):
            store.put(profile)

    def test_delete(self):
        store = MongoStore()
        pid = store.put(make_profile())
        store.delete(pid)
        assert store.count() == 0

    def test_persistence_through_mongolite(self, tmp_path):
        db_path = tmp_path / "db.json"
        store = MongoStore(MongoLite(db_path))
        store.put(make_profile())
        reloaded = MongoStore(MongoLite(db_path))
        assert reloaded.count() == 1


class TestOpenStore:
    def test_memory(self):
        assert isinstance(open_store("memory://"), MemoryStore)

    def test_file(self, tmp_path):
        store = open_store(f"file://{tmp_path}/profiles")
        assert isinstance(store, FileStore)

    def test_mongo_in_memory(self):
        assert isinstance(open_store("mongo://"), MongoStore)

    def test_mongo_file(self, tmp_path):
        store = open_store(f"mongo://{tmp_path}/db.json")
        store.put(make_profile())
        assert open_store(f"mongo://{tmp_path}/db.json").count() == 1

    def test_unknown_scheme(self):
        with pytest.raises(StoreError):
            open_store("redis://x")

    def test_file_needs_path(self):
        with pytest.raises(StoreError):
            open_store("file://")


class TestFileStoreDurability:
    def test_fsync_mode_round_trips(self, tmp_path):
        store = FileStore(tmp_path / "durable", durability="fsync")
        pid = store.put(make_profile())
        [loaded] = store.get_many([pid])
        assert loaded.command == "app x"
        assert FileStore(tmp_path / "durable").count() == 1

    def test_fsync_mode_actually_syncs(self, tmp_path, monkeypatch):
        import os as _os

        synced = []
        real_fsync = _os.fsync
        monkeypatch.setattr(
            _os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        FileStore(tmp_path / "plain").put(make_profile())
        assert synced == []  # default mode: no fsync on the write path
        durable = FileStore(tmp_path / "durable", durability="fsync")
        durable.put(make_profile())
        assert len(synced) == 2  # the segment, then the root directory
        # ... per call, not per profile.
        durable.put_many([make_profile(command=f"c{i}") for i in range(8)])
        assert len(synced) == 4
        assert durable.count() == 9

    def test_unknown_durability_rejected(self, tmp_path):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError, match="durability"):
            FileStore(tmp_path, durability="paranoid")

    def test_open_store_parses_durability_query(self, tmp_path):
        from repro.core.errors import ConfigError

        store = open_store(f"file://{tmp_path}/durable?durability=fsync")
        assert isinstance(store, FileStore)
        assert store.durability == "fsync"
        with pytest.raises(ConfigError, match="durability"):
            open_store(f"file://{tmp_path}/d?durability=paranoid")

    def test_open_store_rejects_unknown_query(self, tmp_path):
        with pytest.raises(StoreError, match="unknown file:// store option"):
            open_store(f"file://{tmp_path}/d?cache=off")
