"""Store index fast paths: equivalence pinning + sidecar index behaviour.

The indexed ``find``/``entries``/``get`` paths must be *bit-identical*
to the brute-force full scan they replace (``ProfileStore.find`` on the
base class, which loads and tests every profile).  These tests pin that
on randomized stores across all three backends, then exercise the
FileStore sidecar index's failure modes: concurrent writers, truncated
journal lines, deleted/missing index files, and the no-payload
guarantees of the index plane.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.errors import ProfileNotFoundError, StoreError
from repro.core.samples import Profile, Sample
from repro.storage import FileStore, MemoryStore, MongoStore
from repro.storage.base import ProfileStore, StoreEntry
from repro.storage.filestore import INDEX_NAME

COMMANDS = ("app alpha", "app beta", "gmx mdrun")
TAG_POOL = ("k=1", "j=2", "m=3", "campaign=camp", "cell=0123456789abcdef")

#: (command, tags, query) probes covering every filter plane: command
#: exact-match, tag subsets, misses, and compiled Mongo-style queries.
PROBES = [
    (None, None, None),
    ("app alpha", None, None),
    ("app beta", ["k=1"], None),
    (None, ["k=1", "j=2"], None),
    (None, ["campaign=camp"], None),
    (None, ["nope=0"], None),
    ("missing cmd", None, None),
    (None, None, {"command": {"$regex": "^app"}}),
    (None, None, {"statics.sys.cores": {"$gte": 4}}),
    (None, None, {"$or": [{"machine.name": "comet"}, {"tags": "m=3"}]}),
    ("gmx mdrun", ["j=2"], {"sample_rate": {"$exists": True}}),
    (None, None, {"tags": {"$in": ["k=1", "zzz"]}}),
]


def random_profile(rng: random.Random, created: float) -> Profile:
    tags = tuple(sorted(rng.sample(TAG_POOL, rng.randint(0, 3))))
    samples = [
        Sample(index=i, t=float(i), dt=1.0,
               values={"cpu.cycles_used": rng.uniform(0, 100)})
        for i in range(rng.randint(0, 4))
    ]
    return Profile(
        command=rng.choice(COMMANDS),
        tags=tags,
        machine={"name": rng.choice(["thinkie", "comet"])},
        samples=samples,
        statics={"sys.cores": rng.randint(1, 8)},
        created=created,
    )


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


def populate(store, rng: random.Random, n: int = 40) -> None:
    for i in range(n):
        store.put(random_profile(rng, created=1000.0 + i * rng.uniform(0.5, 2.0)))


class TestIndexedEquivalence:
    """Indexed results pinned bit-identical to the brute-force scan."""

    def test_find_matches_reference_scan(self, store):
        populate(store, random.Random(7))
        for command, tags, query in PROBES:
            indexed = store.find(command, tags, query)
            reference = ProfileStore.find(store, command, tags, query)
            assert [p.to_dict() for p in indexed] == [
                p.to_dict() for p in reference
            ], (command, tags, query)

    def test_entries_match_reference_scan(self, store):
        populate(store, random.Random(11))
        for command, tags, _query in PROBES:
            indexed = store.entries(command, tags)
            reference = ProfileStore.entries(store, command, tags)
            assert [tuple(e) for e in indexed] == [tuple(e) for e in reference]
            assert all(isinstance(e, StoreEntry) for e in indexed)

    def test_find_ids_resolve_through_get_many(self, store):
        populate(store, random.Random(13))
        for command, tags, query in PROBES:
            ids = store.find_ids(command, tags, query)
            assert [p.to_dict() for p in store.get_many(ids)] == [
                p.to_dict() for p in store.find(command, tags, query)
            ]

    def test_get_matches_reference_latest(self, store):
        populate(store, random.Random(17))
        for command in COMMANDS:
            reference = ProfileStore.find(store, command)
            if not reference:
                continue
            assert store.get(command).to_dict() == reference[-1].to_dict()

    def test_equivalence_survives_deletes(self, store):
        rng = random.Random(19)
        populate(store, rng)
        victims = rng.sample(store.ids_for(), 10)
        for pid in victims:
            store.delete(pid)
        for command, tags, query in PROBES:
            assert [p.to_dict() for p in store.find(command, tags, query)] == [
                p.to_dict() for p in ProfileStore.find(store, command, tags, query)
            ]
        assert store.count() == 30

    def test_get_many_unknown_id_raises(self, store):
        store.put(make_profile())
        with pytest.raises(StoreError):
            store.get_many(["no-such-id"])

    def test_get_missing_still_raises(self, store):
        with pytest.raises(ProfileNotFoundError):
            store.get("nothing here")

    def test_ids_for_orders_like_find(self, store):
        populate(store, random.Random(23))
        assert store.ids_for() == store.find_ids()
        for command, tags, _query in PROBES:
            ids = store.ids_for(command, tags)
            assert [p.to_dict() for p in store.get_many(ids)] == [
                p.to_dict() for p in store.find(command, tags)
            ]


class TestFileStoreSidecarIndex:
    """`index.jsonl` journal: layout, healing, cross-process visibility."""

    def test_sidecar_journal_layout(self, tmp_path):
        store = FileStore(tmp_path / "p")
        pid = store.put(make_profile(created=5.0))
        group = (tmp_path / "p" / pid).parent
        lines = [json.loads(line) for line in
                 (group / INDEX_NAME).read_text().splitlines()]
        [line] = lines
        digest = line.pop("sum")
        assert line == {
            "id": pid, "command": "app x", "tags": ["k=1"], "created": 5.0,
        }
        # The recorded digest is the blake2b-128 of the payload bytes.
        import hashlib

        data = (tmp_path / "p" / pid).read_bytes()
        assert digest == hashlib.blake2b(data, digest_size=16).hexdigest()

    def test_second_writer_invalidates_cached_index(self, tmp_path):
        """Writer B appends to a group after writer A cached its index;
        A's next ``find``/``get`` must see B's profiles."""
        root = tmp_path / "p"
        writer_a, writer_b = FileStore(root), FileStore(root)
        writer_a.put(make_profile(created=1.0))
        assert len(writer_a.find("app x")) == 1  # warm A's index cache
        writer_b.put(make_profile(n_samples=7, created=2.0))
        assert len(writer_a.find("app x")) == 2
        assert writer_a.get("app x").n_samples == 7
        assert writer_a.count() == 2

    def test_second_writer_new_group_is_visible(self, tmp_path):
        root = tmp_path / "p"
        writer_a, writer_b = FileStore(root), FileStore(root)
        writer_a.put(make_profile(command="a"))
        assert writer_a.find("b") == []  # warm the (empty) lookup
        writer_b.put(make_profile(command="b"))
        assert len(writer_a.find("b")) == 1

    def test_second_writer_delete_is_visible(self, tmp_path):
        root = tmp_path / "p"
        writer_a, writer_b = FileStore(root), FileStore(root)
        pid = writer_a.put(make_profile(created=1.0))
        writer_a.put(make_profile(created=2.0))
        assert writer_b.count() == 2  # warm B's cache
        writer_a.delete(pid)
        assert writer_b.count() == 1
        assert len(writer_b.find("app x")) == 1

    def test_truncated_journal_line_replays(self, tmp_path):
        """A torn concurrent append (truncated trailing line) is healed
        from the profile files and the journal compacts back."""
        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(3)])
        index_path = (tmp_path / "p" / ids[0]).parent / INDEX_NAME
        text = index_path.read_text(encoding="utf-8")
        index_path.write_text(text[: text.rfind('"created"')], encoding="utf-8")
        fresh = FileStore(tmp_path / "p")
        assert fresh.count() == 3
        assert [p.created for p in fresh.find("app x")] == [0.0, 1.0, 2.0]
        healed = [json.loads(line) for line in
                  index_path.read_text().splitlines()]
        assert sorted(row["id"] for row in healed) == sorted(ids)

    def test_missing_journal_rebuilds_from_files(self, tmp_path):
        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(3)])
        index_path = (tmp_path / "p" / ids[0]).parent / INDEX_NAME
        index_path.unlink()
        fresh = FileStore(tmp_path / "p")
        assert fresh.count() == 3
        assert index_path.exists()  # journal regrown for the next reader

    def test_garbage_journal_rebuilds(self, tmp_path):
        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(2)])
        index_path = (tmp_path / "p" / ids[0]).parent / INDEX_NAME
        index_path.write_text("not json at all\n{\n", encoding="utf-8")
        fresh = FileStore(tmp_path / "p")
        assert fresh.count() == 2
        assert len(fresh.find("app x")) == 2

    def test_stale_journal_lines_after_delete_compact(self, tmp_path):
        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(3)])
        store.delete(ids[1])
        fresh = FileStore(tmp_path / "p")
        assert fresh.count() == 2
        index_path = (tmp_path / "p" / ids[0]).parent / INDEX_NAME
        rows = [json.loads(line) for line in index_path.read_text().splitlines()]
        assert sorted(row["id"] for row in rows) == sorted([ids[0], ids[2]])

    def test_delete_edits_the_cached_index_in_place(self, tmp_path):
        """Deleting one profile of a live group must not throw the
        group's cached index away: the next query is a cache hit that
        neither re-reads nor rewrites the journal — the stale line waits
        for the next cold load (the test above)."""
        from repro.telemetry.metrics import get_registry

        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(3)])
        assert store.count() == 3  # index warm
        index_path = (tmp_path / "p" / ids[0]).parent / INDEX_NAME
        journal = index_path.read_bytes()
        misses = get_registry().counter("store.index.miss")
        store.delete(ids[1])
        assert [entry.id for entry in store.entries()] == [ids[0], ids[2]]
        assert get_registry().counter("store.index.miss") == misses
        assert index_path.read_bytes() == journal
        # The in-place edit keeps later writes and deletes consistent.
        new = store.put(make_profile(created=9.0))
        store.delete(ids[0])
        assert [entry.id for entry in store.entries()] == [ids[2], new]
        assert [entry.id for entry in FileStore(tmp_path / "p").entries()] == [
            ids[2], new,
        ]

    def test_index_plane_never_opens_payloads(self, tmp_path, monkeypatch):
        """``count``/``keys``/``entries``/``ids_for`` answer from
        filenames and the sidecar index alone."""
        store = FileStore(tmp_path / "p")
        store.put_many([make_profile(command=c, created=float(i))
                        for i, c in enumerate(["a", "a", "b"])])
        fresh = FileStore(tmp_path / "p")

        def explode(self, path):
            raise AssertionError(f"payload opened: {path}")

        monkeypatch.setattr(FileStore, "_read_doc", explode)
        assert fresh.count() == 3
        assert fresh.keys() == [("a", ("k=1",), 2), ("b", ("k=1",), 1)]
        assert len(fresh.entries(tags=["k=1"])) == 3
        assert len(fresh.ids_for("a")) == 2

    def test_get_loads_exactly_one_payload(self, tmp_path, monkeypatch):
        store = FileStore(tmp_path / "p")
        store.put_many([make_profile(created=float(i)) for i in range(5)])
        fresh = FileStore(tmp_path / "p")
        opened = []
        original = FileStore._read_doc

        def counting(self, pid, path):
            opened.append(path)
            return original(self, pid, path)

        monkeypatch.setattr(FileStore, "_read_doc", counting)
        assert fresh.get("app x").created == 4.0
        assert len(opened) == 1

    def test_dead_groups_are_garbage_collected(self, tmp_path):
        """A group whose every profile was deleted (a cleaned-up
        campaign claim) disappears entirely instead of being re-scanned
        by every later query."""
        root = tmp_path / "p"
        store = FileStore(root)
        keep = store.put(make_profile(command="keep"))
        doomed = store.put(make_profile(command="claim marker"))
        store.delete(doomed)
        assert store.find("claim marker") == []  # triggers the lazy GC
        assert [d.name for d in root.iterdir()] == [keep.split("/")[0]]
        # The group revives cleanly if the key is ever written again.
        store.put(make_profile(command="claim marker"))
        assert len(store.find("claim marker")) == 1

    def test_write_survives_concurrent_group_gc(self, tmp_path):
        """A reader's empty-group GC can rmdir the directory between a
        writer's mkdir and its first file write; the write must recover
        by re-creating the group, not fail the put."""
        store = FileStore(tmp_path / "p")
        group = tmp_path / "p" / "deadbeefdeadbeef"  # GC'd: does not exist
        pid = store._write(group, make_profile())
        assert (tmp_path / "p" / pid).is_file()

    def test_tmp_debris_is_ignored_by_the_index(self, tmp_path):
        store = FileStore(tmp_path / "p")
        pid = store.put(make_profile())
        group = (tmp_path / "p" / pid).parent
        (group / "00000000-dead-000000.tmp").write_text("{trunca", encoding="utf-8")
        fresh = FileStore(tmp_path / "p")
        assert fresh.count() == 1
        assert len(fresh.find("app x")) == 1


class TestMongoCollectionIndexes:
    def test_ids_with_tracks_writes_and_deletes(self):
        store = MongoStore()
        pid_a = store.put(make_profile(command="a", tags=("t=1",)))
        store.put(make_profile(command="a", tags=("t=2",)))
        assert store.collection.ids_with("command", "a") == [0, 1]
        assert store.collection.ids_with("tags", "t=1") == [0]
        store.delete(pid_a)
        assert store.collection.ids_with("command", "a") == [1]
        assert store.collection.ids_with("tags", "t=1") == []

    def test_unindexed_field_returns_none(self):
        store = MongoStore()
        store.put(make_profile())
        assert store.collection.ids_with("machine", {}) is None

    def test_index_values_prefix_lookup(self):
        """The tag-prefix lookup behind claim=/cell= ledger scans."""
        store = MongoStore()
        store.put(make_profile(tags=("campaign=c", "cell=abc")))
        store.put(make_profile(tags=("campaign=c", "cell=def")))
        store.put(make_profile(tags=("campaign=c", "claim=abc")))
        assert sorted(store.collection.index_values("tags", "cell=")) == [
            "cell=abc", "cell=def",
        ]
        assert store.collection.index_values("tags", "claim=") == ["claim=abc"]
        with pytest.raises(StoreError):
            store.collection.index_values("nope", "x")

    def test_index_survives_persistence_roundtrip(self, tmp_path):
        from repro.storage.mongostore import MongoLite

        path = tmp_path / "db.json"
        MongoStore(MongoLite(path)).put(make_profile(command="a"))
        reloaded = MongoStore(MongoLite(path))
        assert reloaded.collection.ids_with("command", "a") == [0]
        assert len(reloaded.find("a")) == 1


class TestMemoryStoreIndex:
    def test_delete_keeps_index_consistent(self):
        store = MemoryStore()
        pid = store.put(make_profile(command="a"))
        store.put(make_profile(command="a"))
        store.delete(pid)
        assert len(store.find("a")) == 1
        assert store.ids_for("a") == ["mem-1"]

    def test_clear_resets_index(self):
        store = MemoryStore()
        store.put(make_profile())
        store.clear()
        assert store.find() == []
        assert store.entries() == []
