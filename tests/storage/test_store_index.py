"""The one search index: equivalence pinning + segment index behaviour.

The indexed ``find``/``entries``/``get`` paths must be *bit-identical*
to the brute-force :class:`~repro.storage.base.ReferenceScan`, which
loads and tests every profile.  These tests pin that on randomized
stores across all three backends, check that the index plane loads no
payload and that a second handle sees the first's changes on every
backend, then exercise the FileStore segment index: its layout, rival
writers and deleters, and the no-payload guarantees of the index plane.
"""

from __future__ import annotations

import random

import pytest

from repro.core.errors import ProfileNotFoundError, StoreError
from repro.core.samples import Profile, Sample
from repro.storage import FileStore, MemoryStore, MongoStore, filestore
from repro.storage.base import ReferenceScan, StoreEntry
from tests.storage.conftest import (
    decode_record,
    encode_record,
    make_profile,
    read_segment,
    segment_files,
)

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


@pytest.fixture(params=["memory", "file", "mongo"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    if request.param == "file":
        return FileStore(tmp_path / "profiles")
    return MongoStore()


def second_handle(store):
    """Another handle on the same backing medium (a memory store has
    only the one)."""
    if isinstance(store, FileStore):
        return FileStore(store.root)
    if isinstance(store, MongoStore):
        return MongoStore(store.db)
    return store


def populate(store, rng: random.Random, n: int = 40) -> None:
    for i in range(n):
        store.put(random_profile(rng, created=1000.0 + i * rng.uniform(0.5, 2.0)))


class TestIndexedEquivalence:
    """Indexed results pinned bit-identical to the brute-force scan."""

    def test_find_matches_reference_scan(self, store):
        populate(store, random.Random(7))
        for command, tags, query in PROBES:
            indexed = store.find(command, tags, query)
            reference = ReferenceScan(store).find(command, tags, query)
            assert [p.to_dict() for p in indexed] == [
                p.to_dict() for p in reference
            ], (command, tags, query)

    def test_entries_match_reference_scan(self, store):
        populate(store, random.Random(11))
        for command, tags, _query in PROBES:
            indexed = store.entries(command, tags)
            reference = ReferenceScan(store).entries(command, tags)
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
            reference = ReferenceScan(store).find(command)
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
                p.to_dict() for p in ReferenceScan(store).find(command, tags, query)
            ]
        assert store.count() == 30

    def test_equivalence_survives_two_interleaved_handles(self, store):
        """``put``/``put_many``/``delete`` interleaved from two handles
        on one root: after every step both agree with the full scan."""
        rng = random.Random(29)
        other = FileStore(store.root) if isinstance(store, FileStore) else store
        handles = (store, other)
        live: list[str] = []
        for step in range(60):
            actor, observer = rng.sample(handles, 2) if other is not store \
                else (store, store)
            roll = rng.random()
            if roll < 0.3:
                live.append(actor.put(random_profile(rng, 1000.0 + step)))
            elif roll < 0.6 or not live:
                live.extend(actor.put_many(
                    [random_profile(rng, 1000.0 + step + rng.random())
                     for _ in range(rng.randint(0, 4))]
                ))
            else:
                actor.delete(live.pop(rng.randrange(len(live))))
            assert sorted(observer.ids_for()) == sorted(live)
        for handle in handles:
            for command, tags, query in PROBES:
                assert [p.to_dict() for p in handle.find(command, tags, query)] == [
                    p.to_dict()
                    for p in ReferenceScan(handle).find(command, tags, query)
                ]
                assert [tuple(e) for e in handle.entries(command, tags)] == [
                    tuple(e) for e in ReferenceScan(handle).entries(command, tags)
                ]

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
    """The segment index: layout, cross-process visibility and debris."""

    def test_sidecar_journal_layout(self, tmp_path):
        """One put is one segment: the document, then the index line
        that journals it, then the footer pointing at that line."""
        import hashlib

        store = FileStore(tmp_path / "p")
        pid = store.put(make_profile(created=5.0))
        [segment] = (tmp_path / "p").iterdir()
        assert pid == f"{segment.name}/000000"
        assert segment.name.startswith("00000000005000000000-")
        assert segment.name.endswith("-000001.seg")
        [row], [data] = read_segment(segment)
        # A v3 record: the ``to_dict`` document, samples as binary columns.
        assert data == encode_record(make_profile(created=5.0))
        assert decode_record(data) == make_profile(created=5.0).to_dict()
        # The recorded digest is the blake2b-128 of the record's bytes.
        assert row == {
            "command": "app x", "tags": ["k=1"], "created": 5.0,
            "sum": hashlib.blake2b(data, digest_size=16).hexdigest(),
            "offset": 0, "length": len(data),
        }

    def test_put_many_is_one_segment(self, tmp_path):
        store = FileStore(tmp_path / "p")
        profiles = [make_profile(command=f"c{i}", created=float(i)) for i in range(8)]
        ids = store.put_many(profiles)
        [segment] = (tmp_path / "p").iterdir()
        assert ids == [f"{segment.name}/{n:06d}" for n in range(8)]
        rows, records = read_segment(segment)
        assert [row["command"] for row in rows] == [f"c{i}" for i in range(8)]
        assert [decode_record(data) for data in records] == [
            profile.to_dict() for profile in profiles
        ]

    def test_put_many_of_nothing_writes_nothing(self, tmp_path):
        store = FileStore(tmp_path / "p")
        assert store.put_many([]) == []
        assert store.put_many(iter(())) == []
        assert list((tmp_path / "p").iterdir()) == []

    def test_second_writer_invalidates_cached_index(self, tmp_path):
        """Writer B adds a segment after writer A cached its index;
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
        """Both kinds of delete reach a rival's warm cache: a tombstone
        beside a segment that lives on, and a segment unlinked whole."""
        root = tmp_path / "p"
        writer_a, writer_b = FileStore(root), FileStore(root)
        pid = writer_a.put(make_profile(created=1.0))
        pair = writer_a.put_many([make_profile(created=2.0), make_profile(created=3.0)])
        assert writer_b.count() == 3  # warm B's cache
        writer_a.delete(pid)
        writer_a.delete(pair[0])
        assert writer_b.count() == 1
        assert [p.created for p in writer_b.find("app x")] == [3.0]
        with pytest.raises(StoreError):
            writer_b.get_many([pair[0]])
        with pytest.raises(StoreError):
            writer_b.delete(pair[0])  # already deleted: the tombstone is there

    def test_delete_edits_the_cached_index_in_place(self, tmp_path):
        """Deleting one record of a live segment must not throw the
        cached index away: the next query loads nothing, and the segment
        file itself is never rewritten — a tombstone stands beside it."""
        from repro.telemetry.metrics import get_registry

        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(3)])
        assert store.count() == 3  # index warm
        [segment] = segment_files(tmp_path / "p")
        stored = segment.read_bytes()
        misses = get_registry().counter("store.index.miss")
        loaded = get_registry().counter("store.segments.loaded")
        store.delete(ids[1])
        assert [entry.id for entry in store.entries()] == [ids[0], ids[2]]
        assert get_registry().counter("store.index.miss") == misses
        assert get_registry().counter("store.segments.loaded") == loaded
        assert segment.read_bytes() == stored
        assert sorted(p.name for p in (tmp_path / "p").iterdir()) == [
            segment.name, f"{segment.name}.000001.del",
        ]
        # The in-place edit keeps later writes and deletes consistent.
        new = store.put(make_profile(created=9.0))
        store.delete(ids[0])
        assert [entry.id for entry in store.entries()] == [ids[2], new]
        assert [entry.id for entry in FileStore(tmp_path / "p").entries()] == [
            ids[2], new,
        ]

    def test_index_plane_never_opens_payloads(self, tmp_path, monkeypatch):
        """``count``/``keys``/``entries``/``ids_for`` answer from
        the segments' index lines alone."""
        store = FileStore(tmp_path / "p")
        store.put_many([make_profile(command=c, created=float(i))
                        for i, c in enumerate(["a", "a", "b"])])
        fresh = FileStore(tmp_path / "p")

        def explode(pid, data, expected):
            raise AssertionError(f"payload opened: {pid}")

        monkeypatch.setattr(filestore, "_decode", explode)
        assert fresh.count() == 3
        assert fresh.keys() == [("a", ("k=1",), 2), ("b", ("k=1",), 1)]
        assert len(fresh.entries(tags=["k=1"])) == 3
        assert len(fresh.ids_for("a")) == 2

    def test_get_loads_exactly_one_payload(self, tmp_path, monkeypatch):
        store = FileStore(tmp_path / "p")
        store.put_many([make_profile(created=float(i)) for i in range(5)])
        fresh = FileStore(tmp_path / "p")
        opened = []
        original = filestore._decode

        def counting(pid, data, expected):
            opened.append(pid)
            return original(pid, data, expected)

        monkeypatch.setattr(filestore, "_decode", counting)
        assert fresh.get("app x").created == 4.0
        assert len(opened) == 1

    def test_get_many_opens_each_segment_once(self, tmp_path, monkeypatch):
        import builtins

        store = FileStore(tmp_path / "p")
        ids = store.put_many([make_profile(created=float(i)) for i in range(6)])
        ids += store.put_many([make_profile(created=float(i)) for i in range(6, 9)])
        fresh = FileStore(tmp_path / "p")
        fresh.count()  # index lines loaded; payloads are not
        opened = []
        real_open = builtins.open

        def counting(path, *args, **kwargs):
            opened.append(str(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting)
        profiles = fresh.get_many(ids[::-1])
        monkeypatch.undo()
        assert [p.created for p in profiles] == [float(i) for i in range(8, -1, -1)]
        assert sorted(opened) == [str(p) for p in segment_files(tmp_path / "p")]

    def test_dead_groups_are_garbage_collected(self, tmp_path):
        """A batch whose every profile was deleted (a cleaned-up wave of
        campaign claims) disappears entirely — segment and tombstones —
        instead of being listed by every later query."""
        root = tmp_path / "p"
        store = FileStore(root)
        keep = store.put(make_profile(command="keep"))
        doomed = store.put_many(
            [make_profile(command="claim marker", created=float(i)) for i in range(3)]
        )
        for pid in doomed[:2]:
            store.delete(pid)
        assert len(list(root.iterdir())) == 4  # two segments, two tombstones
        store.delete(doomed[2])
        assert [p.name for p in root.iterdir()] == [keep.split("/")[0]]
        assert store.find("claim marker") == []
        assert FileStore(root).count() == 1
        # The key comes back cleanly if it is ever written again.
        store.put(make_profile(command="claim marker"))
        assert len(store.find("claim marker")) == 1

    def test_tmp_debris_is_ignored_by_the_index(self, tmp_path):
        store = FileStore(tmp_path / "p")
        store.put(make_profile())
        debris = tmp_path / "p" / "00000000000000000000-dead-000001.seg.tmp"
        debris.write_text("{trunca", encoding="utf-8")
        fresh = FileStore(tmp_path / "p")
        assert fresh.count() == 1
        assert len(fresh.find("app x")) == 1
        assert len(ReferenceScan(fresh).find("app x")) == 1


class TestEveryBackend:
    """One index over three kinds of storage: what it loads, and what a
    second handle on the same medium sees."""

    def test_index_plane_is_payload_free(self, store, monkeypatch):
        """``count``/``keys``/``entries``/``ids_for`` build no profile,
        ``get`` builds exactly one, and neither ``find(query=...)`` nor
        ``find_ids(query=...)`` builds a profile it rejects (a memory
        store hands out the profiles it holds and builds none).  The
        FileStore tests below also check that no payload bytes are read."""
        store.put_many([make_profile(command=c, created=float(i))
                        for i, c in enumerate(["a", "a", "b"])])
        handle = second_handle(store)  # cold, where the medium allows
        built = []
        from_dict = Profile.from_dict.__func__

        def counting_from_dict(cls, data):
            built.append(data["created"])
            return from_dict(cls, data)

        monkeypatch.setattr(Profile, "from_dict", classmethod(counting_from_dict))
        assert handle.count() == 3
        assert handle.keys() == [("a", ("k=1",), 2), ("b", ("k=1",), 1)]
        assert len(handle.entries(tags=["k=1"])) == 3
        assert len(handle.ids_for("a")) == 2
        assert built == []

        payloads = 0 if isinstance(handle, MemoryStore) else 1
        assert handle.get("a").created == 1.0
        assert built == [1.0] * payloads
        built.clear()
        query = {"created": {"$gte": 2.0}}
        assert [p.created for p in handle.find(query=query)] == [2.0]
        assert built == [2.0] * payloads
        built.clear()
        assert len(handle.find_ids(query=query)) == 1
        assert built == []

    def test_second_handle_sees_writes_and_deletes(self, store):
        other = second_handle(store)
        assert other.ids_for() == []  # a warm, empty view first
        first = store.put(make_profile(command="a", created=1.0))
        pair = store.put_many([
            make_profile(command="b", created=2.0),
            make_profile(command="a", created=3.0),
        ])
        assert other.ids_for() == [first, *pair]
        assert other.get("a").created == 3.0
        store.delete(pair[1])
        assert other.ids_for("a") == [first]
        assert other.get("a").created == 1.0
        other.delete(first)
        assert store.ids_for() == [pair[0]]
        assert [p.command for p in store.find()] == ["b"]
        with pytest.raises(StoreError):
            store.delete(first)


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
