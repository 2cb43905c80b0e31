"""FileStore payload integrity: recorded checksums + CorruptArtifactError.

Every ``put`` records a blake2b digest of each record's exact bytes in
its segment's index line (v1 groups kept theirs in an ``index.jsonl``
journal, which ``migrate`` checks); payload reads (cache misses) re-hash
the bytes and raise a **fatal**
:class:`CorruptArtifactError` on mismatch.  These tests flip bits on
disk the way bit rot / torn overwrites would and assert the damage is
surfaced, typed, non-retryable, and observable.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.errors import CorruptArtifactError, StoreError, is_retryable
from repro.core.samples import Profile, Sample
from repro.storage import FileStore
from repro.storage.migrate import migrate
from repro.telemetry import MemorySink, get_bus
from repro.telemetry.metrics import get_registry
from tests.storage.conftest import (
    damage_record,
    read_segment,
    segment_files,
    write_v1,
)


def make_profile(command="app x", tags=("k=1",), created=1.0):
    samples = [
        Sample(index=i, t=float(i), dt=1.0, values={"cpu.cycles_used": float(i)})
        for i in range(3)
    ]
    return Profile(command=command, tags=tags, samples=samples, created=created)


def corrupt_file(store, pid):
    """Flip one payload byte in place, keeping the document valid JSON."""
    damage_record(store.root, pid, b'"command": "app x"', b'"command": "app y"')


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path / "p")


def counter(name: str) -> float:
    return get_registry().snapshot().get("counters", {}).get(name, 0.0)


class TestChecksumRecording:
    def test_put_records_sum_in_journal(self, store):
        """The journal of a put is its segment's index line."""
        pid = store.put(make_profile())
        [segment] = segment_files(store.root)
        [row], [data] = read_segment(segment)
        assert pid == f"{segment.name}/000000"
        assert row["sum"] == hashlib.blake2b(data, digest_size=16).hexdigest()

    def test_put_many_records_sums(self, store):
        ids = store.put_many([make_profile(created=float(i)) for i in range(4)])
        [segment] = segment_files(store.root)
        rows, records = read_segment(segment)
        assert ids == [f"{segment.name}/{n:06d}" for n in range(4)]
        assert [row["sum"] for row in rows] == [
            hashlib.blake2b(data, digest_size=16).hexdigest() for data in records
        ]


class TestCorruptionDetection:
    def test_same_store_detects_corruption(self, store):
        pid = store.put(make_profile())
        corrupt_file(store, pid)
        with pytest.raises(CorruptArtifactError):
            store.get_many([pid])

    def test_fresh_store_detects_corruption_via_journal(self, store):
        """``migrate`` judges a v1 payload against the digest its
        group's journal recorded instead of sealing damaged bytes under
        a fresh one, and leaves the group as it was."""
        [pid] = write_v1(store.root, [make_profile()])
        corrupt_file(store, pid)
        with pytest.raises(CorruptArtifactError):
            migrate(store.root)
        assert (store.root / pid).is_file() and segment_files(store.root) == []

    def test_direct_get_without_prior_index_load_detects(self, store):
        """``get_many`` by raw id on a cold store loads the segment's
        index line before reading the payload, so corruption is still
        caught."""
        pid = store.put(make_profile())
        corrupt_file(store, pid)
        fresh = FileStore(store.root)
        with pytest.raises(CorruptArtifactError):
            fresh.get_many([pid])  # no find()/entries() beforehand

    def test_corruption_is_fatal_not_retryable(self, store):
        pid = store.put(make_profile())
        corrupt_file(store, pid)
        with pytest.raises(CorruptArtifactError) as err:
            store.get_many([pid])
        assert not is_retryable(err.value)
        assert isinstance(err.value, StoreError)

    def test_corruption_emits_event_and_metric(self, store):
        pid = store.put(make_profile())
        corrupt_file(store, pid)
        sink = get_bus().add_sink(MemorySink())
        before = counter("store.corrupt")
        try:
            with pytest.raises(CorruptArtifactError):
                store.get_many([pid])
        finally:
            get_bus().remove_sink(sink)
        assert counter("store.corrupt") == before + 1
        [event] = sink.named("store.corrupt")
        assert event.attrs["id"] == pid
        assert event.level == "error"
        assert event.attrs["expected"] != event.attrs["actual"]

    def test_find_detects_corruption(self, store):
        pid = store.put(make_profile())
        corrupt_file(store, pid)
        fresh = FileStore(store.root)
        with pytest.raises(CorruptArtifactError):
            fresh.find("app x")


class TestCompatibilityAndCaching:
    def test_legacy_journal_without_sums_still_reads(self, store):
        """A v1 journal written before the ``sum`` field has nothing to
        check: ``migrate`` rewrites the profile under a fresh digest,
        which then pins every read."""
        write_v1(store.root, [make_profile()], sums=False)
        migrate(store.root)
        fresh = FileStore(store.root)
        [pid] = fresh.find_ids()
        assert fresh.get_many([pid])[0].command == "app x"
        # ... and the sealed digest now guards against later damage.
        fresh._payloads.clear()
        corrupt_file(store, pid)
        with pytest.raises(CorruptArtifactError):
            fresh.get_many([pid])

    def test_cached_payloads_are_not_reverified(self, store):
        """Verification runs on cache misses only — same-size damage
        under an unchanged ``(mtime_ns, size)`` signature rides the LRU
        hit path unseen, and is caught the moment the entry drops."""
        import os

        pid = store.put(make_profile())
        assert store.get_many([pid])[0].command == "app x"
        [path] = segment_files(store.root)
        st = os.stat(path)
        damage_record(store.root, pid, b"app x", b"zpp x")  # one byte, same size
        os.utime(path, ns=(st.st_mtime_ns, st.st_mtime_ns))
        assert store.get_many([pid])[0].command == "app x"  # stale hit
        store._payloads.clear()  # the entry drops (LRU eviction)
        with pytest.raises(CorruptArtifactError):
            store.get_many([pid])

    def test_roundtrip_is_unchanged_for_good_data(self, store):
        profiles = [make_profile(created=float(i)) for i in range(5)]
        ids = store.put_many(profiles)
        fresh = FileStore(store.root)
        for profile, got in zip(profiles, fresh.get_many(ids)):
            assert got.to_dict() == profile.to_dict()
