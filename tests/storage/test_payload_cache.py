"""FileStore decoded-payload cache: hits, invalidation, LRU bound."""

from __future__ import annotations

import os

import pytest

from repro.core.errors import StoreError
from repro.storage import FileStore
from repro.storage.filestore import PAYLOAD_CACHE_SIZE
from repro.telemetry.metrics import get_registry
from tests.storage.conftest import damage_record, make_profile


def counter(name: str) -> float:
    return get_registry().snapshot().get("counters", {}).get(name, 0.0)


@pytest.fixture
def store(tmp_path):
    return FileStore(tmp_path / "profiles")


def test_get_many_hits_cache_on_repeat(store):
    ids = store.put_many([make_profile(command=f"cmd {i}") for i in range(5)])
    first = store.get_many(ids)
    misses = counter("store.payload.miss")
    hits0 = counter("store.payload.hit")
    second = store.get_many(ids)
    assert counter("store.payload.miss") == misses  # no re-parse
    assert counter("store.payload.hit") == hits0 + len(ids)
    for a, b in zip(first, second):
        assert a.command == b.command
        assert a.totals() == b.totals()


def test_cache_serves_find_and_find_ids(store):
    store.put(make_profile(command="q", tags=("k=1",)))
    store.find(query={"command": "q"})
    misses = counter("store.payload.miss")
    store.find(query={"command": "q"})
    store.find_ids(query={"command": "q"})
    assert counter("store.payload.miss") == misses


def test_cache_invalidated_on_file_replacement(store):
    [pid] = store.put_many([make_profile(command="mut")])
    assert store.get_many([pid])[0].n_samples == 3
    # Replace the segment on disk behind the store's back with a
    # different mtime — the stat signature mismatch must force a
    # re-read, which now trips the integrity check (the replaced bytes
    # no longer hash to the digest recorded at put time).
    from repro.core.errors import CorruptArtifactError

    path = damage_record(store.root, pid, b'"mut"', b'"MUT"')
    os.utime(path, ns=(1, 1))
    with pytest.raises(CorruptArtifactError):
        store.get_many([pid])


def test_delete_evicts_cached_payload(store):
    pid = store.put(make_profile(command="gone"))
    store.get_many([pid])
    store.delete(pid)
    with pytest.raises(StoreError):
        store.get_many([pid])


def test_cache_is_bounded():
    # Use a fresh store and more entries than the cap allows.
    import tempfile

    with tempfile.TemporaryDirectory() as root:
        store = FileStore(root)
        n = 20
        ids = store.put_many(
            [make_profile(command=f"c{i}", n_samples=1) for i in range(n)]
        )
        store.get_many(ids)
        assert len(store._payloads) == min(n, PAYLOAD_CACHE_SIZE)
        # Artificially shrink the observed cap by stuffing the dict: the
        # eviction loop trims to PAYLOAD_CACHE_SIZE on every insert.
        assert len(store._payloads) <= PAYLOAD_CACHE_SIZE


def test_lru_evicts_oldest_first(store, monkeypatch):
    import repro.storage.filestore as fs

    monkeypatch.setattr(fs, "PAYLOAD_CACHE_SIZE", 2)
    ids = store.put_many([make_profile(command=f"c{i}") for i in range(3)])
    store.get_many(ids)  # third insert evicts the first
    assert len(store._payloads) == 2
    assert ids[0] not in store._payloads
    assert ids[2] in store._payloads
