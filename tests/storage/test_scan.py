"""``ProfileStore.scan``: the chunked bulk read of whole-ledger readers.

A scan must hand out what ``get_many`` would, in the order asked, on
every backend; read ``SCAN_CHUNK`` ids at a time (one ``store.get``
fault point and one timer per chunk); and verify what it reads.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.errors import CorruptArtifactError, StoreError
from repro.faults import FaultPlan, InjectedFault, injected_faults
from repro.storage import FileStore, MemoryStore, MongoStore
from repro.storage.base import SCAN_CHUNK
from tests.storage.conftest import damage_record, make_profile


@pytest.fixture(params=["memory", "file", "mongo"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore()
    if request.param == "file":
        return FileStore(tmp_path / "profiles")
    return MongoStore()


def _fill(store, n: int, wave: int = 8) -> list[str]:
    """``n`` profiles written ``wave`` per ``put_many``, as a campaign does."""
    ids: list[str] = []
    for first in range(0, n, wave):
        ids += store.put_many(
            make_profile(command=f"c{i}", n_samples=2)
            for i in range(first, min(n, first + wave))
        )
    return ids


def test_a_scan_reads_what_get_many_reads_in_the_order_asked(store):
    ids = _fill(store, SCAN_CHUNK + 9)
    order = ids[::-1] + ids[:3]  # across chunks and segments, a repeat too
    scanned = [p.to_dict() for p in store.scan(order)]
    assert scanned == [p.to_dict() for p in store.get_many(order)]
    assert list(store.scan([])) == []


def test_the_fault_point_fires_once_per_chunk(store):
    ids = _fill(store, 2 * SCAN_CHUNK + 1)
    plan = FaultPlan.from_dict({"rules": [{"point": "store.get", "at": 2}]})
    read = []
    with injected_faults(plan), pytest.raises(InjectedFault):
        read.extend(store.scan(ids))
    assert len(read) == SCAN_CHUNK  # the first chunk, then the second read fails
    with injected_faults(FaultPlan.from_dict({"rules": [{"point": "store.get", "at": 4}]})):
        assert len(list(store.scan(ids))) == len(ids)  # three reads only


def test_an_unknown_id_raises_when_its_chunk_is_read(store):
    ids = _fill(store, SCAN_CHUNK + 1)
    profiles = store.scan(ids[:SCAN_CHUNK] + ["nope/000000"])
    assert len(list(itertools.islice(profiles, SCAN_CHUNK))) == SCAN_CHUNK
    with pytest.raises(StoreError):
        next(profiles)


def test_a_scan_verifies_what_it_reads(tmp_path):
    store = FileStore(tmp_path / "profiles")
    ids = _fill(store, 3)
    damage_record(store.root, ids[1], b'"c1"', b'"C1"')
    with pytest.raises(CorruptArtifactError):
        list(store.scan(ids))
