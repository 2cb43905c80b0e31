"""A ledger written in the v2 segment format is refused until ``migrate``
rewrites it, then reads as it did, and a campaign resumes onto it.

``fixtures/v2_ledger/`` holds 2 of the 4 cells of the CI ``ci-smoke``
campaign (:data:`SPEC`, ``--limit 2``), written by the last
``FileStore`` that wrote v2 segments (records are ``to_dict`` documents,
the index line a bare JSON list).  ``fixtures/v2_ledger.json`` is what
that same code read back from it: the ids in find order, the sha256 of
each profile's ``to_dict()`` as sorted-key JSON (every float by its
``repr``), the ledger digest, and the ledger digest of the whole
campaign run from scratch.  Neither file is ever regenerated.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.core.errors import StoreError
from repro.runtime import ledger_digest, run_campaign
from repro.storage import FileStore
from repro.storage.base import ReferenceScan
from repro.storage.migrate import migrate
from tests.storage.conftest import read_segment

FIXTURES = Path(__file__).parent / "fixtures"
LEDGER = FIXTURES / "v2_ledger"
EXPECTED = json.loads((FIXTURES / "v2_ledger.json").read_text(encoding="utf-8"))

SPEC = {
    "name": "ci-smoke", "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=2"],
    "machines": ["thinkie", "comet"],
    "seeds": [0], "repeats": 1, "config": {"sample_rate": 2.0},
}


def sha(profile) -> str:
    payload = json.dumps(profile.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def test_the_fixture_is_a_v2_segment():
    [segment] = LEDGER.glob("*.seg")
    index_line = segment.read_bytes().splitlines()[-2]
    assert isinstance(json.loads(index_line), list)
    _rows, records = read_segment(segment)
    assert all(isinstance(json.loads(data)["samples"], list) for data in records)


def index_version(segment: Path):
    """``3`` for a v3 segment, ``None`` for a v2 one (a bare list)."""
    index = json.loads(segment.read_bytes().splitlines()[-2])
    return index["version"] if isinstance(index, dict) else None


@pytest.fixture
def ledger(tmp_path):
    root = tmp_path / "ledger"
    shutil.copytree(LEDGER, root)
    return root


def test_the_live_store_refuses_it(ledger):
    before = {path.name: path.read_bytes() for path in ledger.iterdir()}
    store = FileStore(ledger)
    for call in (store.find_ids, store.find, lambda: ledger_digest(store, "ci-smoke")):
        with pytest.raises(StoreError, match="older on-disk format.*migrate"):
            call()
    with pytest.raises(StoreError, match="migrate"):
        run_campaign(SPEC, store)
    assert {path.name: path.read_bytes() for path in ledger.iterdir()} == before


def test_reads_as_the_v2_writer_read_it(ledger):
    """``migrate`` rewrites the segment in place: the same name, ids,
    documents and ledger digest; a second run finds nothing to do."""
    [name] = [path.name for path in LEDGER.glob("*.seg")]
    refused = FileStore(ledger)
    with pytest.raises(StoreError):
        refused.find_ids()  # this handle recovers once the root is migrated
    assert tuple(migrate(ledger)) == (1, 0, 2)
    assert [path.name for path in ledger.iterdir()] == [name]
    assert index_version(ledger / name) == 3
    migrated = (ledger / name).read_bytes()
    assert tuple(migrate(ledger)) == (0, 0, 0)
    assert (ledger / name).read_bytes() == migrated
    for store in (refused, FileStore(ledger)):
        ids = store.find_ids()
        assert ids == EXPECTED["ids"]
        assert {pid: sha(p) for pid, p in zip(ids, store.get_many(ids))} == (
            EXPECTED["documents"]
        )
        expected = [EXPECTED["documents"][pid] for pid in ids]
        assert [sha(p) for p in store.find()] == expected
        assert [sha(p) for p in ReferenceScan(store).find()] == expected
        assert ledger_digest(store, "ci-smoke") == EXPECTED["ledger_digest"]


def test_a_campaign_resumes_onto_it(ledger, tmp_path):
    """Once migrated, the two missing cells land as a second v3 segment,
    and the ledger digests like the whole campaign written at once."""
    migrate(ledger)
    report = run_campaign(SPEC, FileStore(ledger))
    assert (report.skipped, report.executed, report.complete) == (2, 2, True)
    assert [index_version(path) for path in ledger.glob("*.seg")] == [3, 3]
    assert ledger_digest(FileStore(ledger), "ci-smoke") == EXPECTED["full_ledger_digest"]
    fresh = tmp_path / "fresh"
    run_campaign(SPEC, FileStore(fresh))
    assert ledger_digest(FileStore(fresh), "ci-smoke") == EXPECTED["full_ledger_digest"]
