"""A ledger written in the v2 segment format reads as it did, and a
campaign resumes onto it.

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

from repro.runtime import ledger_digest, run_campaign
from repro.storage import FileStore
from repro.storage.base import ProfileStore
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


def test_reads_as_the_v2_writer_read_it():
    store = FileStore(LEDGER)
    ids = store.find_ids()
    assert ids == EXPECTED["ids"]
    assert {pid: sha(p) for pid, p in zip(ids, store.get_many(ids))} == (
        EXPECTED["documents"]
    )
    assert [sha(p) for p in store.find()] == [EXPECTED["documents"][pid] for pid in ids]
    assert [sha(p) for p in ProfileStore.find(store)] == [
        EXPECTED["documents"][pid] for pid in ids
    ]
    assert ledger_digest(store, "ci-smoke") == EXPECTED["ledger_digest"]


def test_a_campaign_resumes_onto_it(tmp_path):
    """The two missing cells land as a v3 segment beside the v2 one, and
    the mixed ledger digests like the whole campaign written at once."""
    root = tmp_path / "ledger"
    shutil.copytree(LEDGER, root)
    report = run_campaign(SPEC, FileStore(root))
    assert (report.skipped, report.executed, report.complete) == (2, 2, True)
    versions = sorted(
        type(json.loads(path.read_bytes().splitlines()[-2])).__name__
        for path in root.glob("*.seg")
    )
    assert versions == ["dict", "list"]
    assert ledger_digest(FileStore(root), "ci-smoke") == EXPECTED["full_ledger_digest"]
    fresh = tmp_path / "fresh"
    run_campaign(SPEC, FileStore(fresh))
    assert ledger_digest(FileStore(fresh), "ci-smoke") == EXPECTED["full_ledger_digest"]
