"""The exact bytes a profile campaign writes to a FileStore.

A small campaign runs onto a fresh FileStore with the two values that
differ from run to run held fixed — every profile's ``created`` stamp
and every process id — and the record ``sum`` of each cell, read from
the segments' index lines, must equal the committed fixture.  The sum
is the blake2b of the record's bytes, so this pins every byte of every
record: key order, float spelling, the sample columns and the nesting
of ``info``.  Regenerate the fixture only with a named reason
(``python -m tests.storage.test_record_bytes`` rewrites it).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.runtime import RunService, run_campaign
from repro.sim.process import SimProcess
from repro.storage.filestore import FileStore

from tests.storage.conftest import read_segment, segment_files

FIXTURE = Path(__file__).parent / "fixtures" / "record_bytes_golden.json"

SPEC = {
    "name": "record-bytes",
    "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1],
    "config": {"sample_rate": 2.0},
    "tags": {"experiment": "golden"},
}

#: The ``created`` stamp and the pid every record carries.
CREATED = 1_700_000_000.25
PID = 4242


def record_sums(root, monkeypatch) -> list[list[str]]:
    """Sorted ``[cell digest, record sum]`` of a campaign run onto ``root``."""
    monkeypatch.setattr(time, "time", lambda: CREATED)
    monkeypatch.setattr(SimProcess, "next_pid", staticmethod(lambda: PID))
    store = FileStore(root)
    put_many = store.put_many

    def stamped(profiles):
        # The dataclass default stamp is bound before ``time.time`` is
        # patched, so a profile that took it is stamped here.
        profiles = list(profiles)
        for profile in profiles:
            profile.created = CREATED
        return put_many(profiles)

    monkeypatch.setattr(store, "put_many", stamped)
    report = run_campaign(SPEC, store, service=RunService(processes=1))
    assert report.executed == 8 and not report.failed
    pairs = []
    for path in segment_files(root):
        for row in read_segment(path)[0]:
            (cell,) = [tag[5:] for tag in row["tags"] if tag.startswith("cell=")]
            pairs.append([cell, row["sum"]])
    return sorted(pairs)


def test_campaign_records_are_byte_identical_to_the_fixture(tmp_path, monkeypatch):
    assert record_sums(tmp_path, monkeypatch) == json.loads(
        FIXTURE.read_text(encoding="utf-8")
    )


if __name__ == "__main__":
    import tempfile

    import pytest

    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        FIXTURE.write_text(
            json.dumps(record_sums(root, mp), indent=1) + "\n", encoding="utf-8"
        )
