"""Roots in the two older on-disk layouts are refused, not read.

``FileStore`` reads only v3 segments.  A complete *v2 segment* (its
index line a bare JSON list of rows) and a *v1 group* (a non-dot
directory of ``*.json`` profile files and an ``index.jsonl`` journal)
make every query raise one :class:`StoreError` that names commit
``8cf855c``, the last whose ``repro migrate`` rewrites them.  A refused
query changes nothing on disk, and a put still lands beside them as a
v3 segment.  Both layouts are written by hand here.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.errors import StoreError
from repro.runtime import ledger_digest, run_campaign
from repro.storage import FileStore
from tests.storage.conftest import build_segment, make_profile, segment_files

REFUSAL = (
    r"is in an on-disk layout that is no longer read; commit 8cf855c is the "
    r"last whose `repro --store file://.+ migrate` rewrites it as v3"
)

SPEC = {
    "name": "old-root", "kind": "profile",
    "apps": ["sleeper:sleep_seconds=1"], "machines": ["thinkie"],
    "seeds": [0], "config": {"sample_rate": 2.0},
}


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, by its relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def assert_refused(root: Path) -> None:
    """Every query path refuses the root, and none of them writes."""
    before = tree(root)
    store = FileStore(root)
    calls = (
        store.find_ids, store.find, store.entries, store.count, store.keys,
        lambda: store.get_many(["x.seg/000000"]),
        lambda: store.delete("x.seg/000000"),
        lambda: list(store._iter_profiles()),
        lambda: ledger_digest(store, SPEC["name"]),
        lambda: run_campaign(SPEC, store),
    )
    for call in calls:
        with pytest.raises(StoreError, match=REFUSAL):
            call()
    assert tree(root) == before


def assert_put_lands(root: Path) -> None:
    """A put beside the old layout writes one v3 segment, still refused."""
    segments = set(segment_files(root))
    FileStore(root).put(make_profile("put", n_samples=1, created=9.0))
    [written] = set(segment_files(root)) - segments
    index = json.loads(written.read_bytes().splitlines()[-2])
    assert index["version"] == 3
    assert [row["command"] for row in index["records"]] == ["put"]
    assert_refused(root)


def test_a_v2_segment_is_refused(tmp_path):
    (tmp_path / "00000000001000000000-0a0a0a0a-000001.seg").write_bytes(
        build_segment([make_profile(n_samples=1, created=1.0), make_profile(n_samples=1, created=2.0)], version=2)
    )
    assert_refused(tmp_path)
    assert_put_lands(tmp_path)


@pytest.mark.parametrize("held", ["profiles", "journal"])
def test_a_v1_group_is_refused(tmp_path, held):
    group = tmp_path / "0123456789abcdef"
    group.mkdir()
    if held == "profiles":
        name = "00000000001000000000-v1writer-000001.json"
        (group / name).write_text(json.dumps(make_profile(n_samples=1, created=1.0).to_dict()))
    else:
        (group / "index.jsonl").write_text("")
    assert_refused(tmp_path)
    assert_put_lands(tmp_path)


def test_stranger_files_in_the_root_are_not_groups(tmp_path):
    (tmp_path / "README").write_text("hello")
    (tmp_path / "notes.txt").write_text("hello")
    (tmp_path / "emptydir").mkdir()
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "notes.txt").write_text("hello")
    pid = FileStore(tmp_path).put(make_profile(n_samples=1, created=1.0))
    fresh = FileStore(tmp_path)
    assert fresh.find_ids() == [pid]
    assert [p for p, _ in fresh._iter_profiles()] == [pid]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["README", "notes.txt", "emptydir", "data", pid.split("/")[0]]
    )
