"""Marker plane conformance: one contract, three backends.

``put_markers`` / ``markers`` / ``delete_markers`` carry the elastic
coordinator's heartbeats and leases.  Every backend must round-trip
kind, fields and stamp, order scans by ``(created, id)``, keep markers
out of the document plane, and show a marker to the very next scan of
any other handle — for the file store, of any other *process*.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.errors import StoreError
from repro.core.samples import Profile
from repro.faults.inject import injected_faults
from repro.faults.plan import FaultPlan
from repro.storage import FileStore, Marker, MemoryStore, MongoLite, MongoStore
from repro.storage.filestore import MARKER_DIR
from repro.storage.migrate import migrate
from repro.telemetry.metrics import get_registry

SRC = Path(__file__).resolve().parents[2] / "src"

HOSTILE = [
    "plain",
    "a/b/../../c",
    "~tilde~",
    ".",
    "..",
    ".hidden",
    "k=v,k2=v2",
    "line\nbreak",
    "percent%2Fsign",
    "@",
    "",
    "ünïcödé ✓",
    "x" * 300,
]


@pytest.fixture(params=["memory", "file", "mongo"])
def handles(request, tmp_path):
    """``open() -> store``: every call is another handle on one backend."""
    if request.param == "memory":
        store = MemoryStore()
        return lambda: store
    if request.param == "file":
        return lambda: FileStore(tmp_path / "s")
    db = MongoLite()
    return lambda: MongoStore(db)


@pytest.fixture
def store(handles):
    return handles()


class TestConformance:
    def test_round_trip(self, store):
        ids = store.put_markers(
            "camp", "lease", [{"cell": "abc", "owner": "w0", "epoch": 2}],
            created=1234.5,
        )
        [marker] = store.markers("camp")
        assert isinstance(marker, Marker)
        assert [marker.id] == ids
        assert marker.kind == "lease"
        assert marker.fields == {"cell": "abc", "owner": "w0", "epoch": "2"}
        assert marker.created == pytest.approx(1234.5, abs=1e-6)

    def test_default_stamp_is_now_and_shared_by_the_batch(self, store):
        before = time.time()
        store.put_markers("camp", "member", [{"member": "a"}, {"member": "b"}])
        first, second = store.markers("camp")
        assert first.created == second.created
        assert before - 1e-3 <= first.created <= time.time() + 1e-3

    def test_scans_are_scoped(self, store):
        store.put_markers("one", "member", [{"member": "a"}])
        store.put_markers("two", "member", [{"member": "b"}])
        assert [m.fields["member"] for m in store.markers("one")] == ["a"]
        assert [m.fields["member"] for m in store.markers("two")] == ["b"]
        assert store.markers("three") == []

    def test_order_is_created_then_id(self, store):
        late = store.put_markers("camp", "lease", [{"n": 2}], created=20.0)
        early = store.put_markers("camp", "lease", [{"n": 0}, {"n": 1}], created=10.0)
        tied = store.put_markers("camp", "lease", [{"n": 3}], created=20.0)
        found = store.markers("camp")
        assert [m.id for m in found] == early + sorted(late + tied)
        assert [m.fields["n"] for m in found[:2]] == ["0", "1"]

    def test_second_handle_sees_marker_on_next_scan(self, handles):
        writer, reader = handles(), handles()
        assert reader.markers("camp") == []  # a warm, empty view first
        [mid] = writer.put_markers("camp", "member", [{"member": "w"}])
        assert [m.id for m in reader.markers("camp")] == [mid]
        writer.delete_markers([mid])
        assert reader.markers("camp") == []

    def test_same_stamp_writers_get_distinct_ids(self, handles):
        first, second = handles(), handles()
        ids = first.put_markers("camp", "lease", [{"cell": "c"}] * 2, created=5.0)
        ids += second.put_markers("camp", "lease", [{"cell": "c"}] * 2, created=5.0)
        assert len(set(ids)) == 4
        assert sorted(m.id for m in first.markers("camp")) == sorted(ids)

    @pytest.mark.parametrize("text", HOSTILE)
    def test_hostile_strings_round_trip(self, store, text):
        [mid] = store.put_markers(text, text or "kind", [{"who": text, text: "v"}])
        [marker] = store.markers(text)
        assert marker.kind == (text or "kind")
        assert marker.fields == {"who": text, text: "v"}
        assert store.markers(text + "x") == []
        store.delete_markers([mid])
        assert store.markers(text) == []

    def test_delete_of_missing_id_is_silent(self, store):
        [mid] = store.put_markers("camp", "member", [{"member": "w"}])
        store.delete_markers([mid, mid])
        store.delete_markers([mid, "never-issued", "0/0", "12"])
        store.delete_markers([])
        assert store.markers("camp") == []

    def test_document_plane_never_sees_markers(self, store):
        pid = store.put(Profile(command="app", tags={"campaign": "camp"}))
        store.put_markers("camp", "lease", [{"cell": "c", "owner": "w", "epoch": 1}])
        store.put_markers("camp", "member", [{"member": "w"}])
        assert store.count() == 1
        assert [entry.id for entry in store.entries()] == [pid]
        assert [entry.id for entry in store.entries(tags=["campaign=camp"])] == [pid]
        assert len(store.find()) == 1
        assert store.keys() == [("app", ("campaign=camp",), 1)]
        assert [p for p, _ in store._iter_profiles()] == [pid]
        assert len(store.markers("camp")) == 2

    def test_empty_batch_writes_nothing(self, store):
        assert store.put_markers("camp", "lease", []) == []
        assert store.markers("camp") == []


class TestFaultsAndTelemetry:
    def test_put_fires_store_put_with_marker_key(self, store):
        plan = FaultPlan.from_dict({"rules": [
            {"point": "store.put", "mode": "error", "match_key": "marker:lease"},
        ]})
        with injected_faults(plan):
            with pytest.raises(Exception):
                store.put_markers("camp", "lease", [{"cell": "c"}])
            store.put_markers("camp", "member", [{"member": "w"}])  # other key
        assert [m.kind for m in store.markers("camp")] == ["member"]

    def test_scan_fires_store_entries(self, store):
        plan = FaultPlan.from_dict({"rules": [
            {"point": "store.entries", "mode": "error"},
        ]})
        with injected_faults(plan):
            with pytest.raises(Exception):
                store.markers("camp")

    def test_counters_and_histogram(self, store):
        registry = get_registry()
        before = {
            name: registry.counter(f"store.markers.{name}")
            for name in ("put", "scan", "delete")
        }
        timed_before = registry.histogram("store.markers.seconds")
        ids = store.put_markers("camp", "lease", [{"cell": "a"}, {"cell": "b"}])
        store.markers("camp")
        store.delete_markers(ids)
        assert registry.counter("store.markers.put") == before["put"] + 2
        assert registry.counter("store.markers.scan") == before["scan"] + 1
        assert registry.counter("store.markers.delete") == before["delete"] + 2
        count_before = timed_before.count if timed_before is not None else 0
        assert registry.histogram("store.markers.seconds").count == count_before + 3


class TestFileLayout:
    def test_markers_are_zero_byte_files_under_dot_markers(self, tmp_path):
        store = FileStore(tmp_path / "s")
        store.put_markers("camp", "lease", [{"cell": "c", "owner": "w", "epoch": 1}])
        [scope_dir] = (tmp_path / "s" / MARKER_DIR).iterdir()
        [marker_file] = scope_dir.iterdir()
        assert marker_file.stat().st_size == 0
        assert marker_file.name.endswith(",lease,cell=c,owner=w,epoch=1")

    def test_overlong_record_spills_to_the_body_atomically(self, tmp_path):
        store = FileStore(tmp_path / "s")
        [mid] = store.put_markers("camp", "member", [{"member": "m" * 400}])
        [scope_dir] = (tmp_path / "s" / MARKER_DIR).iterdir()
        assert [path.name for path in scope_dir.iterdir()] == [mid.split("/")[1]]
        assert len(mid.split("/")[1]) <= 255
        # A crashed writer's half-written spill file is not a marker.
        (scope_dir / ".00000000000000000001-dead-000001.tmp").write_text("{")
        [marker] = store.markers("camp")
        assert marker.fields == {"member": "m" * 400}

    def test_strangers_in_the_scope_directory_are_ignored(self, tmp_path):
        store = FileStore(tmp_path / "s")
        [mid] = store.put_markers("camp", "member", [{"member": "w"}])
        scope_dir = tmp_path / "s" / MARKER_DIR / mid.split("/")[0]
        (scope_dir / "README").write_text("not a marker")
        (scope_dir / "notdigits-x-1,member,member=z").write_text("")
        assert [m.id for m in store.markers("camp")] == [mid]

    def test_failed_batch_leaves_no_marker(self, tmp_path, monkeypatch):
        store = FileStore(tmp_path / "s")
        real_open, calls = os.open, []

        def flaky(path, flags, mode=0o777, **kwargs):
            if MARKER_DIR in str(path):
                calls.append(path)
                if len(calls) == 3:
                    raise OSError(28, "No space left on device")
            return real_open(path, flags, mode, **kwargs)

        store.put_markers("camp", "member", [{"member": "w"}])  # scope dir exists
        calls.clear()
        monkeypatch.setattr(os, "open", flaky)
        with pytest.raises(StoreError):
            store.put_markers("camp", "lease", [{"cell": str(i)} for i in range(4)])
        monkeypatch.undo()
        assert [m.kind for m in store.markers("camp")] == ["member"]

    def test_dot_directories_are_not_groups(self, tmp_path):
        """An empty ``.markers`` tree must neither count as a v1 profile
        group (to the store or to ``migrate``) nor be swept away."""
        root = tmp_path / "s"
        store = FileStore(root)
        pid = store.put(Profile(command="app"))
        [mid] = store.put_markers("camp", "member", [{"member": "w"}])
        store.delete_markers([mid])  # leaves .markers/<scope>/ empty
        fresh = FileStore(root)
        assert fresh.count() == 1
        assert fresh.keys() == [("app", (), 1)]
        assert [p for p, _ in fresh._iter_profiles()] == [pid]
        assert migrate(root) == (0, 0, 0)
        assert (root / MARKER_DIR / mid.split("/")[0]).is_dir()

    def test_second_process_sees_marker_on_next_scan(self, tmp_path):
        root = tmp_path / "s"
        reader = FileStore(root)
        assert reader.markers("camp") == []
        script = (
            "import sys; from repro.storage import FileStore; "
            "print(FileStore(sys.argv[1]).put_markers("
            "'camp', 'member', [{'member': 'child'}])[0])"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            capture_output=True, text=True, env=env, timeout=60, check=True,
        )
        [marker] = reader.markers("camp")
        assert marker.id == child.stdout.strip()
        assert marker.fields == {"member": "child"}
        # ... and the parent can delete what the child wrote.
        reader.delete_markers([marker.id])
        assert FileStore(root).markers("camp") == []
