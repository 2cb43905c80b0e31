"""Crash-consistency enumeration of the FileStore's on-disk states.

Every state a crash can leave behind ``put``/``put_many``/``delete``
and the marker plane's spill write is built by hand — the file system is
the only witness of a crash, so writing the files is the same as
crashing there — and read back through a fresh handle.  The contract: a
record reads as *absent* or as *complete and checksum-valid*; the index
and payload planes never raise on debris and never return a torn
document.  One case crashes a real child process mid-wave through
``repro.faults`` crash mode, and the failed-write cases check that a
``put_many`` that raises leaves the root exactly as it was.

The root every case starts from holds an older complete segment;
:class:`TestSampleColumns` damages the v3 sample columns themselves and
the index line's version, and :class:`TestMigrateCrashPoints` cuts
``migrate`` short at every step: a root it left behind is refused or
reads whole, and a rerun finishes it without landing a profile twice.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.errors import CorruptArtifactError, StoreError
from repro.core.samples import Profile, Sample
from repro.faults import FaultPlan, InjectedFault, injected_faults
from repro.storage import FileStore
from repro.storage.base import ProfileStore
from repro.storage.migrate import migrate
from tests.storage.conftest import (
    build_segment,
    decode_record,
    encode_record,
    read_segment,
    write_v1,
)

SRC = Path(__file__).resolve().parents[2] / "src"

OLD = "00000000001000000000-0a0a0a0a-000001.seg"
NEW = "00000000002000000000-0b0b0b0b-000001.seg"


def make_profile(command="app x", created=1.0, n_samples=2):
    samples = [
        Sample(index=i, t=float(i), dt=1.0, values={"cpu.cycles_used": float(i)})
        for i in range(n_samples)
    ]
    return Profile(command=command, tags=("k=1",), samples=samples, created=created)


OLD_WAVE = [make_profile("old a", 1.0), make_profile("old b", 1.5)]
NEW_WAVE = [make_profile(f"new {c}", 2.0 + i) for i, c in enumerate("abc")]


@pytest.fixture
def root(tmp_path):
    """A root holding one complete, older segment (``OLD_WAVE``)."""
    (tmp_path / OLD).write_bytes(build_segment(OLD_WAVE))
    return tmp_path


def read_back(root) -> list[dict]:
    """Every document a fresh handle returns, through every read path.

    Raises if any path raises or if the paths disagree; ``get_many``
    verifies each record's checksum on the way.
    """
    store = FileStore(root)
    listed = store.entries()
    ids = store.find_ids()
    assert [entry.id for entry in listed] == ids
    assert store.count() == len(ids)
    docs = [profile.to_dict() for profile in store.get_many(ids)]
    assert docs == [profile.to_dict() for profile in store.find()]
    assert docs == [profile.to_dict() for profile in ProfileStore.find(store)]
    assert [entry.command for entry in listed] == [doc["command"] for doc in docs]
    return docs


def docs_of(*waves) -> list[dict]:
    return [profile.to_dict() for wave in waves for profile in wave]


class TestPutCrashPoints:
    def test_hand_built_segment_reads_complete(self, root):
        (root / NEW).write_bytes(build_segment(NEW_WAVE))
        assert read_back(root) == docs_of(OLD_WAVE, NEW_WAVE)

    def test_tmp_only(self, root):
        """Crash before the rename, at any point of the write."""
        segment = build_segment(NEW_WAVE)
        for cut in (0, 1, len(segment) // 2, len(segment) - 1, len(segment)):
            (root / f"{NEW}.tmp").write_bytes(segment[:cut])
            assert read_back(root) == docs_of(OLD_WAVE)

    def test_segment_cut_at_every_byte(self, root):
        """A ``.seg`` shorter than it was written — at every line
        boundary and everywhere mid-line — has no footer: it is absent,
        whole, and its complete neighbour is untouched."""
        segment = build_segment(NEW_WAVE)
        boundaries = [i + 1 for i, byte in enumerate(segment) if byte == 0x0A]
        assert len(boundaries) == len(NEW_WAVE) + 2  # records, index line, footer
        for cut in range(len(segment)):
            (root / NEW).write_bytes(segment[:cut])
            assert read_back(root) == docs_of(OLD_WAVE), cut
        (root / NEW).write_bytes(segment)
        assert read_back(root) == docs_of(OLD_WAVE, NEW_WAVE)

    @pytest.mark.parametrize("footer", [
        b"synapse-segment-index@%020d\n" % 10**9,        # past EOF
        b"synapse-segment-index@-0000000000000000001\n",  # before the start
        b"synapse-segment-index@0000000000000000000x\n",  # not a number
        b"synapse-segment-index@%020d\n" % 3,            # mid-document
        b"synapse-segment-indey@%020d\n" % 0,            # not a footer
    ])
    def test_footer_pointing_nowhere(self, root, footer):
        segment = build_segment(NEW_WAVE)
        (root / NEW).write_bytes(segment[: -len(footer)] + footer)
        assert read_back(root) == docs_of(OLD_WAVE)

    def test_footer_pointing_at_its_own_line(self, root):
        segment = build_segment(NEW_WAVE)
        body = len(segment) - 43
        (root / NEW).write_bytes(
            segment[:body] + b"synapse-segment-index@%020d\n" % body
        )
        assert read_back(root) == docs_of(OLD_WAVE)

    @pytest.mark.parametrize("index", [
        b"{}", b"[1, 2]", b'[{"command": "x"}]', b"null", b"[[]]", b"",
        json.dumps([{"command": "x", "tags": [], "created": 1.0, "sum": "00",
                     "offset": 0, "length": 10**6}]).encode(),
        json.dumps([{"command": "x", "tags": [], "created": 1.0, "sum": "00",
                     "offset": -5, "length": 2}]).encode(),
        json.dumps([{"command": "x", "tags": 7, "created": "soon", "sum": "00",
                     "offset": 0, "length": 2}]).encode(),
    ])
    def test_index_line_describing_nothing_readable(self, root, index):
        body = b'{"command": "x"}\n'
        (root / NEW).write_bytes(
            body + index + b"\n" + b"synapse-segment-index@%020d\n" % len(body)
        )
        assert read_back(root) == docs_of(OLD_WAVE)

    def test_real_crash_mid_wave_then_retry(self, root):
        """A child process dies (``os._exit``) at the third profile of a
        wave: nothing of the wave is visible, and a retry stores it."""
        script = (
            "import sys, pickle; from repro.storage import FileStore; "
            "FileStore(sys.argv[1]).put_many(pickle.loads(sys.stdin.buffer.read()))"
        )
        plan = {"rules": [{"point": "store.put", "mode": "crash", "at": 3}]}
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_FAULTS=json.dumps(plan))
        child = subprocess.run(
            [sys.executable, "-c", script, str(root)],
            input=pickle.dumps(NEW_WAVE), capture_output=True, env=env, timeout=60,
        )
        assert child.returncode == 13, child.stderr
        [debris] = [p.name for p in root.iterdir() if p.name != OLD]
        assert debris.endswith(".seg.tmp")
        assert read_back(root) == docs_of(OLD_WAVE)
        FileStore(root).put_many(NEW_WAVE)
        assert read_back(root) == docs_of(OLD_WAVE, NEW_WAVE)


class TestDeleteCrashPoints:
    @pytest.fixture
    def root(self, root):
        (root / NEW).write_bytes(build_segment(NEW_WAVE))
        return root

    def test_tombstone_is_the_delete(self, root):
        (root / f"{NEW}.000001.del").touch()
        assert read_back(root) == docs_of(OLD_WAVE, [NEW_WAVE[0], NEW_WAVE[2]])

    def test_every_record_tombstoned_but_segment_left(self, root):
        """Two deleters raced for "last": both dropped a tombstone."""
        for n in range(3):
            (root / f"{NEW}.{n:06d}.del").touch()
        assert read_back(root) == docs_of(OLD_WAVE)

    def test_tombstone_without_segment(self, root):
        """Crash between unlinking a segment and sweeping its
        tombstones — and tombstones of records that never existed."""
        (root / NEW).unlink()
        (root / f"{NEW}.000000.del").touch()
        (root / f"{NEW}.000002.del").touch()
        (root / f"{OLD}.000007.del").touch()
        (root / "not-a-segment.del").touch()
        (root / ".del").touch()
        assert read_back(root) == docs_of(OLD_WAVE)

    def test_delete_through_the_store_matches_the_hand_built_states(self, root):
        store = FileStore(root)
        ids = store.find_ids()
        store.delete(ids[3])
        assert sorted(p.name for p in root.iterdir()) == sorted(
            [OLD, NEW, f"{NEW}.000001.del"]
        )
        store.delete(ids[2])
        store.delete(ids[4])  # the last live record takes everything along
        assert [p.name for p in root.iterdir()] == [OLD]
        assert read_back(root) == docs_of(OLD_WAVE)


class TestMarkerSpillCrashPoints:
    LONG = {"cell": "c" * 300}

    def scope_dir(self, root, store) -> Path:
        store.put_markers("camp", "lease", [{"cell": "short"}], created=1.0)
        [scope] = (root / ".markers").iterdir()
        return scope

    def test_spill_tmp_debris_is_not_a_marker(self, tmp_path):
        store = FileStore(tmp_path)
        scope = self.scope_dir(tmp_path, store)
        body = json.dumps(["lease", self.LONG])
        for cut in (0, 1, len(body) // 2, len(body)):
            (scope / ".00000000002000000000-dead-000009.tmp").write_text(body[:cut])
            found = FileStore(tmp_path).markers("camp")
            assert [m.fields for m in found] == [{"cell": "short"}]

    def test_spilled_marker_is_whole_or_absent(self, tmp_path):
        store = FileStore(tmp_path)
        scope = self.scope_dir(tmp_path, store)
        [mid] = store.put_markers("camp", "lease", [self.LONG], created=2.0)
        assert mid.endswith(",@")
        fresh = FileStore(tmp_path)
        assert [m.fields for m in fresh.markers("camp")] == [
            {"cell": "short"}, self.LONG,
        ]
        # A body torn behind the store's back reads as no marker at all.
        spilled = scope / mid.split("/")[1]
        body = spilled.read_text()
        for cut in (0, 1, len(body) // 2, len(body) - 1):
            spilled.write_text(body[:cut])
            assert [m.fields for m in fresh.markers("camp")] == [{"cell": "short"}]
        # ... and none of it ever shows on the document planes.
        assert read_back(tmp_path) == []


class TestFailedPutLeavesNoTrace:
    def listing(self, root) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in root.iterdir()}

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_injected_error_at_kth_profile(self, root, k):
        store = FileStore(root)
        before = self.listing(root)
        plan = FaultPlan.from_dict({"rules": [{"point": "store.put", "at": k}]})
        with injected_faults(plan):
            with pytest.raises(InjectedFault):
                store.put_many(NEW_WAVE)
            assert self.listing(root) == before
            assert store.count() == len(OLD_WAVE)
            # The retry (hit k+1.. of an at=k rule passes) lands the wave.
            ids = store.put_many(NEW_WAVE)
        assert len(ids) == len(NEW_WAVE)
        assert read_back(root) == docs_of(OLD_WAVE, NEW_WAVE)
        assert len(self.listing(root)) == len(before) + 1

    @pytest.mark.parametrize("failing", ["fsync", "replace"])
    def test_os_error_on_write(self, root, monkeypatch, failing):
        store = FileStore(root, durability="fsync")
        before = self.listing(root)

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, failing, refuse)
        with pytest.raises(StoreError, match="No space left"):
            store.put_many(NEW_WAVE)
        with pytest.raises(StoreError, match="No space left"):
            store.put(NEW_WAVE[0])
        monkeypatch.undo()
        assert self.listing(root) == before
        assert store.count() == len(OLD_WAVE)
        store.put_many(NEW_WAVE)
        assert read_back(root) == docs_of(OLD_WAVE, NEW_WAVE)

    def test_failing_iterable(self, root):
        def wave():
            yield NEW_WAVE[0]
            raise RuntimeError("the producer died")

        store = FileStore(root)
        before = self.listing(root)
        with pytest.raises(RuntimeError):
            store.put_many(wave())
        assert self.listing(root) == before

    @pytest.mark.parametrize("position", [0, 2])
    @pytest.mark.parametrize("created", [math.nan, math.inf, -math.inf, 1e300])
    def test_created_that_is_no_stamp(self, root, created, position):
        """A segment's name and its write order are creation stamps: a
        profile without a finite one is refused as a store error, first
        of its wave or not, and nothing lands."""
        store = FileStore(root)
        before = self.listing(root)
        wave = list(NEW_WAVE)
        wave[position] = make_profile("no stamp", created)
        with pytest.raises(StoreError, match="not a finite stamp"):
            store.put_many(wave)
        assert self.listing(root) == before
        assert read_back(root) == docs_of(OLD_WAVE)


def _with_values(profile, edit) -> bytes:
    """``profile``'s v3 record with its ``values`` column edited."""
    doc = json.loads(encode_record(profile))
    doc["samples"]["values"] = edit(doc["samples"]["values"])
    return json.dumps(doc).encode("utf-8")


class TestSampleColumns:
    """Damage to the v3 sample columns and to the index line's version."""

    @pytest.mark.parametrize("edit", [
        lambda text: text[:-4],              # torn: three bytes short of a float
        lambda text: text[:-12],             # truncated: one float short
        lambda text: text + "AAAAAAAAAAA=",  # one float too many
        lambda text: text[:-1] + "!",        # not base64
        lambda text: None,                   # not a column
    ], ids=["torn", "truncated", "overlong", "not-base64", "missing"])
    def test_bad_column_under_a_good_sum_is_corrupt(self, root, edit):
        """A writer that wrote bad columns, its sum covering them: the
        index plane still lists the records, every payload read refuses
        them with the typed, non-retryable error, and the older
        neighbour reads as before."""
        records = [_with_values(profile, edit) for profile in NEW_WAVE]
        (root / NEW).write_bytes(build_segment(NEW_WAVE, records=records))
        store = FileStore(root)
        ids = store.find_ids()
        assert len(ids) == len(OLD_WAVE) + len(NEW_WAVE)
        new = [pid for pid in ids if pid.startswith(NEW)]
        old = [pid for pid in ids if pid.startswith(OLD)]
        for pid in new:
            with pytest.raises(CorruptArtifactError, match="not a readable record"):
                store.get_many([pid])
        with pytest.raises(CorruptArtifactError):
            store.find()
        with pytest.raises(StoreError):
            ProfileStore.find(store)
        assert [p.to_dict() for p in store.get_many(old)] == docs_of(OLD_WAVE)

    def test_bit_rot_in_a_column_fails_the_sum(self, root):
        segment = build_segment(NEW_WAVE)
        column = json.loads(encode_record(NEW_WAVE[1]))["samples"]["values"]
        flipped = ("B" if column[0] == "A" else "A") + column[1:]
        (root / NEW).write_bytes(
            segment.replace(column.encode(), flipped.encode(), 1)
        )
        store = FileStore(root)
        with pytest.raises(CorruptArtifactError, match="integrity check"):
            store.get_many([f"{NEW}/000000"])

    @pytest.mark.parametrize("version", [4, 1, "3", None])
    def test_unknown_index_version_is_absent(self, root, version):
        (root / NEW).write_bytes(build_segment(NEW_WAVE, version=version))
        assert read_back(root) == docs_of(OLD_WAVE)

    def test_index_line_without_a_version_is_absent(self, root):
        segment = build_segment(NEW_WAVE)
        (root / NEW).write_bytes(segment.replace(b'{"version": 3, "records"', b'{"records"'))
        assert read_back(root) == docs_of(OLD_WAVE)

    def test_mixed_root_reads_consistently(self, tmp_path):
        """v3 older than v2 (a downgrade and back), then a put through
        the store: refused until ``migrate``, then every read path
        agrees with the others and with the records decoded by hand."""
        put = make_profile("put c", 9.0)
        (tmp_path / OLD).write_bytes(build_segment(OLD_WAVE, version=3))
        (tmp_path / NEW).write_bytes(build_segment(NEW_WAVE, version=2))
        FileStore(tmp_path).put_many([put])
        with pytest.raises(StoreError, match="older on-disk format"):
            read_back(tmp_path)
        assert tuple(migrate(tmp_path)) == (1, 0, len(NEW_WAVE))
        docs = read_back(tmp_path)
        assert docs == docs_of(OLD_WAVE, NEW_WAVE, [put])
        by_hand = [
            decode_record(data)
            for path in sorted(tmp_path.glob("*.seg"))
            for data in read_segment(path)[1]
        ]
        assert by_hand == docs



#: One v1 group (same command, same tags) of three profiles.
GROUP_WAVE = [make_profile("v1 app", 10.0 + i) for i in range(3)]


class TestMigrateCrashPoints:
    """``migrate`` cut short at every step, built by hand."""

    @pytest.fixture
    def twin(self, tmp_path) -> Path:
        """The segment ``migrate`` writes for :data:`GROUP_WAVE`'s group
        (its name and bytes depend on the group alone)."""
        scratch = tmp_path / "scratch"
        write_v1(scratch, GROUP_WAVE)
        migrate(scratch)
        [segment] = scratch.glob("*.seg")
        return segment

    @pytest.fixture
    def v1root(self, tmp_path) -> Path:
        """An older segment and :data:`GROUP_WAVE`'s v1 group."""
        root = tmp_path / "root"
        root.mkdir()
        (root / OLD).write_bytes(build_segment(OLD_WAVE))
        write_v1(root, GROUP_WAVE)
        return root

    def refused(self, root) -> None:
        with pytest.raises(StoreError, match="older on-disk format"):
            read_back(root)

    def test_v2_rewrite_tmp_debris(self, root):
        """Crash while writing a v2 segment's v3 twin: the v2 segment is
        still there (and refused), and the rerun replaces it."""
        (root / NEW).write_bytes(build_segment(NEW_WAVE, version=2))
        twin = build_segment(NEW_WAVE)
        for cut in (0, 1, len(twin) // 2, len(twin)):
            (root / f"{NEW}.tmp").write_bytes(twin[:cut])
            self.refused(root)
        assert tuple(migrate(root)) == (1, 0, len(NEW_WAVE))
        assert sorted(p.name for p in root.iterdir()) == [OLD, NEW]
        assert read_back(root) == docs_of(OLD_WAVE, NEW_WAVE)
        assert tuple(migrate(root)) == (0, 0, 0)

    def test_v2_tombstones_keep_their_records(self, root):
        """The rewrite keeps each record's position, so a tombstone
        dropped on a v2 segment still deletes the same record."""
        (root / NEW).write_bytes(build_segment(NEW_WAVE, version=2))
        (root / f"{NEW}.000001.del").touch()
        migrate(root)
        assert read_back(root) == docs_of(OLD_WAVE, [NEW_WAVE[0], NEW_WAVE[2]])

    def test_v1_segment_tmp_debris(self, v1root, twin):
        """Crash while writing a group's segment: the group is whole."""
        data = twin.read_bytes()
        for cut in (0, len(data) // 2, len(data)):
            (v1root / f"{twin.name}.tmp").write_bytes(data[:cut])
            self.refused(v1root)
        assert tuple(migrate(v1root)) == (0, 1, len(GROUP_WAVE))
        assert sorted(p.name for p in v1root.iterdir()) == [OLD, twin.name]
        assert read_back(v1root) == docs_of(OLD_WAVE, GROUP_WAVE)

    def test_v1_group_removal_cut_at_every_file(self, v1root, twin, tmp_path):
        """Crash after the group's segment landed, with the first ``k``
        of the group's files removed: refused while any file is left,
        and the rerun only finishes the removal."""
        [group] = [p.name for p in v1root.iterdir() if p.is_dir()]
        order = sorted(p.name for p in (v1root / group).glob("*.json"))
        order.append("index.jsonl")
        for k in range(len(order)):
            case = tmp_path / f"case{k}"
            shutil.copytree(v1root, case)
            shutil.copy(twin, case)
            for name in order[:k]:
                (case / group / name).unlink()
            self.refused(case)
            assert tuple(migrate(case)) == (0, 1, 0)
            assert sorted(p.name for p in case.iterdir()) == [OLD, twin.name]
            assert read_back(case) == docs_of(OLD_WAVE, GROUP_WAVE)

    def test_emptied_group_directory_is_no_group(self, root, twin):
        """Crash between the group's last unlink and its ``rmdir``."""
        shutil.copy(twin, root)
        (root / "0123456789abcdef").mkdir()
        assert read_back(root) == docs_of(OLD_WAVE, GROUP_WAVE)
        assert tuple(migrate(root)) == (0, 0, 0)

    @pytest.mark.parametrize("at", [1, 3, 4, 6])
    def test_real_crash_mid_migration_then_rerun(self, v1root, at):
        """A child process dies (``os._exit``) at the ``at``-th profile
        it rewrites: the root is refused, and a rerun lands every
        profile exactly once."""
        (v1root / NEW).write_bytes(build_segment(NEW_WAVE, version=2))
        script = (
            "import sys; from repro.storage.migrate import migrate; "
            "migrate(sys.argv[1])"
        )
        plan = {"rules": [{"point": "store.put", "mode": "crash", "at": at}]}
        env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_FAULTS=json.dumps(plan))
        child = subprocess.run(
            [sys.executable, "-c", script, str(v1root)],
            capture_output=True, env=env, timeout=60,
        )
        assert child.returncode == 13, child.stderr
        self.refused(v1root)
        migrate(v1root)
        assert read_back(v1root) == docs_of(OLD_WAVE, NEW_WAVE, GROUP_WAVE)
        assert not any(p.name.endswith(".tmp") for p in v1root.iterdir())
