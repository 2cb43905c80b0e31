"""``repro migrate``: rewrite a file store's older on-disk formats as v3.

:class:`~repro.storage.filestore.FileStore` reads only segment format 3
and refuses a root holding either older layout.  :func:`migrate`
rewrites them one container at a time:

* a **v2 segment** (index line a bare JSON list, records ``to_dict``
  documents) is replaced by the v3 segment of the same records, in the
  same order and under the same name, so its ids, its tombstones and the
  store's write order stay as they were;
* a **v1 group** (a directory per ``(command, tags)``, one ``*.json``
  file per profile, an ``index.jsonl`` journal) becomes one segment
  named ``<stamp>-v1<hash of the group name>-000001.seg``, its profiles
  in ``(created, file)`` order and under segment ids; then its files and
  directory are removed.

A record is checked against the digest its index line or journal
recorded before it is rewritten under a fresh one, so damaged bytes stop
the migration (:class:`~repro.core.errors.CorruptArtifactError`) rather
than being sealed; containers already rewritten stay rewritten.

Each rewrite lands by one atomic rename, and a group is removed only
after its segment is in place; a rerun skips v3 segments and only
finishes removing a group whose segment exists.  So a migration cut
short anywhere is finished by running it again, and never lands a
profile twice.  Run it while nothing else uses the root.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import NamedTuple

from repro.core.samples import Profile, SampleTable
from repro.storage.filestore import (
    SEGMENT_SUFFIX,
    V1_INDEX_NAME,
    _decode,
    _is_v1_group,
    _read_index,
    _stamp,
    _unlink_quietly,
    _write_segment,
)

__all__ = ["Migration", "migrate"]


class Migration(NamedTuple):
    """What one :func:`migrate` call rewrote."""

    segments: int  #: v2 segments
    groups: int  #: v1 groups
    profiles: int  #: profiles in them


def _legacy(pid: str, data: bytes, expected: str | None) -> Profile:
    """One ``to_dict`` record, checked against its recorded digest."""
    return Profile.from_dict(_decode(pid, data, expected, SampleTable.from_dicts))


def _segment_profiles(root: str, name: str) -> list[Profile]:
    """The profiles of segment ``name`` if it is a v2 one, else none."""
    version, records = _read_index(root, name)
    if version != 2:  # v3 already, or no complete segment
        return []
    with open(os.path.join(root, name), "rb") as handle:
        profiles = []
        for record in records:
            handle.seek(record.offset)
            data = handle.read(record.length)
            profiles.append(_legacy(record.entry.id, data, record.sum))
    return profiles


def _group_profiles(group: str, gname: str, files: list[str]) -> list[Profile]:
    """A v1 group's profiles, checked against its journal's digests."""
    sums: dict[str, str] = {}
    try:
        with open(os.path.join(group, V1_INDEX_NAME), encoding="utf-8") as handle:
            for line in handle:
                try:
                    row = json.loads(line)
                    sums.setdefault(str(row["id"]), str(row["sum"]))
                except (ValueError, KeyError, TypeError):
                    continue  # torn, or written before sums existed
    except OSError:
        pass
    profiles = []
    for fname in files:
        with open(os.path.join(group, fname), "rb") as handle:
            pid = f"{gname}/{fname}"
            profiles.append(_legacy(pid, handle.read(), sums.get(pid)))
    return sorted(profiles, key=lambda profile: profile.created)


def migrate(root: str | os.PathLike, durability: str = "default") -> Migration:
    """Rewrite every v2 segment and v1 group under ``root`` as v3.

    ``durability="fsync"`` flushes each rewrite as a ``FileStore`` put
    does.  Raises :class:`~repro.core.errors.StoreError` and leaves the
    containers not yet reached as they were.
    """
    root = os.fspath(root)
    fsync = durability == "fsync"
    listing = sorted(os.listdir(root))
    segments = groups = rewritten = 0
    for name in listing:
        if name.endswith(SEGMENT_SUFFIX):
            profiles = _segment_profiles(root, name)
            if profiles:
                _write_segment(root, name, profiles, fsync)
                segments += 1
                rewritten += len(profiles)
        elif _is_v1_group(root, name):
            rewritten += _migrate_group(root, name, listing, fsync)
            groups += 1
    return Migration(segments, groups, rewritten)


def _migrate_group(root: str, name: str, listing: list[str], fsync: bool) -> int:
    """Rewrite v1 group ``name`` as one segment unless ``listing`` holds
    it already, then remove the group; returns the profiles rewritten."""
    group = os.path.join(root, name)
    files = sorted(f for f in os.listdir(group) if f.endswith(".json"))
    writer = "v1" + hashlib.sha256(name.encode("utf-8")).hexdigest()[:16]
    suffix = f"-{writer}-000001{SEGMENT_SUFFIX}"
    profiles = []
    if not any(other.endswith(suffix) for other in listing):
        profiles = _group_profiles(group, name, files)
    if profiles:
        stamp = _stamp(profiles[0].created)
        _write_segment(root, f"{stamp:020d}{suffix}", profiles, fsync)
    for fname in [*files, V1_INDEX_NAME]:
        _unlink_quietly(os.path.join(group, fname))
    try:
        os.rmdir(group)
    except OSError:
        pass  # something else lives there: no group any more, left be
    return len(profiles)
