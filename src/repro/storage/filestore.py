"""File-based profile storage with a per-group sidecar index.

One JSON document per profile, stored under a root directory.  The paper
notes file-based storage "poses no limit on the number of samples"
(§4.5) — unlike the Mongo backend — and that property is preserved here.

File layout::

    <root>/<key-hash>/<created-ns>-<writer>-<seq>.json   # one profile each
    <root>/<key-hash>/index.jsonl                        # sidecar index
    <root>/.markers/<scope-hash>/<created-ns>-<writer>-<seq>,<kind>,<k>=<v>,...

where ``key-hash`` identifies the ``(command, tags)`` group.  ``writer``
is a per-store token (PID plus random suffix): several processes — or
several stores in one process — writing the same group in the same
nanosecond produce distinct filenames instead of silently clobbering
each other (the per-store sequence number alone restarts from zero in
every new process).

Sidecar index (``index.jsonl``)
-------------------------------

Each group carries an append-only journal with one JSON line per stored
profile::

    {"id": "<key-hash>/<file>.json", "command": ..., "tags": [...],
     "created": ..., "sum": "<blake2b-128 of the payload bytes>"}

``put``/``put_many`` append a line after writing the profile file, so
queries answer "which profiles match this command/tag filter" from the
index alone — no profile payload is opened until a match is confirmed.
The ``sum`` field is the integrity record: the first payload read of a
profile (cache misses only — the decoded-payload LRU never re-verifies)
re-hashes the file bytes against it and raises
:class:`~repro.core.errors.CorruptArtifactError` on mismatch (bit rot,
a torn overwrite, tampering), emitting a ``store.corrupt`` event.
Journal lines written before this field existed verify-on-first-read
instead: the computed digest is adopted and checked thereafter.
The journal is advisory, never authoritative: the ``*.json`` files in
the group directory are the truth, and every index load re-lists the
directory (names only, via ``scandir``) and reconciles:

* profile files missing from the journal (a writer crashed between the
  rename and the append, or a concurrent writer's append is mid-flight)
  are *healed* — their metadata is read once and journal-appended;
* journal lines whose file is gone (deleted profiles) are dropped;
* corrupt/truncated lines (torn concurrent appends, partial disk
  writes) are skipped and trigger a compacting rewrite of the journal.

Because validation compares directory listings rather than timestamps,
a second writer appending to a group is visible to every reader's next
query even within one filesystem-timestamp tick — the invariant the
sharded-campaign ledger depends on.  A group's ``(command, tags)``
identity is immutable (the directory name is its hash), so groups ruled
out by a query's command/tag filter are pruned from cache without any
directory I/O.

Marker plane (``.markers/``)
----------------------------

Markers (elastic-campaign heartbeats and leases; see
:class:`~repro.storage.base.Marker`) are **zero-byte files** whose name
is the record: creation stamp, writer token and sequence number (the
same collision-free prefix profile files use), then the kind and the
``key=value`` fields, each percent-escaped so arbitrary strings — ``/``,
``~``, ``.``, commas, newlines — cannot break the name apart or out of
the directory.  ``scope-hash`` identifies the marker scope (a campaign
name).  A write is one ``O_CREAT|O_EXCL`` open, a scan is one
listing of the scope directory — never cached, so it is fresh
across handles and processes by construction — and a delete is one
``unlink``.  There is no journal, index or group directory to maintain,
and nothing to reconcile after a crash: a marker exists exactly when
its file does.  A record too long for one file name (255 bytes) keeps
its kind and fields in the file body instead: the name ends in ``,@``
and the body is written before an atomic rename, so a scan never sees
it half-written.  Markers are heartbeats, not data: ``durability="fsync"``
does not apply to them (a marker lost to a power cut is a dropped
heartbeat).  Dot-directories under the root are never profile groups.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from bisect import insort
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence
from urllib.parse import quote, unquote

from repro.core.errors import ConfigError, CorruptArtifactError, StoreError
from repro.core.samples import Profile
from repro.core.tags import normalize_command, normalize_tags
from repro.faults import inject
from repro.storage.base import Marker, ProfileStore, StoreEntry
from repro.storage.query import compile_query
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry, timed

__all__ = ["FileStore", "INDEX_NAME", "PAYLOAD_CACHE_SIZE"]

#: Name of the per-group sidecar index journal.
INDEX_NAME = "index.jsonl"

#: Decoded-payload LRU capacity (documents, not bytes).  Profile files
#: are immutable once renamed into place, so a cached parse stays valid
#: for as long as the ``(mtime_ns, size)`` stat signature matches.
PAYLOAD_CACHE_SIZE = 512

#: Directory under the store root holding the marker plane.
MARKER_DIR = ".markers"

#: Longest file name the marker plane will create (``NAME_MAX`` on every
#: mainstream filesystem); longer records spill to the file body.
MARKER_NAME_MAX = 255

#: Name suffix of a marker whose kind and fields live in the file body.
_SPILLED = "@"


def _key_hash(command: str, tags: tuple[str, ...]) -> str:
    payload = json.dumps([command, list(tags)]).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def _payload_sum(data: bytes) -> str:
    """Integrity digest of one profile file's exact bytes."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _marker_name(stem: str, kind: str, fields: Mapping[str, str]) -> str:
    """File name of one marker (see the module docstring's layout).

    ``quote(..., safe="")`` leaves only ``A-Za-z0-9_.-~`` bare, so the
    ``,`` / ``=`` / ``@`` separators can never come from a value.
    """
    parts = [stem, quote(kind, safe="")]
    parts += [f"{quote(k, safe='')}={quote(v, safe='')}" for k, v in fields.items()]
    return ",".join(parts)


def _parse_marker(scope_hash: str, name: str, scope_dir: Path) -> Marker | None:
    """The marker a file name encodes (``None`` for anything else)."""
    stem, sep, rest = name.partition(",")
    stamp = stem.partition("-")[0]
    if not sep or not stamp.isdigit():
        return None  # a writer's in-flight spill file, or a stranger
    try:
        if rest == _SPILLED:
            kind, fields = json.loads((scope_dir / name).read_text(encoding="utf-8"))
        else:
            kind, _, packed = rest.partition(",")
            kind = unquote(kind)
            fields = {
                unquote(key): unquote(value)
                for key, _, value in (
                    pair.partition("=") for pair in packed.split(",") if pair
                )
            }
    except (OSError, ValueError, TypeError):
        return None  # deleted under the scan, or torn by a stranger
    return Marker(f"{scope_hash}/{name}", kind, fields, int(stamp) / 1e9)


@dataclass
class _GroupIndex:
    """Cached view of one group directory: identity + live files."""

    command: str
    tags: tuple[str, ...]
    #: ``(filename, created)`` for every live profile, filename-sorted
    #: (filenames start with the creation timestamp, so this is also
    #: write order within one writer).
    entries: list[tuple[str, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        #: Kept beside ``tags``/``entries`` so a query neither rebuilds
        #: the tag set per filter test nor the name set per validation.
        self.tagset = frozenset(self.tags)
        self.names = {name for name, _created in self.entries}

    def add(self, name: str, created: float) -> None:
        insort(self.entries, (name, created))
        self.names.add(name)

    def discard(self, name: str) -> None:
        if name in self.names:
            self.names.remove(name)
            self.entries = [entry for entry in self.entries if entry[0] != name]


class FileStore(ProfileStore):
    """Profile store rooted at a directory (created on demand).

    Queries are index-first: group directories are pruned by their
    cached ``(command, tags)`` identity, surviving groups are validated
    against a names-only directory listing, and profile payloads are
    parsed only for confirmed candidates (lazily —
    ``find(query=...)`` matches the raw stored document and only builds
    :class:`~repro.core.samples.Profile` objects for accepted ones).
    """

    #: Accepted ``durability`` modes (see ``__init__``).
    DURABILITY_MODES = ("default", "fsync")

    def __init__(
        self, root: str | os.PathLike, durability: str = "default"
    ) -> None:
        """``durability="fsync"`` makes :meth:`put` crash-durable: the
        profile file is fsynced before the atomic rename, the group
        directory entry after it, and journal appends before returning —
        a power loss after ``put`` returns cannot tear or lose the
        profile.  The default leaves flushing to the OS (atomic renames
        already prevent torn reads; a crash can only lose the very last
        writes)."""
        if durability not in self.DURABILITY_MODES:
            raise ConfigError(
                f"unknown FileStore durability {durability!r}; expected "
                f"one of {self.DURABILITY_MODES}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self._seq = 0
        self._writer = f"{os.getpid():x}{secrets.token_hex(4)}"
        self._groups: dict[str, _GroupIndex] = {}
        #: pid -> ((mtime_ns, size), decoded document), LRU-ordered.
        self._payloads: OrderedDict[str, tuple[tuple[int, int], dict[str, Any]]] = (
            OrderedDict()
        )
        #: pid -> expected payload digest (own writes + journal loads).
        self._sums: dict[str, str] = {}
        #: Groups whose journal is mid-load: heal-path payload reads must
        #: not re-enter ``_group_index`` for them (see ``_cached_doc``).
        self._loading: set[str] = set()

    def _fsync_dir(self, path: Path) -> None:
        """Flush a directory entry (rename/create) to stable storage."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # platform without directory fds
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- writes ---------------------------------------------------------------

    def put(self, profile: Profile) -> str:
        with timed("store.put.seconds"):
            group = self.root / _key_hash(profile.command, profile.tags)
            group.mkdir(parents=True, exist_ok=True)
            pid = self._write(group, profile)
            self._journal_append(group, [(pid, profile)])
        return pid

    def put_many(self, profiles: Sequence[Profile] | Iterable[Profile]) -> list[str]:
        """Store a batch of profiles; returns their ids in order.

        Group directories are created and journal appends flushed once
        per distinct ``(command, tags)`` key instead of once per profile
        — the batch counterpart of :meth:`put` for experiment fan-out
        (``spawn_many`` replays, campaign waves, repeated profiling).
        """
        with timed("store.put.seconds"):
            profiles = list(profiles)
            groups: dict[str, Path] = {}
            written: dict[str, list[tuple[str, Profile]]] = {}
            ids: list[str] = []
            for profile in profiles:
                key = _key_hash(profile.command, profile.tags)
                group = groups.get(key)
                if group is None:
                    group = self.root / key
                    group.mkdir(parents=True, exist_ok=True)
                    groups[key] = group
                pid = self._write(group, profile)
                written.setdefault(key, []).append((pid, profile))
                ids.append(pid)
            for key, items in written.items():
                self._journal_append(groups[key], items)
        return ids

    def _write(self, group: Path, profile: Profile) -> str:
        self._seq += 1
        name = f"{int(profile.created * 1e9):020d}-{self._writer}-{self._seq:06d}.json"
        path = group / name
        tmp = path.with_suffix(".tmp")
        data = json.dumps(profile.to_dict()).encode("utf-8")
        # One retry after re-creating the group: a reader's empty-group
        # GC (see _load_group_index) may rmdir the directory between our
        # mkdir and this first write.
        inject("store.put", key=profile.command)
        for attempt in (0, 1):
            try:
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    if self.durability == "fsync":
                        handle.flush()
                        os.fsync(handle.fileno())
                os.replace(tmp, path)
                if self.durability == "fsync":
                    self._fsync_dir(group)
                break
            except OSError as exc:  # vanished group, disk full, permissions, ...
                if attempt == 0 and not group.is_dir():
                    group.mkdir(parents=True, exist_ok=True)
                    continue
                raise StoreError(f"cannot write profile to {path}: {exc}") from exc
        pid = str(path.relative_to(self.root))
        self._sums[pid] = _payload_sum(data)
        return pid

    @staticmethod
    def _journal_line(
        pid: str,
        command: str,
        tags: tuple[str, ...],
        created: float,
        digest: str | None = None,
    ) -> str:
        """One sidecar index record (see the module docstring's layout)."""
        row: dict[str, Any] = {
            "id": pid, "command": command, "tags": list(tags), "created": created,
        }
        if digest is not None:
            row["sum"] = digest
        return json.dumps(row) + "\n"

    def _journal_append(self, group: Path, items: list[tuple[str, Profile]]) -> None:
        """Append index lines for freshly written profiles (best-effort).

        The profile files are authoritative; a failed or torn append is
        healed by the next index load, so journal trouble never fails a
        ``put``.
        """
        lines = "".join(
            self._journal_line(
                pid, profile.command, profile.tags, profile.created,
                digest=self._sums.get(pid),
            )
            for pid, profile in items
        )
        try:
            # Inside the best-effort boundary: an injected OSError
            # (``"error": "os"`` rules) exercises the journal-loss
            # healing path without failing the put.
            inject("store.journal", key=group.name)
            with open(group / INDEX_NAME, "a", encoding="utf-8") as handle:
                handle.write(lines)
                if self.durability == "fsync":
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError:
            pass
        cached = self._groups.get(group.name)
        if cached is not None:
            for pid, profile in items:
                cached.add(pid.rpartition("/")[2], profile.created)

    def delete(self, pid: str) -> None:
        """Remove one stored profile by the id :meth:`put` returned.

        The journal line is left behind: the cached index just forgets
        the entry (the mirror of ``_journal_append``'s in-place insert),
        and the next cold load of the group drops lines whose file is
        gone and compacts them away.  Only a group emptied by the delete
        leaves the cache, so the next query's cold load garbage-collects
        its directory.
        """
        path = self.root / pid
        try:
            path.unlink()
        except FileNotFoundError as exc:
            raise StoreError(f"no stored profile {pid!r}") from exc
        gname = path.parent.name
        cached = self._groups.get(gname)
        if cached is not None:
            cached.discard(path.name)
            if not cached.entries:
                del self._groups[gname]
        self._payloads.pop(pid, None)
        self._sums.pop(pid, None)

    # -- marker plane ---------------------------------------------------------

    def _scope_dir(self, scope: str) -> tuple[str, Path]:
        scope_hash = hashlib.sha256(scope.encode("utf-8")).hexdigest()[:16]
        return scope_hash, self.root / MARKER_DIR / scope_hash

    def _put_markers(self, scope, kind, rows, created):
        scope_hash, scope_dir = self._scope_dir(scope)
        stamp = f"{int(created * 1e9):020d}-{self._writer}"
        written: list[str] = []
        try:
            for fields in rows:
                self._seq += 1
                stem = f"{stamp}-{self._seq:06d}"
                name = _marker_name(stem, kind, fields)
                if len(name) > MARKER_NAME_MAX:
                    name = self._spill_marker(scope_dir, stem, kind, fields)
                else:
                    self._create_marker(scope_dir, name)
                written.append(name)
        except OSError as exc:
            for name in written:  # all rows or none
                (scope_dir / name).unlink(missing_ok=True)
            raise StoreError(f"cannot write marker under {scope_dir}: {exc}") from exc
        return [f"{scope_hash}/{name}" for name in written]

    @staticmethod
    def _create_marker(scope_dir: Path, name: str) -> None:
        flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
        try:
            fd = os.open(scope_dir / name, flags, 0o644)
        except FileNotFoundError:  # first marker of this scope
            scope_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(scope_dir / name, flags, 0o644)
        os.close(fd)

    @staticmethod
    def _spill_marker(
        scope_dir: Path, stem: str, kind: str, fields: Mapping[str, str]
    ) -> str:
        """Write a marker whose record outgrew one file name."""
        name = f"{stem},{_SPILLED}"
        scope_dir.mkdir(parents=True, exist_ok=True)
        tmp = scope_dir / f".{stem}.tmp"
        try:
            tmp.write_text(json.dumps([kind, fields]), encoding="utf-8")
            os.replace(tmp, scope_dir / name)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
        return name

    def _markers(self, scope):
        scope_hash, scope_dir = self._scope_dir(scope)
        try:
            names = os.listdir(scope_dir)
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise StoreError(f"cannot scan markers under {scope_dir}: {exc}") from exc
        parsed = (_parse_marker(scope_hash, name, scope_dir) for name in names)
        return [marker for marker in parsed if marker is not None]

    def _delete_markers(self, ids):
        base = self.root / MARKER_DIR
        for mid in ids:
            try:
                os.unlink(base / mid)
            except FileNotFoundError:
                pass
            except OSError as exc:
                raise StoreError(f"cannot delete marker {mid!r}: {exc}") from exc

    # -- index plane ----------------------------------------------------------

    def _group_dirs(self) -> list[str]:
        try:
            with os.scandir(self.root) as it:
                return sorted(
                    entry.name
                    for entry in it
                    if not entry.name.startswith(".") and entry.is_dir()
                )
        except OSError:
            return []

    def _group_index(self, gname: str) -> _GroupIndex | None:
        """Validated index of one group (``None`` when empty/unreadable).

        Always re-lists the directory (names only) and reuses the cached
        parse when the live file set is unchanged; otherwise reloads and
        reconciles the journal.
        """
        group = self.root / gname
        try:
            with os.scandir(group) as it:
                names = sorted(
                    entry.name
                    for entry in it
                    if entry.name.endswith(".json") and entry.is_file()
                )
        except OSError:
            self._groups.pop(gname, None)
            return None
        cached = self._groups.get(gname)
        if (
            cached is not None
            and len(cached.entries) == len(names)
            and cached.names.issuperset(names)
        ):
            get_registry().inc("store.index.hit")
            return cached
        get_registry().inc("store.index.miss")
        self._loading.add(gname)
        try:
            index = self._load_group_index(group, names)
        finally:
            self._loading.discard(gname)
        if index is not None:
            self._groups[gname] = index
        else:
            self._groups.pop(gname, None)
        return index

    def _load_group_index(
        self, group: Path, names: list[str]
    ) -> _GroupIndex | None:
        """Parse + reconcile one group's journal against its live files."""
        known: dict[str, tuple[str, tuple[str, ...], float, str | None]] = {}
        dirty = False  # corrupt lines or stale entries -> compact
        try:
            with open(group / INDEX_NAME, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                        name = str(row["id"]).rpartition("/")[2]
                        digest = row.get("sum")
                        record = (
                            str(row["command"]),
                            tuple(str(tag) for tag in row["tags"]),
                            float(row["created"]),
                            str(digest) if digest is not None else None,
                        )
                    except (ValueError, KeyError, TypeError):
                        dirty = True  # torn append / partial write
                        continue
                    known.setdefault(name, record)
        except FileNotFoundError:
            pass
        except OSError:
            dirty = True
        live = set(names)
        if set(known) - live:
            dirty = True  # deleted profiles left stale journal lines
        # Adopt the journal's integrity digests before any payload read
        # below, so healing verifies against them where they exist.
        for name, record in known.items():
            if record[3] is not None and name in live:
                self._sums.setdefault(f"{group.name}/{name}", record[3])
        missing = [name for name in names if name not in known]
        healed: dict[str, tuple[str, tuple[str, ...], float, str | None]] = {}
        for name in missing:
            # Only the index fields are needed — read them off the raw
            # document instead of deserialising every sample.  Healing
            # goes through the payload cache so a follow-up ``get`` of
            # the same profile reuses this parse (and records the file's
            # digest, journal-appended with the healed line).
            pid = f"{group.name}/{name}"
            doc = self._cached_doc(pid)
            healed[name] = (
                str(doc["command"]),
                tuple(str(tag) for tag in doc.get("tags", ())),
                float(doc.get("created", 0.0)),
                self._sums.get(pid),
            )
        if not live:
            # Garbage-collect a dead group (every profile deleted — e.g.
            # a cleaned-up campaign claim): drop the stale journal and
            # the directory itself so future queries stop re-scanning
            # it.  A concurrent writer reviving the group wins the race:
            # rmdir fails on a non-empty directory, and ``_write``
            # re-creates a directory GC'd out from under it and retries.
            try:
                (group / INDEX_NAME).unlink(missing_ok=True)
                os.rmdir(group)
            except OSError:
                pass
            return None
        merged = {name: known.get(name) or healed[name] for name in names}
        first = merged[names[0]]
        index = _GroupIndex(
            command=first[0],
            tags=first[1],
            entries=[(name, merged[name][2]) for name in names],
        )
        if dirty:
            self._journal_rewrite(group, merged)
        elif healed:
            self._journal_append_records(group, healed)
        return index

    def _journal_append_records(
        self,
        group: Path,
        records: Mapping[str, tuple[str, tuple[str, ...], float, str | None]],
    ) -> None:
        lines = "".join(
            self._journal_line(f"{group.name}/{name}", command, tags, created, digest)
            for name, (command, tags, created, digest) in records.items()
        )
        try:
            with open(group / INDEX_NAME, "a", encoding="utf-8") as handle:
                handle.write(lines)
        except OSError:
            pass

    def _journal_rewrite(
        self,
        group: Path,
        records: Mapping[str, tuple[str, tuple[str, ...], float, str | None]],
    ) -> None:
        """Atomically compact the journal to exactly the live records.

        A concurrent writer's append racing this rewrite can lose its
        line, never its profile file — the next load heals the journal.
        """
        tmp = group / f"{INDEX_NAME}.{self._writer}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                for name in sorted(records):
                    command, tags, created, digest = records[name]
                    handle.write(
                        self._journal_line(
                            f"{group.name}/{name}", command, tags, created, digest
                        )
                    )
            os.replace(tmp, group / INDEX_NAME)
        except OSError:
            tmp.unlink(missing_ok=True)

    def _matching_groups(
        self, command: object, tags: object
    ) -> list[tuple[str, _GroupIndex]]:
        """Group indexes surviving the command/tag filter, name-sorted.

        A group's identity is immutable, so cached non-matching groups
        are pruned without any directory I/O; only matching (or not yet
        cached) groups pay the names-only listing.
        """
        want_command = normalize_command(command) if command is not None else None
        wanted = set(normalize_tags(tags))

        def matches_filter(index: _GroupIndex) -> bool:
            if want_command is not None and index.command != want_command:
                return False
            return wanted <= index.tagset

        survivors: list[tuple[str, _GroupIndex]] = []
        for gname in self._group_dirs():
            cached = self._groups.get(gname)
            if cached is not None and not matches_filter(cached):
                continue
            index = self._group_index(gname)
            if index is not None and matches_filter(index):
                survivors.append((gname, index))
        return survivors

    def entries(
        self, command: object = None, tags: object = None
    ) -> list[StoreEntry]:
        inject("store.entries")
        with timed("store.entries.seconds"):
            found = [
                StoreEntry(f"{gname}/{name}", index.command, index.tags, created)
                for gname, index in self._matching_groups(command, tags)
                for name, created in index.entries
            ]
        # Ids are ``<group>/<file>`` with fixed-width components, so the
        # (created, id) sort reproduces the reference scan's order:
        # created oldest-first, ties in directory-walk order.
        found.sort(key=lambda entry: (entry.created, entry.id))
        return found

    # -- payload plane --------------------------------------------------------

    def _read_doc(self, pid: str, path: Path) -> dict[str, Any]:
        """Read + integrity-check + parse one profile file.

        The file's bytes are re-hashed against the digest the sidecar
        journal (or this store's own ``put``) recorded; a mismatch is
        **fatal** — re-reading corrupt bytes returns the same corrupt
        bytes — so it raises :class:`CorruptArtifactError` instead of a
        retryable :class:`StoreError`.  Files without a recorded digest
        (journals predating the ``sum`` field) adopt the computed one,
        pinning all subsequent reads.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError as exc:
            raise StoreError(
                f"no stored profile {str(path.relative_to(self.root))!r}"
            ) from exc
        except OSError as exc:
            raise StoreError(f"corrupt profile file {path}: {exc}") from exc
        actual = _payload_sum(data)
        expected = self._sums.get(pid)
        if expected is None:
            self._sums[pid] = actual
        elif actual != expected:
            get_registry().inc("store.corrupt")
            get_bus().event(
                "store.corrupt", level="error", id=pid,
                expected=expected, actual=actual,
            )
            raise CorruptArtifactError(
                f"stored profile {pid!r} failed its integrity check: journal "
                f"recorded blake2b {expected}, file bytes hash to {actual}"
            )
        try:
            return json.loads(data)
        except (ValueError, UnicodeDecodeError) as exc:
            raise StoreError(f"corrupt profile file {path}: {exc}") from exc

    def _cached_doc(self, pid: str) -> dict[str, Any]:
        """Decoded document of one profile, via the payload LRU.

        Profile files never change in place (writes are rename-only), so
        a ``(mtime_ns, size)`` stat signature decides reuse: a match
        skips open+parse (and integrity verification) entirely; any
        mismatch — or a replaced file — re-reads, re-verifies and
        refreshes the cache.  Callers must not mutate the returned
        document (``Profile.from_dict`` copies what it keeps).
        """
        path = self.root / pid
        try:
            st = os.stat(path)
            sig = (st.st_mtime_ns, st.st_size)
        except OSError:
            sig = None
        if sig is not None:
            cached = self._payloads.get(pid)
            if cached is not None and cached[0] == sig:
                self._payloads.move_to_end(pid)
                get_registry().inc("store.payload.hit")
                return cached[1]
        get_registry().inc("store.payload.miss")
        # A direct ``get`` of an id this store never wrote or indexed
        # (cross-process reads) loads the group journal first so its
        # recorded digest — not trust-on-first-read — judges the bytes.
        gname = pid.partition("/")[0]
        if (
            pid not in self._sums
            and gname not in self._groups
            and gname not in self._loading
        ):
            self._group_index(gname)
        doc = self._read_doc(pid, path)
        if sig is not None:
            self._payloads[pid] = (sig, doc)
            self._payloads.move_to_end(pid)
            while len(self._payloads) > PAYLOAD_CACHE_SIZE:
                self._payloads.popitem(last=False)
        return doc

    def get_many(self, ids) -> list[Profile]:
        ids = list(ids)
        if ids:
            inject("store.get", key=str(ids[0]))
        with timed("store.get.seconds"):
            return [Profile.from_dict(self._cached_doc(pid)) for pid in ids]

    def find(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[Profile]:
        with timed("store.find.seconds"):
            matcher = compile_query(query) if query is not None else None
            found: list[tuple[float, str, Profile]] = []
            for gname, index in self._matching_groups(command, tags):
                for name, created in index.entries:
                    pid = f"{gname}/{name}"
                    doc = self._cached_doc(pid)
                    if matcher is not None and not matcher(doc):
                        continue
                    found.append((created, pid, Profile.from_dict(doc)))
            found.sort(key=lambda item: item[:2])
        return [profile for _created, _pid, profile in found]

    def find_ids(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[str]:
        if query is None:
            return [entry.id for entry in self.entries(command, tags)]
        matcher = compile_query(query)
        found = [
            (created, f"{gname}/{name}")
            for gname, index in self._matching_groups(command, tags)
            for name, created in index.entries
            if matcher(self._cached_doc(f"{gname}/{name}"))
        ]
        found.sort()
        return [pid for _created, pid in found]

    # -- brute-force reference ------------------------------------------------

    def _iter_profiles(self):
        for group in sorted(self.root.iterdir()):
            if group.name.startswith(".") or not group.is_dir():
                continue
            for path in sorted(group.glob("*.json")):
                try:
                    with open(path, encoding="utf-8") as handle:
                        data = json.load(handle)
                except (OSError, json.JSONDecodeError) as exc:
                    raise StoreError(f"corrupt profile file {path}: {exc}") from exc
                yield str(path.relative_to(self.root)), Profile.from_dict(data)
