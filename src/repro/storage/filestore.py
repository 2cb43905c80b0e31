"""File-based profile storage: one immutable segment per ``put``/``put_many``.

The paper notes file-based storage "poses no limit on the number of
samples" (§4.5) — unlike the Mongo backend — and that property is
preserved here: documents are streamed to disk one at a time.

File layout::

    <root>/<created-ns>-<writer>-<seq>.seg           # one per put/put_many call
    <root>/<created-ns>-<writer>-<seq>.seg.<n>.del   # tombstone of its record n
    <root>/.markers/<scope-hash>/<created-ns>-<writer>-<seq>,<kind>,<k>=<v>,...

``created-ns`` is the first profile's creation stamp, ``writer`` a
per-store token (PID plus random suffix) and ``seq`` a per-store counter:
several processes — or several stores in one process — writing in the
same nanosecond produce distinct names instead of clobbering each other.

Segments
--------

A segment holds the profiles of one ``put``/``put_many`` call: one JSON
record per line, then one *index line* — ``{"version": 3, "records":
[...]}`` with a ``{"command", "tags", "created", "sum", "offset",
"length"}`` row per record — then a fixed-width footer,
``synapse-segment-index@<offset of the index line, 20 digits>``.

A record is the profile's :meth:`~repro.core.samples.Profile.to_dict`
document except for ``samples``, which is a *columns object*: the
:class:`~repro.core.samples.SampleTable` as ``{"metrics": [...],
"watchers": [...], "index", "t", "dt", "values", "times"}`` (plus
``"has_values"`` / ``"has_times"`` when the samples are ragged), every
array base64 of its little-endian bytes — int64 ``index``, float64
``t``/``dt``/``values``/``times`` (row-major ``(samples, metrics)`` and
``(samples, watchers)``), one byte per cell for the masks.  Binary
columns are exact for every float, NaN, ±inf, −0.0 and subnormals
included, and a read decodes them with ``np.frombuffer`` instead of
parsing a number per sample and metric.

Version 3 is the only format written or read.  An index line with any
other version reads as no segment at all, except for the two older
layouts, which a query refuses with a :class:`~repro.core.errors.StoreError`
saying the layout is no longer read: a *v2 segment*, whose index line is
a bare JSON list of rows, and a *v1 group*, a non-dot directory holding
``*.json`` profile files or an ``index.jsonl`` journal.  Commit
``8cf855c`` is the last whose ``repro --store file://ROOT migrate``
rewrites them as v3.  ``find(query=...)`` matches every record in its
``to_dict`` shape.

A segment is written to ``<name>.seg.tmp``, renamed into place and
never changed afterwards, so a segment is either absent or complete: a
call lands all of its profiles or none (a retried campaign wave cannot
half-land), a failed call unlinks its tmp file and leaves the root as it
was, and a crash leaves nothing worse than ``*.tmp`` debris, which
every reader ignores.  A ``.seg`` file without a valid footer
(truncated behind the store's back) reads as absent.
``durability="fsync"`` costs one file and one directory fsync per call.

Record ids are ``<segment file name>/<n>``, ``n`` zero-padded, so
``(created, id)`` order is write order; a profile whose ``created`` is
not a finite stamp is refused with :class:`~repro.core.errors.StoreError`
and nothing is written.  ``sum`` is the blake2b-128 of the record's
exact bytes: every payload read of a record re-hashes them against it
and raises :class:`~repro.core.errors.CorruptArtifactError` on mismatch
(bit rot, a torn overwrite, tampering), emitting a ``store.corrupt``
event.  Bytes that hash right but do not decode (a writer's bug: a torn
column, a record that is not JSON) raise the same error.

Every query takes one names-only listing of the root (the store's
``_sync``) and brings a cache of index lines (keyed by segment name;
immutable, so never re-read) in line with it: unknown segments are
loaded, vanished ones dropped, new tombstones applied, and each record
that lands or leaves is handed to the ``(command, tags)`` search index
:class:`~repro.storage.base.ProfileStore` keeps.  Because validation
compares listings rather than timestamps, a rival writer's segment is
visible to every reader's next query even within one
filesystem-timestamp tick — the invariant the shared campaign ledger
depends on.  No payload is opened until a match is confirmed.

``delete`` of a segment's last live record unlinks the segment and
sweeps its tombstones; any other delete drops a zero-byte
``O_CREAT|O_EXCL`` tombstone (the marker plane's trick: the name is the
record, creation is atomic, a second delete of the same record fails).
A crash in between leaves tombstones without a segment, which mean
nothing: segment names are never reused.

Marker plane (``.markers/``)
----------------------------

Markers (elastic-campaign heartbeats and leases; see
:class:`~repro.storage.base.Marker`) are **zero-byte files** whose name
is the record: creation stamp, writer token and sequence number (the
same collision-free prefix segments use), then the kind and the
``key=value`` fields, each percent-escaped so arbitrary strings — ``/``,
``~``, ``.``, commas, newlines — cannot break the name apart or out of
the directory.  ``scope-hash`` identifies the marker scope (a campaign
name).  A write is one ``O_CREAT|O_EXCL`` open, a scan is one
listing of the scope directory — never cached, so it is fresh
across handles and processes by construction — and a delete is one
``unlink``.  There is no journal or index to maintain,
and nothing to reconcile after a crash: a marker exists exactly when
its file does.  A record too long for one file name (255 bytes) keeps
its kind and fields in the file body instead: the name ends in ``,@``
and the body is written before an atomic rename, so a scan never sees
it half-written.  An elastic wave's lease is one marker naming all its
cells (``cell=<digest>.<digest>...``): a wave of eight under a
generated worker name takes ≈ 215 bytes, and one of more than about ten
cells (fewer under a long worker name) spills.  Markers are heartbeats,
not data: ``durability="fsync"`` does not apply to them (a marker lost
to a power cut is a dropped heartbeat).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import secrets
from collections.abc import Mapping
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence
from urllib.parse import quote, unquote
from weakref import WeakKeyDictionary

import numpy as np

from repro.core.errors import ConfigError, CorruptArtifactError, StoreError
from repro.core.samples import Profile, SampleTable
from repro.faults import inject
from repro.storage.base import Marker, ProfileStore, StoreEntry
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry, timed
from repro.watchers.base import PerRow, PerRowMap

__all__ = ["FileStore"]

#: File name suffixes of segments, tombstones and in-flight writes.
SEGMENT_SUFFIX = ".seg"
TOMBSTONE_SUFFIX = ".del"
TMP_SUFFIX = ".tmp"

#: Last line of every segment: where its index line starts.
_FOOTER = b"synapse-segment-index@%020d\n"
_FOOTER_LEN = len(_FOOTER % 0)

#: The segment format :meth:`FileStore.put_many` writes.
FORMAT_VERSION = 3

#: ``json.dumps`` without the cycle check: a record is a tree.
_dumps = json.JSONEncoder(check_circular=False).encode

#: Directory under the store root holding the marker plane.
MARKER_DIR = ".markers"

#: Longest file name the marker plane will create (``NAME_MAX`` on every
#: mainstream filesystem); longer records spill to the file body.
MARKER_NAME_MAX = 255

#: Name suffix of a marker whose kind and fields live in the file body.
_SPILLED = "@"

#: ``(created, id)``: ids sort by segment name, then record, which is
#: the reference scan's order.
_WRITE_ORDER = itemgetter(3, 0)


class _Record(NamedTuple):
    """Where one live profile is and what its bytes must hash to."""

    entry: StoreEntry
    sum: str
    offset: int
    length: int


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _create_exclusive(path: str | os.PathLike) -> None:
    """Create a zero-byte file whose name is the record; fails if it exists."""
    os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644))


def _payload_sum(data: bytes) -> str:
    """Integrity digest of one stored document's exact bytes."""
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def _stamp(created: float) -> int:
    """A profile's creation stamp in nanoseconds, as names carry it."""
    try:
        return int(created * 1e9)
    except (OverflowError, TypeError, ValueError) as exc:
        raise StoreError(
            f"cannot store a profile created at {created!r}: not a finite stamp"
        ) from exc


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype)).decode("ascii")


def _unb64(text: str, dtype: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text, validate=True), dtype)


#: A v3 record, its columns object included, with a slot per part.
_RECORD = (
    '{"command": %s, "tags": %s, "machine": %s, "config": %s, "sample_rate": %s, '
    '"samples": {"metrics": %s, "watchers": %s, "index": "%s", "t": "%s", '
    '"dt": "%s", "values": "%s", "times": "%s"%s}, "statics": %s, "info": %s, '
    '"truncated": %s, "created": %s}'
)


#: Per profile block, by document name, its pieces (:func:`_pieces`).
_BLOCK_PIECES: WeakKeyDictionary[Any, dict[str, list[Any]]] = WeakKeyDictionary()


def _pieces(template: Any) -> Iterator[Any]:
    """A block's document as :data:`_dumps` writes it, in pieces: the
    text every row shares (a shared ``None``, which ``row_of`` drops,
    left out) and, per value picked per row, its :class:`PerRow` — or
    the list of its texts when they are numbers, encoded all at once."""
    if type(template) is PerRow:
        numbers = all(type(value) is int or type(value) is float for value in template)
        yield _dumps(template)[1:-1].split(", ") if numbers else template
    elif type(template) is not PerRowMap:
        yield _dumps(template)
    else:
        separator = "{"
        for key, value in template.items():
            if value is not None:
                # An object key is a string: ``{0: x}`` is written ``{"0": x}``.
                key = _dumps(key) if type(key) is str else _dumps({key: None})[1:-7]
                yield f"{separator}{key}: "
                yield from _pieces(value)
                separator = ", "
        yield "}" if separator == ", " else "{}"


def _part(profile: Profile, name: str) -> str:
    """``_dumps`` of the profile's document ``name`` (or column names):
    from its block's pieces, encoded once, while the row has not read it."""
    unread = profile.unread(name)
    if unread is None:
        names = name in ("metrics", "watchers")
        return _dumps(getattr(profile.samples if names else profile, name))
    block, row = unread
    by_name = _BLOCK_PIECES.setdefault(block, {})
    pieces = by_name.get(name)
    if pieces is None:
        pieces = by_name[name] = []
        for piece in _pieces(block.documents[name]):
            if type(piece) is str and pieces and type(pieces[-1]) is str:
                pieces[-1] += piece
            else:
                pieces.append(piece)
    parts = []
    for piece in pieces:
        if type(piece) is PerRow:
            if piece[row] is None:  # not in this row's document: write it whole
                return _dumps(block.document(name, row))
            piece = _dumps(piece[row])
        elif type(piece) is list:
            piece = piece[row]
        parts.append(piece)
    return "".join(parts)


def _record(profile: Profile) -> bytes:
    """A profile's v3 record, written a part at a time: its own, its
    block's (:func:`_part`) and the columns, base64 text which JSON
    quotes as it is.  The bytes are those of encoding the whole
    document in one call."""
    samples = profile.samples
    masks = "".join(
        f', "{name}": "{_b64(mask, "u1")}"'
        for name, mask in (("has_values", samples.has_values), ("has_times", samples.has_times))
        if mask is not None
    )
    return (_RECORD % (
        _dumps(profile.command), _dumps(profile.tags), _part(profile, "machine"),
        _part(profile, "config"), _dumps(profile.sample_rate),
        _part(profile, "metrics"), _part(profile, "watchers"),
        _b64(samples.index, "<i8"), _b64(samples.t, "<f8"), _b64(samples.dt, "<f8"),
        _b64(samples.values, "<f8"), _b64(samples.times, "<f8"), masks,
        _part(profile, "statics"), _part(profile, "info"),
        _dumps(profile.truncated), _dumps(profile.created),
    )).encode("utf-8")


def _decode_samples(samples: Mapping[str, Any]) -> SampleTable:
    """A v3 record's columns object as a table."""
    metrics, watchers = samples["metrics"], samples["watchers"]
    index = _unb64(samples["index"], "<i8")
    by_metric = (index.size, len(metrics))
    by_watcher = (index.size, len(watchers))
    has_values, has_times = samples.get("has_values"), samples.get("has_times")
    return SampleTable(
        metrics, watchers, index,
        _unb64(samples["t"], "<f8"),
        _unb64(samples["dt"], "<f8"),
        _unb64(samples["values"], "<f8").reshape(by_metric),
        _unb64(samples["times"], "<f8").reshape(by_watcher),
        None if has_values is None else _unb64(has_values, "u1").reshape(by_metric),
        None if has_times is None else _unb64(has_times, "u1").reshape(by_watcher),
    )


def _decode(pid: str, data: bytes, expected: str | None) -> dict[str, Any]:
    """One record's document, its columns object decoded into a table.

    The bytes are first re-hashed against the digest recorded with them
    (``None``: none to check); a mismatch is **fatal** — re-reading
    corrupt bytes returns the same corrupt bytes — so it raises
    :class:`CorruptArtifactError` instead of a retryable
    :class:`StoreError`, and so do bytes that are not a record.
    """
    actual = _payload_sum(data)
    if expected is not None and actual != expected:
        get_registry().inc("store.corrupt")
        get_bus().event(
            "store.corrupt", level="error", id=pid, expected=expected, actual=actual,
        )
        raise CorruptArtifactError(
            f"stored profile {pid!r} failed its integrity check: recorded "
            f"blake2b {expected}, stored bytes hash to {actual}"
        )
    try:
        doc = json.loads(data)
        doc["samples"] = _decode_samples(doc["samples"])  # TypeError unless an object
        return doc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptArtifactError(
            f"stored profile {pid!r} is not a readable record: {exc!r}"
        ) from exc


def _tombstone(pid: str) -> str:
    """Root entry whose existence deletes segment record ``pid``."""
    return pid.replace("/", ".") + TOMBSTONE_SUFFIX


def _is_v1_group(root: str | os.PathLike, name: str) -> bool:
    """Whether root entry ``name`` is a v1 group: a non-dot directory
    holding profile files or their journal."""
    if name.startswith(".") or name.endswith(
        (SEGMENT_SUFFIX, TOMBSTONE_SUFFIX, TMP_SUFFIX)
    ):
        return False
    try:
        held = os.listdir(os.path.join(root, name))
    except OSError:  # a file, or gone
        return False
    return any(n.endswith(".json") or n == "index.jsonl" for n in held)


def _refused(root: str | os.PathLike, name: str) -> StoreError:
    """The refusal of a root entry in an older on-disk layout."""
    return StoreError(
        f"{os.path.join(root, name)} is in an on-disk layout that is no longer "
        f"read; commit 8cf855c is the last whose `repro --store file://{root} "
        f"migrate` rewrites it as v3"
    )


def _read_index(root: str | os.PathLike, name: str) -> list[_Record]:
    """The records of root entry ``name``; none unless it is a complete
    v3 segment.

    A missing file, a missing or malformed footer, a footer pointing
    outside the file, an index line of another version and one that
    does not describe records inside the file all read as "no segment
    here".  This is the one check on the older layouts: a v1 group and
    a complete v2 segment (a bare list of rows) raise :func:`_refused`.
    """
    if not name.endswith(SEGMENT_SUFFIX):
        if _is_v1_group(root, name):
            raise _refused(root, name)
        return []
    try:
        with open(os.path.join(root, name), "rb") as handle:
            body = handle.seek(0, os.SEEK_END) - _FOOTER_LEN
            if body < 0:
                return []
            handle.seek(body)
            footer = handle.read(_FOOTER_LEN)
            at = int(footer[-21:])
            if footer != _FOOTER % at or not 0 <= at < body:
                return []
            handle.seek(at)
            index = json.loads(handle.read(body - at))
            old = not isinstance(index, dict)  # v2: a bare list of rows
            if not old:
                version = index.get("version")
                index = index["records"] if version == FORMAT_VERSION else []
            records = [
                _Record(
                    StoreEntry(
                        f"{name}/{n:06d}", str(row["command"]),
                        tuple(str(tag) for tag in row["tags"]), float(row["created"]),
                    ),
                    str(row["sum"]), int(row["offset"]), int(row["length"]),
                )
                for n, row in enumerate(index)
            ]
    except (OSError, ValueError, KeyError, TypeError):
        return []
    if not records or any(
        r.offset < 0 or r.length < 0 or r.offset + r.length > at for r in records
    ):
        return []
    if old:
        raise _refused(root, name)
    return records


def _write_segment(
    root: str | os.PathLike, name: str, profiles: Iterable[Profile], fsync: bool
) -> tuple[list[_Record], int]:
    """Write ``profiles`` as v3 segment ``name``; returns its records
    and its size in bytes.

    All or nothing: the segment is written to ``<name>.tmp`` and renamed
    over ``name`` once every record, the index line and the footer are
    in it; a failure on the way — a profile whose ``created`` is not a
    finite stamp is one — unlinks the tmp file.
    """
    path = os.path.join(root, name)
    tmp = path + TMP_SUFFIX
    records: list[_Record] = []
    end = 0
    try:
        with open(tmp, "wb") as handle:
            for profile in profiles:
                inject("store.put", key=profile.command)
                _stamp(profile.created)
                data = _record(profile)
                handle.write(data)
                handle.write(b"\n")
                entry = StoreEntry(
                    f"{name}/{len(records):06d}",
                    profile.command, profile.tags, profile.created,
                )
                records.append(_Record(entry, _payload_sum(data), end, len(data)))
                end += len(data) + 1
            index = [
                {
                    "command": entry.command, "tags": entry.tags,
                    "created": entry.created, "sum": digest,
                    "offset": offset, "length": length,
                }
                for entry, digest, offset, length in records
            ]
            index_line = _dumps(
                {"version": FORMAT_VERSION, "records": index}
            ).encode("utf-8") + b"\n"
            handle.write(index_line)
            handle.write(_FOOTER % end)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        _unlink_quietly(tmp)
        if isinstance(exc, OSError):
            raise StoreError(f"cannot write segment {path}: {exc}") from exc
        raise
    if fsync:
        _fsync_dir(root)
    return records, end + len(index_line) + _FOOTER_LEN


def _fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory entry (rename/create) to stable storage."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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


class FileStore(ProfileStore):
    """Profile store rooted at a directory (created on demand).

    Queries are index-first: the cached segment index is validated
    against a names-only listing of the root, the command/tag filter is
    answered by the base class's index, and profile payloads are parsed
    only for confirmed candidates.
    """

    #: Accepted ``durability`` modes (see ``__init__``).
    DURABILITY_MODES = ("default", "fsync")

    _order = staticmethod(_WRITE_ORDER)

    def __init__(
        self, root: str | os.PathLike, durability: str = "default"
    ) -> None:
        """``durability="fsync"`` makes :meth:`put`/:meth:`put_many`
        crash-durable: the segment is fsynced before the atomic rename
        and the root directory entry after it — a power loss after the
        call returns cannot tear or lose its profiles.  The default
        leaves flushing to the OS (atomic renames already prevent torn
        reads; a crash can only lose the very last writes)."""
        if durability not in self.DURABILITY_MODES:
            raise ConfigError(
                f"unknown FileStore durability {durability!r}; expected "
                f"one of {self.DURABILITY_MODES}"
            )
        super().__init__()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durability = durability
        self._seq = 0
        self._writer = f"{os.getpid():x}{secrets.token_hex(4)}"
        #: Root entries as of the last listing, plus this store's writes.
        self._listing: set[str] = set()
        #: Segment file name -> its live records by id.  A segment with
        #: nothing live (or nothing readable) keeps an empty dict, so it
        #: is not loaded again.
        self._files: dict[str, dict[str, _Record]] = {}

    # -- writes ---------------------------------------------------------------

    def put(self, profile: Profile) -> str:
        return self.put_many((profile,))[0]

    def put_many(self, profiles: Sequence[Profile] | Iterable[Profile]) -> list[str]:
        """Store a batch of profiles as one segment; returns their ids.

        All or nothing (:func:`_write_segment`); an empty batch writes
        nothing.
        """
        with timed("store.put.seconds"):
            batch = iter(profiles)
            first = next(batch, None)
            if first is None:
                return []
            stamp = _stamp(first.created)
            self._seq += 1
            name = f"{stamp:020d}-{self._writer}-{self._seq:06d}{SEGMENT_SUFFIX}"
            records, size = _write_segment(
                self.root, name, chain((first,), batch), self.durability == "fsync"
            )
            self._listing.add(name)
            self._files[name] = {}
            for record in records:
                self._add(name, record)
            registry = get_registry()
            registry.inc("store.put.records", len(records))
            registry.inc("store.put.bytes", size)
        return [record.entry.id for record in records]

    def delete(self, pid: str) -> None:
        """Remove one stored profile by the id :meth:`put` returned.

        A segment's last live record takes the segment file (and its
        tombstones) with it; any other record gets a tombstone.
        """
        self._sync()
        container = pid.rpartition("/")[0]
        live = self._files.get(container, {})
        record = live.get(pid)
        try:
            if record is None:
                raise FileNotFoundError(pid)
            if len(live) > 1:
                name = _tombstone(pid)
                _create_exclusive(os.path.join(self.root, name))
                self._listing.add(name)
            else:
                os.unlink(os.path.join(self.root, container))
                swept = [n for n in self._listing if n.startswith(container + ".")]
                for name in swept:
                    _unlink_quietly(os.path.join(self.root, name))
                self._listing.difference_update(swept, [container])
                del self._files[container]
        except (FileNotFoundError, FileExistsError) as exc:
            raise StoreError(f"no stored profile {pid!r}") from exc
        except OSError as exc:
            raise StoreError(f"cannot delete profile {pid!r}: {exc}") from exc
        self._forget(live, pid)

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
        try:
            _create_exclusive(scope_dir / name)
        except FileNotFoundError:  # first marker of this scope
            scope_dir.mkdir(parents=True, exist_ok=True)
            _create_exclusive(scope_dir / name)

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

    # -- the cached segment index ---------------------------------------------

    def _add(self, container: str, record: _Record) -> None:
        self._files[container][record.entry.id] = record
        self._index(record.entry)

    def _forget(self, live: dict[str, _Record], pid: str) -> int:
        """Drop one record from the cached index (``0`` if not held)."""
        record = live.pop(pid, None)
        if record is None:
            return 0
        self._unindex(record.entry)
        return 1

    def _drop(self, container: str) -> int:
        """Drop a vanished segment; returns records dropped."""
        live = self._files.pop(container)
        return sum(self._forget(live, pid) for pid in list(live))

    def _sync(self) -> None:
        """Bring the cached index in line with one listing of the root.

        Names only: segments are immutable, so a name seen before is
        never opened again.  A new name in an older on-disk layout — a
        v2 segment, a v1 group — raises :class:`StoreError`, and does so
        again on every later call while it is there.
        """
        try:
            listing = set(os.listdir(self.root))
        except OSError:
            listing = set()
        moved = 0  # records loaded from, or dropped after, what is on disk
        if listing != self._listing:
            for name in self._files.keys() - listing:
                moved += self._drop(name)
            fresh = listing - self._listing
            for name in sorted(fresh):
                if name.endswith(SEGMENT_SUFFIX):
                    moved += self._load_segment(name, listing)
                elif name.endswith(TOMBSTONE_SUFFIX):
                    segment, _, n = name[: -len(TOMBSTONE_SUFFIX)].rpartition(".")
                    moved += self._forget(
                        self._files.get(segment, {}), f"{segment}/{n}"
                    )
                else:
                    _read_index(self.root, name)  # refuses a v1 group
            self._listing = listing
        get_registry().inc("store.index.miss" if moved else "store.index.hit")

    def _load_segment(self, name: str, listing: set[str]) -> int:
        get_registry().inc("store.segments.loaded")
        records = _read_index(self.root, name)
        # A refresh cut short by a refusal may have loaded it already.
        moved = self._drop(name) if name in self._files else 0
        self._files[name] = {}
        for record in records:
            if _tombstone(record.entry.id) not in listing:
                self._add(name, record)
        return moved + len(self._files[name])

    # -- payload plane --------------------------------------------------------

    def _docs(self, pids: Iterable[str]) -> Iterator[tuple[str, dict[str, Any]]]:
        """``(pid, decoded document)`` of live records, each read,
        verified against its recorded sum and decoded.

        Grouped by file, so each segment is opened at most once however
        many of its records are wanted.
        """
        by_file: dict[str, list[_Record]] = {}
        for pid in pids:
            container = pid.rpartition("/")[0]
            record = self._files.get(container, {}).get(pid)
            if record is None:
                raise StoreError(f"no stored profile {pid!r}")
            by_file.setdefault(container, []).append(record)
        for fname, records in by_file.items():
            path = os.path.join(self.root, fname)
            try:
                with open(path, "rb") as handle:
                    for record in records:
                        handle.seek(record.offset)
                        data = handle.read(record.length)
                        yield record.entry.id, _decode(
                            record.entry.id, data, record.sum
                        )
            except FileNotFoundError as exc:
                raise StoreError(
                    f"no stored profile {records[0].entry.id!r}"
                ) from exc
            except OSError as exc:
                raise StoreError(f"cannot read {path}: {exc}") from exc

    def _load_many(self, ids):
        docs = dict(self._docs(ids))
        return [Profile.from_dict(docs[pid]) for pid in ids]

    def _documents(self, ids):
        for pid, doc in self._docs(ids):
            doc["samples"] = doc["samples"].to_dicts()
            yield pid, doc

    # -- brute-force reference ------------------------------------------------

    def _iter_profiles(self):
        """Every live profile, straight off the disk (no cached index, no sums)."""
        names = sorted(os.listdir(self.root))
        tombstones = {name for name in names if name.endswith(TOMBSTONE_SUFFIX)}
        for name in names:
            records = _read_index(self.root, name)
            if not records:
                continue
            path = os.path.join(self.root, name)
            try:
                with open(path, "rb") as handle:
                    for record in records:
                        pid = record.entry.id
                        if _tombstone(pid) in tombstones:
                            continue
                        handle.seek(record.offset)
                        doc = _decode(pid, handle.read(record.length), None)
                        yield pid, Profile.from_dict(doc)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                raise StoreError(f"corrupt profile file {path}: {exc}") from exc
