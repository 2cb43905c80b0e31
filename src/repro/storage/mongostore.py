"""Embedded Mongo-like document database and the profile store on top.

The original Synapse pushes profiles into MongoDB.  Networked MongoDB is
not available here, so this module implements a small, faithful stand-in:

* :class:`MongoLite` — a database of named collections of JSON documents
  with Mongo-style queries (see :mod:`repro.storage.query`), optional
  file persistence, and — crucially — **MongoDB's 16 MB per-document
  limit**.  The paper calls this limit out explicitly (§4.5): it caps the
  number of samples a profile can hold and caused the largest E.1
  configuration to lose a sample.
* :class:`Collection` — supports **equality indexes**
  (:meth:`Collection.create_index`): a ``value -> [doc ids]`` map per
  indexed field, multikey over arrays exactly like MongoDB's array
  indexes, maintained on every insert/delete/replace.
* :class:`MongoStore` — the :class:`~repro.storage.base.ProfileStore`
  backed by a ``MongoLite`` collection.  It creates indexes on
  ``command`` and ``tags`` (the paper's §4 search keys); because the
  tags index is multikey over the full tag strings, campaign-ledger
  lookups by ``campaign=``/``cell=`` tags and tag-prefix
  scans resolve to index walks instead of collection scans, and query
  matching runs on the raw stored documents — profiles are only
  deserialised for confirmed matches.  When a profile document exceeds
  the size limit the store truncates trailing samples until it fits and
  flags the stored profile ``truncated`` (strict mode raises instead).
  The marker plane (elastic heartbeats and leases) is a second
  collection, ``markers``, indexed by scope.

A stored profile document is exactly the profile's
:meth:`~repro.core.samples.Profile.to_dict` — samples as a list of
per-sample documents, the shape MongoDB users query — and nothing else
writes one.  Unlike :class:`~repro.storage.filestore.FileStore`, which
keeps samples as binary columns, this store therefore pays a number per
sample and metric on every write and read; its size limit is measured
on that same document.
"""

from __future__ import annotations

import json
import os
from collections.abc import Mapping
from pathlib import Path
from typing import Any

from repro.core.errors import DocumentTooLargeError, StoreError
from repro.core.samples import Profile
from repro.core.tags import normalize_command, normalize_tags
from repro.storage.base import Marker, ProfileStore, StoreEntry
from repro.storage.query import compile_query
from repro.telemetry.metrics import timed

__all__ = [
    "MongoLite",
    "Collection",
    "MongoStore",
    "MAX_DOCUMENT_BYTES",
]

#: MongoDB's BSON document size limit (16 MB), as cited by the paper.
MAX_DOCUMENT_BYTES = 16 * 1024 * 1024

def document_bytes(document: Mapping[str, Any]) -> int:
    """Serialised size of a document (JSON stands in for BSON)."""
    return len(json.dumps(document).encode("utf-8"))


def _index_keys(value: Any) -> list[Any]:
    """Hashable index keys of one field value (multikey over arrays)."""
    if isinstance(value, (list, tuple)):
        items = value
    else:
        items = (value,)
    keys = []
    for item in items:
        try:
            hash(item)
        except TypeError:
            continue
        keys.append(item)
    return keys


class Collection:
    """One named collection of documents inside a :class:`MongoLite`."""

    def __init__(self, name: str, limit_bytes: int = MAX_DOCUMENT_BYTES) -> None:
        self.name = name
        self.limit_bytes = limit_bytes
        self._docs: dict[int, dict[str, Any]] = {}
        self._next_id = 0
        #: field -> value -> [doc ids] (insertion order preserved).
        self._indexes: dict[str, dict[Any, list[Any]]] = {}
        #: field -> [doc ids] whose value could not be hashed; always
        #: included in candidate sets so indexing never loses documents.
        self._unindexable: dict[str, list[Any]] = {}

    # -- indexes --------------------------------------------------------------

    def create_index(self, field: str) -> None:
        """Maintain an equality index on a top-level field.

        Array values are indexed per element (MongoDB's multikey
        behaviour) — exactly what profile ``tags`` need.  Idempotent.
        """
        if field in self._indexes:
            return
        self._indexes[field] = {}
        self._unindexable[field] = []
        for doc_id, doc in self._docs.items():
            self._index_field(field, doc_id, doc)

    def _index_add(self, doc_id: Any, doc: Mapping[str, Any]) -> None:
        for field in self._indexes:
            self._index_field(field, doc_id, doc)

    def _index_field(self, field: str, doc_id: Any, doc: Mapping[str, Any]) -> None:
        if field not in doc:
            return
        value = doc[field]
        keys = _index_keys(value)
        if not keys and not isinstance(value, (list, tuple)):
            self._unindexable[field].append(doc_id)
            return
        if isinstance(value, (list, tuple)) and len(keys) != len(value):
            self._unindexable[field].append(doc_id)
        index = self._indexes[field]
        for key in keys:
            index.setdefault(key, []).append(doc_id)

    def _index_remove(self, doc_id: Any, doc: Mapping[str, Any]) -> None:
        for field, index in self._indexes.items():
            if field not in doc:
                continue
            for key in _index_keys(doc[field]):
                ids = index.get(key)
                if ids is None:
                    continue
                try:
                    ids.remove(doc_id)
                except ValueError:
                    pass
                if not ids:
                    del index[key]
            unhashed = self._unindexable[field]
            if doc_id in unhashed:
                unhashed.remove(doc_id)

    def ids_with(self, field: str, value: Any) -> list[Any] | None:
        """Doc ids whose indexed ``field`` equals/contains ``value``.

        Returns ``None`` when no index exists on ``field`` (caller must
        scan).  Ids come back in insertion order, plus any documents the
        index could not cover.
        """
        index = self._indexes.get(field)
        if index is None:
            return None
        ids = list(index.get(value, ()))
        ids.extend(self._unindexable.get(field, ()))
        return ids

    def index_values(self, field: str, prefix: str = "") -> list[Any]:
        """Distinct indexed values of ``field`` (optionally by string
        prefix) without touching any document — the tag-prefix lookup
        behind ``cell=`` ledger scans."""
        index = self._indexes.get(field)
        if index is None:
            raise StoreError(f"no index on field {field!r} of {self.name!r}")
        if not prefix:
            return list(index)
        return [
            value
            for value in index
            if isinstance(value, str) and value.startswith(prefix)
        ]

    def ids(self) -> list[Any]:
        """All document ids, in insertion order."""
        return list(self._docs)

    def document(self, doc_id: Any) -> dict[str, Any] | None:
        """The raw stored document for one id (``None`` when absent).

        Returns the internal object for speed; callers must not mutate.
        """
        return self._docs.get(doc_id)

    # -- writes ---------------------------------------------------------------

    def insert_one(self, document: Mapping[str, Any]) -> int:
        """Insert a document; returns its ``_id``.

        Raises :class:`DocumentTooLargeError` when the serialised document
        exceeds the per-document limit (MongoDB behaviour).
        """
        doc = dict(document)
        size = document_bytes(doc)
        if size > self.limit_bytes:
            raise DocumentTooLargeError(
                f"document of {size} bytes exceeds the "
                f"{self.limit_bytes}-byte limit of collection {self.name!r}"
            )
        doc_id = doc.setdefault("_id", self._next_id)
        if doc_id in self._docs:
            raise StoreError(f"duplicate _id {doc_id!r} in collection {self.name!r}")
        self._next_id = max(self._next_id, int(doc_id) + 1) if isinstance(doc_id, int) else self._next_id + 1
        self._docs[doc_id] = doc
        self._index_add(doc_id, doc)
        return doc_id

    def insert_many(self, documents) -> list[int]:
        """Insert several documents; returns their ids."""
        return [self.insert_one(doc) for doc in documents]

    def delete_many(self, query: Mapping[str, Any] | None = None) -> int:
        """Delete matching documents; returns the number removed."""
        match = compile_query(query)
        doomed = [doc_id for doc_id, doc in self._docs.items() if match(doc)]
        for doc_id in doomed:
            self._index_remove(doc_id, self._docs[doc_id])
            del self._docs[doc_id]
        return len(doomed)

    def replace_one(self, query: Mapping[str, Any], document: Mapping[str, Any]) -> bool:
        """Replace the first matching document; returns True if replaced."""
        match = compile_query(query)
        for doc_id, doc in self._docs.items():
            if match(doc):
                new_doc = dict(document)
                new_doc["_id"] = doc_id
                size = document_bytes(new_doc)
                if size > self.limit_bytes:
                    raise DocumentTooLargeError(
                        f"replacement document of {size} bytes exceeds the limit"
                    )
                self._index_remove(doc_id, doc)
                self._docs[doc_id] = new_doc
                self._index_add(doc_id, new_doc)
                return True
        return False

    # -- reads ------------------------------------------------------------------

    def find(self, query: Mapping[str, Any] | None = None) -> list[dict[str, Any]]:
        """All documents matching the Mongo-style query (insertion order)."""
        match = compile_query(query)
        return [dict(doc) for doc in self._docs.values() if match(doc)]

    def find_one(self, query: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        """First matching document or ``None``."""
        match = compile_query(query)
        for doc in self._docs.values():
            if match(doc):
                return dict(doc)
        return None

    def count_documents(self, query: Mapping[str, Any] | None = None) -> int:
        """Number of matching documents."""
        match = compile_query(query)
        return sum(1 for doc in self._docs.values() if match(doc))

    def distinct(self, path: str) -> list[Any]:
        """Distinct values of a (dotted) field across all documents."""
        from repro.storage.query import get_path, _MISSING  # noqa: PLC0415

        seen: list[Any] = []
        for doc in self._docs.values():
            value = get_path(doc, path)
            if value is not _MISSING and value not in seen:
                seen.append(value)
        return seen

    # -- persistence ---------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Serialisable snapshot of the collection."""
        return {
            "name": self.name,
            "limit_bytes": self.limit_bytes,
            "docs": list(self._docs.values()),
            "next_id": self._next_id,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Collection":
        """Inverse of :meth:`to_dict` (keys it does not know — an older
        dump's ``ttls`` — are ignored)."""
        coll = cls(data["name"], int(data.get("limit_bytes", MAX_DOCUMENT_BYTES)))
        for doc in data.get("docs", []):
            coll._docs[doc["_id"]] = dict(doc)
        coll._next_id = int(data.get("next_id", len(coll._docs)))
        return coll


class MongoLite:
    """A tiny document database: named collections + optional persistence.

    ``path=None`` keeps everything in memory; otherwise :meth:`dump` /
    :meth:`load` round-trip the whole database through one JSON file.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        limit_bytes: int = MAX_DOCUMENT_BYTES,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.limit_bytes = limit_bytes
        self._collections: dict[str, Collection] = {}
        if self.path is not None and self.path.exists():
            self.load()

    def collection(self, name: str) -> Collection:
        """Get or create a collection."""
        if name not in self._collections:
            self._collections[name] = Collection(name, self.limit_bytes)
        return self._collections[name]

    def __getitem__(self, name: str) -> Collection:
        return self.collection(name)

    def collection_names(self) -> list[str]:
        """Names of all existing collections."""
        return sorted(self._collections)

    def drop_collection(self, name: str) -> None:
        """Remove a collection entirely (no-op when absent)."""
        self._collections.pop(name, None)

    def dump(self) -> None:
        """Persist the database to ``self.path`` (no-op when in-memory)."""
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {name: coll.to_dict() for name, coll in self._collections.items()}
        tmp = self.path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, self.path)

    def load(self) -> None:
        """Load the database from ``self.path``."""
        if self.path is None or not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as handle:
            payload = json.load(handle)
        self._collections = {
            name: Collection.from_dict(data) for name, data in payload.items()
        }


class MongoStore(ProfileStore):
    """Profile store backed by a :class:`MongoLite` collection.

    Parameters
    ----------
    db:
        Existing database, or ``None`` for a fresh in-memory one.
    limit_bytes:
        Per-document size limit; defaults to MongoDB's 16 MB.
    strict:
        When True, oversized profiles raise
        :class:`DocumentTooLargeError`; when False (default, matching the
        paper's observed behaviour) trailing samples are dropped until the
        document fits and the stored profile is flagged ``truncated``.
    """

    def __init__(
        self,
        db: MongoLite | None = None,
        limit_bytes: int = MAX_DOCUMENT_BYTES,
        strict: bool = False,
    ) -> None:
        self.db = db if db is not None else MongoLite(limit_bytes=limit_bytes)
        self.collection = self.db.collection("profiles")
        self.collection.limit_bytes = limit_bytes
        self.strict = strict
        self.collection.create_index("command")
        self.collection.create_index("tags")
        #: The marker plane: its own collection, indexed by scope, so
        #: heartbeats and leases never mix with profile documents.
        self.marks = self.db.collection("markers")
        self.marks.create_index("scope")

    def put(self, profile: Profile) -> str:
        with timed("store.put.seconds"):
            stored = self._fit(profile)
            doc = stored.to_dict()
            doc_id = self.collection.insert_one(doc)
            self.db.dump()
        return str(doc_id)

    def put_many(self, profiles) -> list[str]:
        """Persist a batch; the database file is dumped once, not per put."""
        with timed("store.put.seconds"):
            ids = [
                str(self.collection.insert_one(self._fit(profile).to_dict()))
                for profile in profiles
            ]
            self.db.dump()
        return ids

    def _fit(self, profile: Profile) -> Profile:
        """Truncate a profile's samples until its document fits the limit."""
        limit = self.collection.limit_bytes
        if profile.document_size() <= limit:
            return profile
        if self.strict:
            raise DocumentTooLargeError(
                f"profile document of {profile.document_size()} bytes exceeds "
                f"the {limit}-byte document limit"
            )
        # Binary-search the largest sample count that still fits.
        low, high = 0, profile.n_samples
        while low < high:
            mid = (low + high + 1) // 2
            if profile.truncate(mid).document_size() <= limit:
                low = mid
            else:
                high = mid - 1
        truncated = profile.truncate(low)
        if truncated.document_size() > limit:
            raise DocumentTooLargeError(
                "profile metadata alone exceeds the document limit"
            )
        return truncated

    def samples_dropped(self, profile: Profile) -> int:
        """How many samples :meth:`put` would drop for this profile."""
        return profile.n_samples - self._fit_count(profile)

    def _fit_count(self, profile: Profile) -> int:
        try:
            return self._fit(profile).n_samples
        except DocumentTooLargeError:
            return 0

    def delete(self, pid: str) -> None:
        """Remove one stored profile by id."""
        removed = self.collection.delete_many({"_id": int(pid)})
        if not removed:
            raise StoreError(f"no stored profile {pid!r}")
        self.db.dump()

    # -- marker plane ---------------------------------------------------------

    def _put_markers(self, scope, kind, rows, created):
        ids: list[int] = []
        try:
            for fields in rows:
                ids.append(self.marks.insert_one({
                    "scope": scope, "kind": kind, "fields": fields,
                    "created": created,
                }))
        except StoreError:  # oversized document: all rows or none
            self.marks.delete_many({"_id": {"$in": ids}})
            raise
        self.db.dump()
        # Zero-padded so the ``(created, id)`` order is insertion order.
        return [f"{doc_id:012d}" for doc_id in ids]

    def _markers(self, scope):
        return [
            Marker(
                f"{doc_id:012d}", doc["kind"], dict(doc["fields"]),
                float(doc["created"]),
            )
            for doc_id in self.marks.ids_with("scope", scope)
            for doc in (self.marks.document(doc_id),)
            if doc is not None
        ]

    def _delete_markers(self, ids):
        doomed = [int(mid) for mid in ids if str(mid).isdigit()]
        if doomed and self.marks.delete_many({"_id": {"$in": doomed}}):
            self.db.dump()

    # -- indexed fast paths ---------------------------------------------------

    def _candidate_docs(
        self, command: object, tags: object
    ) -> list[tuple[Any, dict[str, Any]]]:
        """``(doc_id, raw doc)`` candidates in insertion order.

        Prunes through the command/tags indexes, then verifies the
        filter on the raw documents (covers multikey false positives and
        unindexable leftovers) — no profile deserialisation.
        """
        want_command = normalize_command(command) if command is not None else None
        wanted = normalize_tags(tags)
        id_lists: list[list[Any]] = []
        if want_command is not None:
            ids = self.collection.ids_with("command", want_command)
            if ids is not None:
                id_lists.append(ids)
        for tag in wanted:
            ids = self.collection.ids_with("tags", tag)
            if ids is not None:
                id_lists.append(ids)
        if id_lists:
            # Walk the rarest list; membership-check the rest.
            id_lists.sort(key=len)
            first, rest = id_lists[0], [set(ids) for ids in id_lists[1:]]
            candidate_ids = [
                doc_id
                for doc_id in dict.fromkeys(first)
                if all(doc_id in other for other in rest)
            ]
        else:
            candidate_ids = self.collection.ids()
        wanted_set = set(wanted)
        candidates: list[tuple[Any, dict[str, Any]]] = []
        for doc_id in candidate_ids:
            doc = self.collection.document(doc_id)
            if doc is None:
                continue
            if want_command is not None and doc.get("command") != want_command:
                continue
            if wanted_set and not wanted_set <= set(doc.get("tags", ())):
                continue
            candidates.append((doc_id, doc))
        return candidates

    def entries(
        self, command: object = None, tags: object = None
    ) -> list[StoreEntry]:
        with timed("store.entries.seconds"):
            found = [
                StoreEntry(
                    str(doc_id),
                    doc["command"],
                    tuple(doc.get("tags", ())),
                    float(doc.get("created", 0.0)),
                )
                for doc_id, doc in self._candidate_docs(command, tags)
            ]
            found.sort(key=lambda entry: entry.created)
        return found

    def get_many(self, ids) -> list[Profile]:
        with timed("store.get.seconds"):
            profiles = []
            for pid in ids:
                try:
                    doc = self.collection.document(int(pid))
                except (TypeError, ValueError):
                    doc = None
                if doc is None:
                    raise StoreError(f"no stored profile {pid!r}")
                profiles.append(Profile.from_dict(doc))
        return profiles

    def find(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[Profile]:
        with timed("store.find.seconds"):
            matcher = compile_query(query) if query is not None else None
            found: list[tuple[float, int, Profile]] = []
            for position, (doc_id, doc) in enumerate(
                self._candidate_docs(command, tags)
            ):
                if matcher is not None:
                    # Match the raw stored document (minus the store-private
                    # id, mirroring the profile's dict form) — built once per
                    # candidate and reused across every query branch.
                    probe = {key: value for key, value in doc.items() if key != "_id"}
                    if not matcher(probe):
                        continue
                found.append(
                    (float(doc.get("created", 0.0)), position, Profile.from_dict(doc))
                )
            found.sort(key=lambda item: item[:2])
        return [profile for _created, _position, profile in found]

    # -- brute-force reference ------------------------------------------------

    def _iter_profiles(self):
        for doc in self.collection.find():
            doc_id = doc.pop("_id")
            yield str(doc_id), Profile.from_dict(doc)
