"""Embedded Mongo-like document database and the profile store on top.

The original Synapse pushes profiles into MongoDB.  Networked MongoDB is
not available here, so this module implements a small, faithful stand-in:

* :class:`MongoLite` — a database of named collections of JSON documents
  with Mongo-style queries (see :mod:`repro.storage.query`), optional
  file persistence, and — crucially — **MongoDB's 16 MB per-document
  limit**.  The paper calls this limit out explicitly (§4.5): it caps the
  number of samples a profile can hold and caused the largest E.1
  configuration to lose a sample.
* :class:`Collection` — one named collection.  It keeps no secondary
  index: every query scans its documents.  A ``version`` counter, bumped
  by every write, tells a reader whether anything changed since it last
  looked.
* :class:`MongoStore` — the :class:`~repro.storage.base.ProfileStore`
  backed by a ``MongoLite`` collection.  The ``(command, tags)`` search
  index (the paper's §4 search keys) is the base class's: this handle's
  writes and deletes update it, and it is rebuilt from the collection
  when another handle on the same ``MongoLite`` changed the collection.
  Query matching runs on the raw stored documents, so profiles are only
  deserialised for confirmed matches.  When a profile document exceeds
  the size limit the store truncates trailing samples until it fits and
  flags the stored profile ``truncated`` (strict mode raises instead).
  The marker plane (elastic heartbeats and leases) is a second
  collection, ``markers``, scanned by scope.

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
from repro.faults import inject
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


class Collection:
    """One named collection of documents inside a :class:`MongoLite`."""

    def __init__(self, name: str, limit_bytes: int = MAX_DOCUMENT_BYTES) -> None:
        self.name = name
        self.limit_bytes = limit_bytes
        self._docs: dict[int, dict[str, Any]] = {}
        self._next_id = 0
        #: Bumped by every write: equal versions, same documents.
        self.version = 0

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
        self.version += 1
        return doc_id

    def delete_many(self, query: Mapping[str, Any] | None = None) -> int:
        """Delete matching documents; returns the number removed."""
        match = compile_query(query)
        doomed = [doc_id for doc_id, doc in self._docs.items() if match(doc)]
        for doc_id in doomed:
            del self._docs[doc_id]
        if doomed:
            self.version += 1
        return len(doomed)

    # -- reads ------------------------------------------------------------------

    def find(self, query: Mapping[str, Any] | None = None) -> list[dict[str, Any]]:
        """All documents matching the Mongo-style query (insertion order)."""
        match = compile_query(query)
        return [dict(doc) for doc in self._docs.values() if match(doc)]

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


def _profile_entry(doc_id: int, doc: Mapping[str, Any]) -> StoreEntry:
    return StoreEntry(
        str(doc_id), doc["command"], tuple(doc.get("tags", ())),
        float(doc.get("created", 0.0)),
    )


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
        super().__init__()
        self.db = db if db is not None else MongoLite(limit_bytes=limit_bytes)
        self.collection = self.db.collection("profiles")
        self.collection.limit_bytes = limit_bytes
        self.strict = strict
        #: The collection version the index reflects (``None``: not built).
        self._seen: int | None = None
        #: The marker plane: its own collection, so heartbeats and leases
        #: never mix with profile documents.
        self.marks = self.db.collection("markers")

    def put(self, profile: Profile) -> str:
        return self.put_many((profile,))[0]

    def put_many(self, profiles) -> list[str]:
        """Persist a batch; the database file is dumped once, not per put."""
        with timed("store.put.seconds"):
            self._sync()
            ids = []
            for profile in profiles:
                inject("store.put", key=profile.command)
                doc_id = self.collection.insert_one(self._fit(profile).to_dict())
                self._index(_profile_entry(doc_id, self.collection.document(doc_id)))
                self._seen = self.collection.version
                ids.append(str(doc_id))
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
        """Remove one stored profile by id (unknown ids raise ``StoreError``)."""
        self._sync()
        doc_id = self._doc_id(pid)
        entry = _profile_entry(doc_id, self.collection.document(doc_id))
        self.collection.delete_many({"_id": doc_id})
        self._unindex(entry)
        self._seen = self.collection.version
        self.db.dump()

    def _doc_id(self, pid: str) -> int:
        """The document id of stored profile ``pid`` (``StoreError`` if none)."""
        try:
            doc_id = int(pid)
        except (TypeError, ValueError):
            doc_id = None
        if self.collection.document(doc_id) is None:
            raise StoreError(f"no stored profile {pid!r}")
        return doc_id

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
                f"{doc['_id']:012d}", doc["kind"], dict(doc["fields"]),
                float(doc["created"]),
            )
            for doc in self.marks.find({"scope": scope})
        ]

    def _delete_markers(self, ids):
        doomed = [int(mid) for mid in ids if str(mid).isdigit()]
        if doomed and self.marks.delete_many({"_id": {"$in": doomed}}):
            self.db.dump()

    # -- storage behind the base class's index --------------------------------

    def _sync(self) -> None:
        """Re-index the collection if a write did not come through this
        handle (another ``MongoStore`` on the same ``MongoLite``)."""
        if self._seen == self.collection.version:
            return
        self._by_key.clear()
        for doc_id in self.collection.ids():
            self._index(_profile_entry(doc_id, self.collection.document(doc_id)))
        self._seen = self.collection.version

    def _load_many(self, ids):
        return [
            Profile.from_dict(self.collection.document(self._doc_id(pid)))
            for pid in ids
        ]

    def _documents(self, ids):
        for pid in ids:
            doc = self.collection.document(self._doc_id(pid))
            # The raw stored document minus the store-private id: the
            # profile's dict form, without building the profile.
            yield pid, {key: value for key, value in doc.items() if key != "_id"}

    def _iter_profiles(self):
        for doc in self.collection.find():
            doc_id = doc.pop("_id")
            yield str(doc_id), Profile.from_dict(doc)
