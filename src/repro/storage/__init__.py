"""Profile persistence: file-based, in-memory and Mongo-like stores.

The paper's profiler writes profiles "on disk or in a MongoDB database"
(§4).  :func:`open_store` resolves a store URL:

* ``memory://``            — volatile in-process store;
* ``file:///some/dir``     — one segment file per put (no sample limit;
  :mod:`repro.storage.migrate` rewrites older on-disk formats);
* ``mongo:///some/file``   — embedded Mongo-like DB (16 MB document limit);
* ``mongo://``             — in-memory Mongo-like DB (still limit-enforcing).

``file://`` URLs accept a ``?durability=fsync`` query — every put is
flushed to stable storage before returning (see
:class:`~repro.storage.filestore.FileStore`).
"""

from __future__ import annotations

from repro.core.errors import StoreError
from repro.storage.base import Marker, MemoryStore, ProfileStore, StoreEntry
from repro.storage.filestore import FileStore
from repro.storage.mongostore import MAX_DOCUMENT_BYTES, Collection, MongoLite, MongoStore
from repro.storage.query import compile_query

__all__ = [
    "Collection",
    "FileStore",
    "MAX_DOCUMENT_BYTES",
    "Marker",
    "MemoryStore",
    "MongoLite",
    "MongoStore",
    "ProfileStore",
    "StoreEntry",
    "compile_query",
    "open_store",
]


def open_store(url: str) -> ProfileStore:
    """Open a profile store from a URL string (see module docstring)."""
    if url == "memory://":
        return MemoryStore()
    if url.startswith("file://"):
        path = url[len("file://"):]
        durability = "default"
        if "?" in path:
            path, _, query = path.partition("?")
            if query.startswith("durability="):
                durability = query[len("durability="):]
            elif query:
                raise StoreError(f"unknown file:// store option {query!r}")
        if not path:
            raise StoreError("file:// store needs a directory path")
        return FileStore(path, durability=durability)
    if url.startswith("mongo://"):
        path = url[len("mongo://"):]
        db = MongoLite(path or None)
        return MongoStore(db)
    raise StoreError(f"unknown store url {url!r}")
