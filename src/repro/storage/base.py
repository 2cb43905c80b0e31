"""Profile store protocol, its one search index, and the in-memory store.

Stores index profiles by their ``(command, tags)`` search key, exactly as
the paper describes (§4): the profile method "stores the results on disk
or in a MongoDB database; the application startup command and custom tags
are used as search index".

Three access planes, one contract:

* **Payload plane** — :meth:`ProfileStore.find` / :meth:`get` /
  :meth:`get_many` return full :class:`~repro.core.samples.Profile`
  objects (samples and all); :meth:`ProfileStore.scan` reads many of
  them a chunk at a time.
* **Index plane** — :meth:`ProfileStore.entries` / :meth:`ids_for` /
  :meth:`find_ids` / :meth:`count` / :meth:`keys` answer "which profiles
  match" from the ``(command, tags)`` index as lightweight
  :class:`StoreEntry` records, *without* deserialising profile payloads.
  Campaign ledgers and placement lookups live on this plane.
* **Marker plane** — :meth:`ProfileStore.put_markers` /
  :meth:`markers` / :meth:`delete_markers` hold payload-free,
  short-lived coordination records (:class:`Marker`: a kind, a few
  string fields, a creation stamp) grouped under a *scope*.  Elastic
  campaigns keep their heartbeats and leases here.  Markers are not
  profiles: no document-plane call (``entries``, ``count``, ``find``,
  ...) ever sees one, and a marker scan is fresh across handles and
  processes by construction — it never answers from a cache.

:class:`ProfileStore` owns the index and answers both query planes once
for every backend: the ``(command, tags)`` map, its filter (command
exactly, tags as a subset), the one order (``created``, ties in write
order), the ``store.entries`` / ``store.get`` fault points and the
``store.{entries,get,find}.seconds`` timers.  A backend keeps only
storage: its writes and deletes tell the index what landed or left
(:meth:`~ProfileStore._index` / :meth:`~ProfileStore._unindex`),
:meth:`~ProfileStore._sync` brings the index in line with what other
handles changed, :meth:`~ProfileStore._load_many` loads payloads and
:meth:`~ProfileStore._documents` hands ``find(query=...)`` each
candidate in its ``to_dict`` shape, so a rejected candidate never
becomes a :class:`~repro.core.samples.Profile`.

:class:`ReferenceScan` is not a default but the correctness reference:
it answers the same queries by loading and testing every profile
through :meth:`ProfileStore._iter_profiles`.  The store test suite
pins the indexed answers to it.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from typing import Any, NamedTuple

from repro.core.errors import ProfileNotFoundError, StoreError
from repro.core.samples import Profile
from repro.core.tags import normalize_command, normalize_tags, tags_match
from repro.faults import inject
from repro.storage.query import compile_query
from repro.telemetry.metrics import get_registry, timed

__all__ = ["Marker", "ProfileStore", "MemoryStore", "ReferenceScan", "StoreEntry"]


class StoreEntry(NamedTuple):
    """One profile's index record: identity without the payload."""

    #: Store-assigned id, usable with :meth:`ProfileStore.get_many`.
    id: str
    command: str
    tags: tuple[str, ...]
    created: float


class Marker(NamedTuple):
    """One payload-free coordination record (see the marker plane)."""

    #: Store-assigned id, usable with :meth:`ProfileStore.delete_markers`.
    id: str
    kind: str
    fields: dict[str, str]
    created: float


#: Profiles one :meth:`ProfileStore.scan` step reads, and so the most a
#: scan holds at once.
SCAN_CHUNK = 64


def _entry(pid: str, profile: Profile) -> StoreEntry:
    return StoreEntry(pid, profile.command, profile.tags, profile.created)


def _counter_order(entry: StoreEntry) -> tuple[float, int, str]:
    """Oldest first, ties in write order for ids ending in a decimal
    counter behind a fixed prefix (the shorter id is the older)."""
    return entry.created, len(entry.id), entry.id


def _key_counts(entries: Iterable[StoreEntry]) -> list[tuple[str, tuple[str, ...], int]]:
    groups = Counter((entry.command, entry.tags) for entry in entries)
    return sorted((command, tags, n) for (command, tags), n in groups.items())


class ProfileStore(ABC):
    """Common interface of the file-based and Mongo-like profile stores."""

    #: Sort key of the one order every query answers in: ``created``,
    #: ties in write order — the reference scan's order.  A backend whose
    #: ids are not counters overrides it.
    _order = staticmethod(_counter_order)

    def __init__(self) -> None:
        #: (command, tags) -> (tags as a set, live entries by id).
        self._by_key: dict[
            tuple[str, tuple[str, ...]], tuple[frozenset[str], dict[str, StoreEntry]]
        ] = {}

    @abstractmethod
    def put(self, profile: Profile) -> str:
        """Persist a profile; returns its store-assigned id.

        Implementations may mutate-by-copy (e.g. truncate samples to fit a
        document size limit); the stored object is what :meth:`find`
        returns later, which may differ from the argument.
        """

    def put_many(self, profiles) -> list[str]:
        """Persist a batch of profiles; returns their ids in order.

        The default stores one by one; implementations may batch (the
        file store writes the whole batch as one all-or-nothing segment).
        """
        return [self.put(profile) for profile in profiles]

    # -- what a backend provides ----------------------------------------------

    @abstractmethod
    def _iter_profiles(self):
        """Yield ``(id, Profile)`` pairs for all stored profiles, in
        write order.

        This is the brute-force full scan; it deserialises every stored
        payload and exists only for :class:`ReferenceScan`.
        """

    @abstractmethod
    def _load_many(self, ids: list[str]) -> list[Profile]:
        """Payloads of ``ids``, in the order given; an unknown id raises
        :class:`~repro.core.errors.StoreError`."""

    @abstractmethod
    def _documents(self, ids: list[str]) -> Iterable[tuple[str, Mapping[str, Any]]]:
        """``(id, document)`` of live ``ids`` in any order, each document
        in the profile's ``to_dict`` shape, without building a
        :class:`~repro.core.samples.Profile`."""

    def _sync(self) -> None:
        """Bring the index in line with the backing medium.

        Nothing to do by default: every change went through this handle.
        """

    # -- the search index -----------------------------------------------------

    def _index(self, entry: StoreEntry) -> None:
        """A profile landed."""
        held = self._by_key.get((entry.command, entry.tags))
        if held is None:
            held = self._by_key[entry.command, entry.tags] = (frozenset(entry.tags), {})
        held[1][entry.id] = entry

    def _unindex(self, entry: StoreEntry) -> None:
        """A profile left."""
        key = (entry.command, entry.tags)
        held = self._by_key[key][1]
        del held[entry.id]
        if not held:
            del self._by_key[key]

    def _matching(self, command: object, tags: object) -> list[StoreEntry]:
        """Live entries passing the command/tag filter, in the one order."""
        self._sync()
        want_command = normalize_command(command) if command is not None else None
        wanted = set(normalize_tags(tags))
        found: list[StoreEntry] = []
        for (held_command, _tags), (tagset, held) in self._by_key.items():
            if (want_command is None or held_command == want_command) and wanted <= tagset:
                found.extend(held.values())
        found.sort(key=self._order)
        return found

    def _accepted(self, ids: list[str], query: Mapping[str, Any]) -> list[str]:
        """The ``ids`` whose document matches ``query``, order kept."""
        matcher = compile_query(query)
        kept = {pid for pid, doc in self._documents(ids) if matcher(doc)}
        return [pid for pid in ids if pid in kept]

    # -- marker plane (payload-free coordination records) ---------------------

    def put_markers(
        self,
        scope: str,
        kind: str,
        rows: Iterable[Mapping[str, Any]],
        created: float | None = None,
    ) -> list[str]:
        """Write one marker per row under ``scope``; returns their ids.

        Each row is a small mapping of fields (keys and values are
        stored as strings); every marker of the batch carries the same
        ``created`` stamp (default: now).  A batch that fails leaves no
        marker behind.  Fires the ``store.put`` fault point with key
        ``marker:<kind>``, so chaos plans aimed at store writes reach
        lease and heartbeat traffic too.
        """
        fields = [{str(k): str(v) for k, v in row.items()} for row in rows]
        stamp = time.time() if created is None else float(created)
        inject("store.put", key=f"marker:{kind}")
        with timed("store.markers.seconds"):
            ids = self._put_markers(str(scope), str(kind), fields, stamp)
        get_registry().inc("store.markers.put", len(ids))
        return ids

    def markers(self, scope: str) -> list[Marker]:
        """Every marker under ``scope``, ordered by ``(created, id)``.

        Always reads through to the backing medium: a marker another
        handle or process wrote is visible to the very next scan.
        Fires the ``store.entries`` fault point.
        """
        inject("store.entries")
        get_registry().inc("store.markers.scan")
        with timed("store.markers.seconds"):
            found = self._markers(str(scope))
        found.sort(key=lambda marker: (marker.created, marker.id))
        return found

    def delete_markers(self, ids: Iterable[str]) -> None:
        """Remove markers by id; ids already gone are ignored."""
        ids = list(ids)
        get_registry().inc("store.markers.delete", len(ids))
        with timed("store.markers.seconds"):
            self._delete_markers(ids)

    @abstractmethod
    def _put_markers(
        self, scope: str, kind: str, rows: list[dict[str, str]], created: float
    ) -> list[str]:
        """Backend write of one marker batch (all rows or none)."""

    @abstractmethod
    def _markers(self, scope: str) -> list[Marker]:
        """Backend scan of one scope, in any order."""

    @abstractmethod
    def _delete_markers(self, ids: list[str]) -> None:
        """Backend delete; missing ids are not an error."""

    # -- index plane (no payload deserialisation) -----------------------------

    def entries(
        self, command: object = None, tags: object = None
    ) -> list[StoreEntry]:
        """Index records of all profiles matching command/tags.

        Same filter and order as :meth:`find` (command matches exactly,
        tags by subset, oldest-first, ties in write order) but returns
        lightweight :class:`StoreEntry` records and touches no payload.
        Fires the ``store.entries`` fault point.
        """
        inject("store.entries")
        with timed("store.entries.seconds"):
            return self._matching(command, tags)

    def ids_for(self, command: object = None, tags: object = None) -> list[str]:
        """Ids of all profiles matching command/tags, oldest-first.

        The public replacement for reaching into ``_iter_profiles``:
        callers that only need identities (ledger bookkeeping, targeted
        deletes) get them without payload I/O.
        """
        return [entry.id for entry in self.entries(command, tags)]

    def count(self) -> int:
        """Number of stored profiles (index plane; no payloads loaded)."""
        return len(self.entries())

    def keys(self) -> list[tuple[str, tuple[str, ...], int]]:
        """Distinct ``(command, tags, n_profiles)`` groups in the store."""
        return _key_counts(self.entries())

    # -- payload plane --------------------------------------------------------

    def get_many(self, ids) -> list[Profile]:
        """Profiles for a batch of store ids, in the order given.

        Raises :class:`~repro.core.errors.StoreError` for unknown ids.
        The batch counterpart of id-based lookup: resolve candidates on
        the index plane first, then load only the payloads needed.
        Fires the ``store.get`` fault point (keyed by the first id).
        """
        return self._read(list(ids))

    def scan(self, ids) -> Iterator[Profile]:
        """Profiles for store ids, in the order given, read
        :data:`SCAN_CHUNK` at a time: the bulk read of a reader that
        goes through many profiles once (a whole campaign ledger).

        At most one chunk of profiles is held at once.  Each chunk is a
        read as :meth:`get_many` makes one — the ``store.get`` fault
        point fires and ``store.get.seconds`` times once per chunk, not
        once per scan — so an unknown id raises
        :class:`~repro.core.errors.StoreError` when its chunk is read.
        """
        ids = list(ids)
        for at in range(0, len(ids), SCAN_CHUNK):
            yield from self._read(ids[at : at + SCAN_CHUNK])

    def _read(self, ids: list[str]) -> list[Profile]:
        """One payload read: the fault point, the timer, then
        :meth:`_load_many`."""
        if ids:
            inject("store.get", key=str(ids[0]))
        with timed("store.get.seconds"):
            self._sync()
            return self._load_many(ids)

    def get(self, command: object, tags: object = None) -> Profile:
        """The most recent matching profile (raises if none exists).

        Resolved on the index plane: only the winning profile's payload
        is loaded.
        """
        found = self.entries(command, tags)
        if not found:
            raise ProfileNotFoundError(
                f"no profile for command={normalize_command(command)!r} "
                f"tags={normalize_tags(tags)!r}"
            )
        return self.get_many([found[-1].id])[0]

    def find(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[Profile]:
        """All stored profiles matching command, tags and optional query.

        ``command`` matches exactly (after normalisation); ``tags``
        matches by subset; ``query`` is a Mongo-style filter over the
        profile's dict form.  Results are ordered oldest-first, ties in
        write order.  Only accepted candidates become profiles.
        """
        with timed("store.find.seconds"):
            ids = [entry.id for entry in self._matching(command, tags)]
            if query is not None:
                ids = self._accepted(ids, query)
            return self._load_many(ids)

    def find_ids(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[str]:
        """Ids of the profiles :meth:`find` would return, in find order."""
        if query is None:
            return self.ids_for(command, tags)
        return self._accepted([entry.id for entry in self._matching(command, tags)], query)


class ReferenceScan:
    """The brute-force reference for both query planes.

    Answers ``find`` / ``find_ids`` / ``entries`` / ``keys`` for a store
    by loading every profile through its ``_iter_profiles`` and testing
    it: no index, no cache, no fault point.  The order is a stable sort
    by ``created`` over the write-ordered scan.
    """

    def __init__(self, store: ProfileStore) -> None:
        self.store = store

    def pairs(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[tuple[str, Profile]]:
        """``(id, profile)`` of every match, in find order.

        The query is compiled once per scan and each candidate's dict
        form is built at most once (reused across every ``$and``/``$or``
        branch of the compiled matcher).
        """
        want_command = normalize_command(command) if command is not None else None
        matcher = compile_query(query) if query is not None else None
        results: list[tuple[str, Profile]] = []
        for pid, profile in self.store._iter_profiles():
            if want_command is not None and profile.command != want_command:
                continue
            if not tags_match(profile.tags, tags):
                continue
            if matcher is not None and not matcher(profile.to_dict()):
                continue
            results.append((pid, profile))
        results.sort(key=lambda pair: pair[1].created)
        return results

    def find(self, command=None, tags=None, query=None) -> list[Profile]:
        return [profile for _pid, profile in self.pairs(command, tags, query)]

    def find_ids(self, command=None, tags=None, query=None) -> list[str]:
        return [pid for pid, _profile in self.pairs(command, tags, query)]

    def entries(self, command=None, tags=None) -> list[StoreEntry]:
        return [_entry(pid, profile) for pid, profile in self.pairs(command, tags)]

    def keys(self) -> list[tuple[str, tuple[str, ...], int]]:
        return _key_counts(self.entries())


class MemoryStore(ProfileStore):
    """Volatile store; useful for tests and single-process experiments.

    Profiles are kept (and returned) as the objects stored.  Mutating a
    profile's ``command``/``tags``/``created`` *after* ``put`` desyncs
    the index (as it would any database); store a copy instead.
    """

    def __init__(self) -> None:
        super().__init__()
        self._profiles: dict[str, Profile] = {}
        self._next_id = 0
        #: marker id -> (scope, marker).
        self._marks: dict[str, tuple[str, Marker]] = {}
        self._next_mark = 0

    def put(self, profile: Profile) -> str:
        inject("store.put", key=profile.command)
        with timed("store.put.seconds"):
            pid = f"mem-{self._next_id}"
            self._next_id += 1
            self._profiles[pid] = profile
            self._index(_entry(pid, profile))
        return pid

    def delete(self, pid: str) -> None:
        """Remove one profile by id (unknown ids raise ``StoreError``)."""
        profile = self._profiles.pop(pid, None)
        if profile is None:
            raise StoreError(f"no stored profile {pid!r}")
        self._unindex(_entry(pid, profile))

    def clear(self) -> None:
        """Remove all stored profiles."""
        self._profiles.clear()
        self._by_key.clear()

    def _put_markers(self, scope, kind, rows, created):
        ids = []
        for fields in rows:
            mid = f"mark-{self._next_mark:012d}"
            self._next_mark += 1
            self._marks[mid] = (scope, Marker(mid, kind, fields, created))
            ids.append(mid)
        return ids

    def _markers(self, scope):
        return [marker for held, marker in self._marks.values() if held == scope]

    def _delete_markers(self, ids):
        for mid in ids:
            self._marks.pop(mid, None)

    def _iter_profiles(self):
        yield from self._profiles.items()

    def _load_many(self, ids):
        try:
            return [self._profiles[pid] for pid in ids]
        except KeyError as exc:
            raise StoreError(f"no stored profile {exc.args[0]!r}") from exc

    def _documents(self, ids) -> Iterator[tuple[str, dict[str, Any]]]:
        for pid in ids:
            yield pid, self._profiles[pid].to_dict()
