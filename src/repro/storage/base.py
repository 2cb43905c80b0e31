"""Profile store protocol and the in-memory reference implementation.

Stores index profiles by their ``(command, tags)`` search key, exactly as
the paper describes (§4): the profile method "stores the results on disk
or in a MongoDB database; the application startup command and custom tags
are used as search index".

Three access planes, one contract:

* **Payload plane** — :meth:`ProfileStore.find` / :meth:`get` /
  :meth:`get_many` return full :class:`~repro.core.samples.Profile`
  objects (samples and all).
* **Index plane** — :meth:`ProfileStore.entries` / :meth:`ids_for` /
  :meth:`find_ids` answer "which profiles match" from the store's
  ``(command, tags)`` index as lightweight :class:`StoreEntry` records,
  *without* deserialising profile payloads.  Campaign ledgers and
  placement lookups live on this plane.
* **Marker plane** — :meth:`ProfileStore.put_markers` /
  :meth:`markers` / :meth:`delete_markers` hold payload-free,
  short-lived coordination records (:class:`Marker`: a kind, a few
  string fields, a creation stamp) grouped under a *scope*.  Elastic
  campaigns keep their heartbeats and leases here.  Markers are not
  profiles: no document-plane call (``entries``, ``count``, ``find``,
  ...) ever sees one, and a marker scan is fresh across handles and
  processes by construction — it never answers from a cache.

The base class supplies brute-force implementations over
:meth:`_iter_profiles` (every profile loaded and tested); concrete
stores override them with indexed sublinear versions.  The brute-force
``find`` doubles as the correctness reference: indexed results are
pinned bit-identical to ``ProfileStore.find(store, ...)`` by the store
test suite and ``benchmarks/bench_e9_store.py``.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping
from typing import Any, NamedTuple

from repro.core.errors import ProfileNotFoundError, StoreError
from repro.core.samples import Profile
from repro.core.tags import normalize_command, normalize_tags, tags_match
from repro.faults import inject
from repro.storage.query import compile_query
from repro.telemetry.metrics import get_registry, timed

__all__ = ["Marker", "ProfileStore", "MemoryStore", "StoreEntry"]


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


class ProfileStore(ABC):
    """Common interface of the file-based and Mongo-like profile stores."""

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

    @abstractmethod
    def _iter_profiles(self):
        """Yield ``(id, Profile)`` pairs for all stored profiles.

        This is the brute-force full scan; it deserialises every stored
        payload and exists as the reference the indexed paths are pinned
        against (and as the fallback for stores without an index).
        """

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

        Same filter semantics and ordering as :meth:`find` (command
        matches exactly, tags by subset, oldest-first) but returns
        lightweight :class:`StoreEntry` records.  Indexed stores answer
        this without touching profile payloads; this brute-force default
        scans.
        """
        want_command = normalize_command(command) if command is not None else None
        found = [
            StoreEntry(pid, profile.command, profile.tags, profile.created)
            for pid, profile in self._iter_profiles()
            if (want_command is None or profile.command == want_command)
            and tags_match(profile.tags, tags)
        ]
        found.sort(key=lambda entry: entry.created)
        return found

    def ids_for(self, command: object = None, tags: object = None) -> list[str]:
        """Ids of all profiles matching command/tags, oldest-first.

        The public replacement for reaching into ``_iter_profiles``:
        callers that only need identities (ledger bookkeeping, targeted
        deletes) get them without payload I/O.
        """
        return [entry.id for entry in self.entries(command, tags)]

    def get_many(self, ids) -> list[Profile]:
        """Profiles for a batch of store ids, in the order given.

        Raises :class:`~repro.core.errors.StoreError` for unknown ids.
        The batch counterpart of id-based lookup: resolve candidates on
        the index plane first, then load only the payloads needed.
        """
        wanted = list(ids)
        missing = set(wanted)
        by_id: dict[str, Profile] = {}
        for pid, profile in self._iter_profiles():
            if pid in missing:
                by_id[pid] = profile
                missing.discard(pid)
                if not missing:
                    break
        if missing:
            raise StoreError(f"no stored profile {sorted(missing)[0]!r}")
        return [by_id[pid] for pid in wanted]

    # -- shared query logic ---------------------------------------------------

    def find(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[Profile]:
        """All stored profiles matching command, tags and optional query.

        ``command`` matches exactly (after normalisation); ``tags``
        matches by subset; ``query`` is a Mongo-style filter over the
        profile's dict form.  Results are ordered oldest-first.
        """
        return [profile for _pid, profile in self._scan(command, tags, query)]

    def find_ids(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[str]:
        """Ids of the profiles :meth:`find` would return, in find order."""
        if query is None:
            return self.ids_for(command, tags)
        return [pid for pid, _profile in self._scan(command, tags, query)]

    def _scan(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[tuple[str, Profile]]:
        """Brute-force reference scan: ``(id, profile)`` in find order.

        The query is compiled once per scan and each candidate's dict
        form is built at most once (reused across every ``$and``/``$or``
        branch of the compiled matcher).
        """
        want_command = normalize_command(command) if command is not None else None
        matcher = compile_query(query) if query is not None else None
        results: list[tuple[str, Profile]] = []
        for pid, profile in self._iter_profiles():
            if want_command is not None and profile.command != want_command:
                continue
            if not tags_match(profile.tags, tags):
                continue
            if matcher is not None and not matcher(profile.to_dict()):
                continue
            results.append((pid, profile))
        results.sort(key=lambda pair: pair[1].created)
        return results

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

    def count(self) -> int:
        """Number of stored profiles (index plane; no payloads loaded)."""
        return len(self.entries())

    def keys(self) -> list[tuple[str, tuple[str, ...], int]]:
        """Distinct ``(command, tags, n_profiles)`` groups in the store."""
        groups: dict[tuple[str, tuple[str, ...]], int] = {}
        for entry in self.entries():
            key = (entry.command, entry.tags)
            groups[key] = groups.get(key, 0) + 1
        return sorted((cmd, tags, n) for (cmd, tags), n in groups.items())


class MemoryStore(ProfileStore):
    """Volatile store; useful for tests and single-process experiments.

    Maintains a ``(command, tags) -> [ids]`` index alongside the profile
    map, so ``find``/``entries`` prune whole groups before touching any
    profile and ``get_many`` is a dict lookup.  Mutating a profile's
    ``command``/``tags`` *after* ``put`` desyncs the index (as it would
    any database); store a copy instead.
    """

    def __init__(self) -> None:
        self._profiles: dict[str, Profile] = {}
        self._by_key: dict[tuple[str, tuple[str, ...]], list[str]] = {}
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
            self._by_key.setdefault((profile.command, profile.tags), []).append(pid)
        return pid

    def delete(self, pid: str) -> None:
        """Remove one profile by id (missing ids raise ``KeyError``)."""
        profile = self._profiles.pop(pid)
        key = (profile.command, profile.tags)
        ids = self._by_key.get(key)
        if ids is not None:
            try:
                ids.remove(pid)
            except ValueError:
                pass
            if not ids:
                del self._by_key[key]

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

    # -- indexed fast paths ---------------------------------------------------

    def _candidate_ids(self, command: object, tags: object) -> list[str]:
        """Ids of the groups matching command/tags, in insertion order."""
        want_command = normalize_command(command) if command is not None else None
        wanted = set(normalize_tags(tags))
        candidates: list[str] = []
        for (cmd, tgs), ids in self._by_key.items():
            if want_command is not None and cmd != want_command:
                continue
            if not wanted <= set(tgs):
                continue
            candidates.extend(ids)
        # Ids encode the global insertion sequence; restoring it keeps
        # equal-``created`` ties ordered exactly like the reference scan.
        candidates.sort(key=lambda pid: int(pid[4:]))
        return candidates

    def entries(
        self, command: object = None, tags: object = None
    ) -> list[StoreEntry]:
        inject("store.entries")
        with timed("store.entries.seconds"):
            found = [
                StoreEntry(pid, p.command, p.tags, p.created)
                for pid in self._candidate_ids(command, tags)
                for p in (self._profiles[pid],)
            ]
            found.sort(key=lambda entry: entry.created)
        return found

    def get_many(self, ids) -> list[Profile]:
        ids = list(ids)
        if ids:
            inject("store.get", key=str(ids[0]))
        with timed("store.get.seconds"):
            try:
                return [self._profiles[pid] for pid in ids]
            except KeyError as exc:
                raise StoreError(f"no stored profile {exc.args[0]!r}") from exc

    def find(
        self,
        command: object = None,
        tags: object = None,
        query: Mapping[str, Any] | None = None,
    ) -> list[Profile]:
        with timed("store.find.seconds"):
            candidates = [
                (pid, self._profiles[pid])
                for pid in self._candidate_ids(command, tags)
            ]
            if query is not None:
                matcher = compile_query(query)
                candidates = [
                    (pid, profile)
                    for pid, profile in candidates
                    if matcher(profile.to_dict())
                ]
            candidates.sort(key=lambda pair: pair[1].created)
        return [profile for _pid, profile in candidates]
