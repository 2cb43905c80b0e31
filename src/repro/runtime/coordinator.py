"""Elastic campaign coordination: heartbeats, leases, work stealing.

A lone :func:`~repro.runtime.campaign.run_campaign` takes part in no
protocol.  This module is the one way several invocations share a
sweep: a **lease-based pull loop** over the shared store ledger — the
campaign layer's only mutual-exclusion protocol — so any number of
workers, joining late, crashing, hanging or draining out, converge the
campaign cooperatively:

* **Membership.** Each worker registers a *heartbeat marker* (kind
  :data:`MEMBER_KIND`) and renews it from a background thread every
  third of the lease TTL.  A worker whose newest heartbeat is older
  than the TTL is dead; a draining worker deregisters outright.
* **Leases.** Each pulled cell is leased with the owner, an **epoch**
  and a creation stamp.  A wave's cells at one epoch share **one**
  marker (kind :data:`LEASE_KIND`, its ``cell`` field their digests
  joined with ``.``), which :func:`lease_records` expands into one
  record per cell; resolution stays per cell.  The heartbeat renews
  held leases (again one marker per epoch) while the wave executes,
  until the wave overruns its :func:`~repro.runtime.service.batch_budget`
  deadline — then even a hung worker loses them.  A worker older than
  the shared marker reads a multi-cell one as one unknown cell and may
  re-run its cells as bit-identical duplicates: upgrade a fleet
  together.
* **Stealing.** A lease is *live* while its newest record is fresher
  than the TTL **and** its owner's heartbeat is live.  Anything else is
  stolen at ``epoch + 1``.  Resolution is the same for everyone —
  highest epoch wins, ties resolve on ``(created, owner)`` — so a
  resurrected owner's late renewal defers to the thief.
* **Exactly-once ledger.** A cell's artifact derives only from the
  cell's identity, so the races (two workers executing one cell during
  a steal window) store bit-identical duplicates the ledger dedupes by
  digest: a run that loses a worker mid-wave and gains another late
  converges to a fault-free run's ledger digest.

**Steps.** A worker (:class:`_Worker`) is explicit steps, the next one
named by its ``phase``: ``scan`` (one marker scan: members, leases,
stale-marker GC, the ledger re-read) → ``deal`` (free cells, then
stale leases to steal; a live rival's cells are deferred, and a worker
with nothing else to take goes ``idle``) → ``acquire`` (one lease
marker per epoch, then a confirming scan that keeps the cells it won) →
``execute`` (the campaign's one wave body, ``_Sweep.run_wave``) →
``release`` (one batched delete) → ``scan``, until ``done``.
:func:`elastic_worker` is the only loop over them.

**One clock.** A worker and its heartbeat read one ``clock`` callable
(``time.time`` in production): it stamps every marker they write and
alone decides liveness, the re-read cadence and the wave deadline.  A
Hypothesis state machine (``tests/runtime/test_coordinator_machine.py``)
steps workers (a ``MemoryStore`` or a ``FileStore``, waves of one to
three cells) on one virtual clock and checks after every step: stored
duplicates are bit-identical, no two workers hold a cell at its winning
epoch while that lease is live, a steal writes ``epoch + 1``, and no
ledger view holds a cell the store lacks.  The largest clock skew
between hosts (as a share of the TTL) they tolerate is not measured.

Heartbeats and leases live on the store's **marker plane**
(:meth:`~repro.storage.base.ProfileStore.put_markers` / ``markers`` /
``delete_markers``, scope = the campaign name).  A wave costs two
marker scans, one lease marker per epoch it takes cells at (one, for a
wave of fresh cells) and one delete.  The worker's view of
the ledger is **monotone**: it re-reads ``completed_cells`` only while
a scan shows a foreign member or lease (or once per heartbeat
interval), and otherwise grows by the cells it persisted itself; a
stale view can only miss a rival's cell — a bit-identical duplicate.

Fault points (:mod:`repro.faults`): ``coordinator.heartbeat`` on every
beat (``crash`` kills the worker mid-wave — the CI chaos smoke),
``coordinator.lease.renew`` on every lease renewal (``error`` drops
it), ``coordinator.steal`` on every steal attempt.  Telemetry:
``campaign.member.join`` / ``.leave`` / ``.steal`` events,
``coordinator.steals`` / ``.waves`` / ``.ledger.rescans`` counters, the
``coordinator.lease.age.seconds`` histogram and the
``coordinator.members`` gauge.
"""

from __future__ import annotations

import contextlib
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.core.errors import ConfigError, number, text, whole_number
from repro.faults import inject
from repro.runtime.campaign import (
    DEFAULT_CHECKPOINT,
    CampaignReport,
    CampaignSpec,
    _store_op,
    _sweep,
    completed_cells,
    new_member,
    wave_limits,
)
from repro.runtime.service import RunService, batch_budget
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_KIND",
    "MEMBER_KIND",
    "LeaseRecord",
    "check_lease_ttl",
    "elastic_worker",
    "lease_records",
    "live_members",
    "resolve_lease",
    "run_elastic",
]

#: Marker kind of member heartbeats (field ``member``).
MEMBER_KIND = "member"

#: Marker kind of cell leases (fields ``cell`` — one or more digests
#: joined with :data:`CELL_SEP` — ``owner`` and ``epoch``).
LEASE_KIND = "lease"

#: Joins the cell digests of one lease marker (hex digests never hold it).
CELL_SEP = "."

#: Seconds a lease (and a member heartbeat) stays live without renewal;
#: heartbeats renew at TTL/3, so a hard crash is taken over in ~one TTL.
DEFAULT_LEASE_TTL = 60.0

#: Markers older than ``ttl * this`` are garbage — long dead, long since
#: stolen from — and deleted by whichever worker's wave scan sees them.
STALE_MARKER_FACTOR = 4.0


def _heartbeat_interval(ttl: float) -> float:
    return max(0.05, ttl / 3.0)


def _poll_interval(ttl: float) -> float:
    """How long a worker with nothing stealable waits before rescanning."""
    return min(1.0, max(0.05, ttl / 4.0))


@dataclass(frozen=True)
class LeaseRecord:
    """One cell's lease, as a stored lease marker holds it.

    A marker leases every cell of a wave at one epoch, so several
    records share its ``id`` and ``created`` stamp: deleting that id
    drops them all.
    """

    digest: str
    owner: str
    epoch: int
    created: float
    id: str


@dataclass(frozen=True)
class LeaseState:
    """Resolution of one cell's lease records (see :func:`resolve_lease`)."""

    owner: str
    epoch: int
    #: Newest record stamp of the winning ``(owner, epoch)`` lease.
    renewed: float
    #: Live = fresh within the TTL *and* the owner's heartbeat is live.
    alive: bool


def _owner(marker: Any) -> str | None:
    """The worker a heartbeat or lease marker belongs to."""
    return marker.fields.get("member", marker.fields.get("owner"))


def _split(markers: list) -> tuple[dict[str, float], dict[str, list[LeaseRecord]]]:
    """One marker scan as (newest heartbeat per member, leases per cell).

    A lease marker expands into one record per cell it names, all with
    its id and stamp.  Malformed markers — a stranger's, or a newer
    version's — are skipped, never fatal.
    """
    beats: dict[str, float] = {}
    leases: dict[str, list[LeaseRecord]] = {}
    for marker in markers:
        fields = marker.fields
        if marker.kind == MEMBER_KIND and "member" in fields:
            member = fields["member"]
            beats[member] = max(beats.get(member, 0.0), marker.created)
        elif marker.kind == LEASE_KIND:
            try:
                cells, owner = fields["cell"], fields["owner"]
                epoch = int(fields["epoch"])
            except (KeyError, ValueError):
                continue
            for digest in cells.split(CELL_SEP):
                leases.setdefault(digest, []).append(
                    LeaseRecord(digest, owner, epoch, marker.created, marker.id)
                )
    return beats, leases


def _live(beats: Mapping[str, float], ttl: float, now: float) -> dict[str, float]:
    return {member: stamp for member, stamp in beats.items() if now - stamp <= ttl}


def live_members(
    store: Any, name: str, ttl: float, now: float | None = None
) -> dict[str, float]:
    """Members of campaign ``name`` with a heartbeat fresher than ``ttl``.

    Returns member id -> newest heartbeat stamp, from one marker scan.
    """
    now = time.time() if now is None else now
    return _live(_split(store.markers(name))[0], ttl, now)


def lease_records(store: Any, name: str) -> dict[str, list[LeaseRecord]]:
    """The leases of campaign ``name`` as records grouped by cell digest.

    A record per cell a lease marker names: the records of one marker
    share its id, so :meth:`~repro.storage.base.ProfileStore.delete_markers`
    on it drops every one of them.
    """
    return _split(store.markers(name))[1]


def resolve_lease(
    records: list[LeaseRecord],
    now: float,
    ttl: float,
    live: Mapping[str, float] | set | frozenset = frozenset(),
) -> LeaseState | None:
    """Resolve one cell's lease records to their current holder.

    The **highest epoch** wins outright (a steal supersedes everything
    before it), and same-epoch races — two workers acquiring or
    stealing concurrently — resolve on the ``(created, owner)``
    minimum.  The winning lease is *alive* while its newest record is
    fresher than ``ttl`` **and** its owner appears in ``live`` — a
    deregistered or dead owner's lease is stealable at once, which is
    what makes the SIGTERM drain hand work over without waiting.
    """
    if not records:
        return None
    top = max(record.epoch for record in records)
    contenders = [record for record in records if record.epoch == top]
    _, owner = min((record.created, record.owner) for record in contenders)
    renewed = max(
        record.created for record in contenders if record.owner == owner
    )
    alive = (now - renewed <= ttl) and owner in live
    return LeaseState(owner=owner, epoch=top, renewed=renewed, alive=alive)


def _won(records: list[LeaseRecord], worker: str, epoch: int) -> bool:
    """Whether ``worker``'s lease at ``epoch`` holds its cell: nobody
    wrote a higher epoch, and its first record at this one is strictly
    older than every rival's.  :func:`resolve_lease` breaks an equal
    stamp on the owner, but that rival may have confirmed alone before
    this write landed — so the writer counts a tie as lost."""
    mine = [r.created for r in records if r.epoch == epoch and r.owner == worker]
    return bool(mine) and all(
        r.epoch < epoch
        or (r.epoch == epoch and (r.owner == worker or r.created > min(mine)))
        for r in records
    )


def _lease_row(cell: str, worker: str, epoch: int) -> dict[str, Any]:
    """One lease marker's fields; ``cell`` is one digest or several
    joined with :data:`CELL_SEP`."""
    return {"cell": cell, "owner": worker, "epoch": epoch}


def _by_epoch(leases: Iterable[tuple[str, int]]) -> dict[int, str]:
    """``(digest, epoch)`` pairs as one ``cell`` field per epoch, the
    digests in order."""
    rows: dict[int, list[str]] = {}
    for digest, epoch in leases:
        rows.setdefault(epoch, []).append(digest)
    return {epoch: CELL_SEP.join(cells) for epoch, cells in rows.items()}


def _drop(store: Any, ids: list[str]) -> None:
    """Best-effort marker deletion (leftovers age out and are swept)."""
    if not ids:
        return
    try:
        store.delete_markers(ids)
    except Exception:  # noqa: BLE001 - cleanup must never fail a wave
        pass


class _Heartbeat(threading.Thread):
    """Renews the member heartbeat and held leases in the background.

    Its store traffic is serialised against the worker's through
    ``lock`` (profile stores are not thread-safe) and is best-effort: a
    failed beat is a *dropped* heartbeat, survivable by design — what
    the ``coordinator.heartbeat`` / ``.lease.renew`` fault points do.

    Lease renewal keeps two records per held cell: the **anchor** (the
    acquire-time marker, whose ``created`` stamp is the cell's priority
    in same-epoch tie-breaks) and the newest renewal.  Markers are
    shared: a beat writes one renewal marker per epoch for every cell it
    renews, then deletes each renewal marker no held cell names any
    more, in one batch; a cell whose renewal was dropped keeps its
    previous one.  Renewals past the wave ``deadline`` are withheld — the
    deadline plumbing that lets survivors steal from a worker hung
    beyond its whole :func:`~repro.runtime.service.batch_budget`.
    Marker stamps and the deadline come from ``clock``.
    """

    def __init__(
        self, store: Any, lock: threading.Lock, campaign: str, worker: str,
        ttl: float, clock: Callable[[], float] = time.time,
    ) -> None:
        super().__init__(name=f"heartbeat-{worker}", daemon=True)
        self.store = store
        self.lock = lock
        self.campaign = campaign
        self.worker = worker
        self.clock = clock
        self.interval = _heartbeat_interval(ttl)
        self._halt = threading.Event()
        self._state = threading.Lock()
        self._member_id: str | None = None
        #: digest -> {"epoch": int, "anchor": id, "renewal": id | None}
        self._held: dict[str, dict[str, Any]] = {}
        self._deadline: float | None = None

    def _put(self, kind: str, rows: list[dict[str, Any]]) -> list[str]:
        return self.store.put_markers(self.campaign, kind, rows, created=self.clock())

    def _put_member(self) -> str:
        [marker_id] = self._put(MEMBER_KIND, [{"member": self.worker}])
        return marker_id

    # -- main-thread API ------------------------------------------------------

    def register(self) -> None:
        """Write the initial member heartbeat (before the thread starts)."""
        with self.lock:
            marker_id = _store_op("member.put", self._put_member)
        with self._state:
            self._member_id = marker_id

    def hold(self, leases: dict[str, tuple[int, str]], budget: float | None) -> None:
        """Start renewing these leases (digest -> (epoch, anchor id)).

        ``budget`` is the wave's time bound: past it renewals stop
        and the leases age into stealability (``None`` = renew as long
        as this process lives).
        """
        with self._state:
            for digest, (epoch, anchor) in leases.items():
                self._held[digest] = {
                    "epoch": epoch, "anchor": anchor, "renewal": None,
                }
            self._deadline = None if budget is None else self.clock() + budget

    def release(self) -> list[str]:
        """Stop renewing all held leases; returns their marker ids, each
        shared one once."""
        with self._state:
            held, self._held = self._held, {}
            self._deadline = None
        return list(dict.fromkeys(
            marker_id for state in held.values()
            for marker_id in (state["anchor"], state["renewal"]) if marker_id
        ))

    def deregister(self) -> list[str]:
        """Stop the thread (if it runs); returns the marker ids to delete."""
        self._halt.set()
        if self.is_alive():
            self.join(timeout=max(2.0, self.interval * 4))
        ids = self.release()
        with self._state:
            if self._member_id is not None:
                ids.append(self._member_id)
                self._member_id = None
        return ids

    # -- thread body ----------------------------------------------------------

    def run(self) -> None:  # pragma: no cover - exercised via workers
        while not self._halt.wait(self.interval):
            self.beat()

    def beat(self) -> None:
        """One renewal round (public for deterministic tests)."""
        try:
            # ``crash`` rules here kill the whole worker process —
            # the chaos smoke's mid-wave worker loss.  ``error`` rules
            # drop this beat: the member heartbeat ages exactly as if
            # the network had eaten it.
            inject("coordinator.heartbeat", key=self.worker)
        except Exception:  # noqa: BLE001 - injected drop
            return
        renewing = self._leases_to_renew()
        with self.lock:
            superseded = self._renew_member() + self._renew_leases(renewing)
            _drop(self.store, superseded)

    def _renew_member(self) -> list[str]:
        try:
            marker_id = self._put_member()
        except Exception:  # noqa: BLE001 - dropped heartbeat, survivable
            return []
        with self._state:
            previous, self._member_id = self._member_id, marker_id
        return [] if previous is None else [previous]

    def _leases_to_renew(self) -> list[tuple[str, int, str]]:
        """``(digest, epoch, anchor)`` of the held leases this beat renews."""
        with self._state:
            if self._deadline is not None and self.clock() > self._deadline:
                # The wave overran its whole batch budget: stop defending
                # its leases so survivors can steal the cells.
                return []
            held = [
                (digest, state["epoch"], state["anchor"])
                for digest, state in self._held.items()
            ]
        renewing = []
        for lease in held:
            try:
                inject("coordinator.lease.renew", key=self.worker)
            except Exception:  # noqa: BLE001 - dropped renewal, survivable
                continue
            renewing.append(lease)
        return renewing

    def _renew_leases(self, renewing: list[tuple[str, int, str]]) -> list[str]:
        """Write one renewal marker per epoch; returns the renewal ids
        no held cell names any more (superseded, or written for cells
        released while we renewed)."""
        if not renewing:
            return []
        rows = _by_epoch((digest, epoch) for digest, epoch, _anchor in renewing)
        try:
            ids = self._put(LEASE_KIND, [
                _lease_row(cells, self.worker, epoch) for epoch, cells in rows.items()
            ])
        except Exception:  # noqa: BLE001 - dropped renewals, survivable
            return []
        renewal = dict(zip(rows, ids))
        with self._state:
            before = [state["renewal"] for state in self._held.values()]
            for digest, epoch, anchor in renewing:
                current = self._held.get(digest)
                if current is not None and current["anchor"] == anchor:
                    current["renewal"] = renewal[epoch]
            named = {state["renewal"] for state in self._held.values()}
        return list(dict.fromkeys(
            marker_id for marker_id in before + ids
            if marker_id is not None and marker_id not in named
        ))


def _sweep_markers(
    store: Any, name: str, workers: list[str], horizon: float
) -> None:
    """Best-effort deletion of markers no survivor will ever need.

    Hard-killed workers leave their last heartbeat and lease markers
    behind.  The fleet parent sweeps after every child has exited:
    every marker naming one of ``workers`` is certainly dead, and so is
    anything older than ``horizon`` (live markers — a still-attached
    ``--join`` worker's — are renewed every TTL/3 and stay fresher).
    """
    try:
        now = time.time()
        doomed = [
            marker.id
            for marker in store.markers(name)
            if _owner(marker) in workers or now - marker.created > horizon
        ]
    except Exception:  # noqa: BLE001 - cleanup must never fail the fleet
        return
    _drop(store, doomed)


class _Worker:
    """One elastic worker's stay in a campaign, as explicit steps.

    :meth:`step` runs the step named by :attr:`phase` and moves
    :attr:`phase` on (see the module docstring for the cycle); the
    state between steps — the last scan's ``view``, the dealt
    ``wanted`` leases, the ``won`` ones, the sweep's ``done`` ledger
    view — is plain attributes a test can read.  Every store operation
    is serialised against the heartbeat thread, and ``clock`` is the
    only time source (the heartbeat gets the same one).
    """

    def __init__(
        self, sweep: Any, ttl: float, batch: int = DEFAULT_CHECKPOINT,
        limit: int | None = None, stop: Callable[[], bool] | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.sweep, self.store = sweep, sweep.store
        self.name, self.campaign = sweep.member, sweep.spec.name
        self.ttl, self.batch, self.limit = ttl, batch, limit
        self.stop, self.clock = stop, clock
        self.lock = threading.Lock()
        sweep.store_op = self._op  # ledger reads queue behind the heartbeat
        self.heartbeat = _Heartbeat(
            self.store, self.lock, self.campaign, self.name, ttl, clock
        )
        self.phase = "scan"
        self.wave_no = 0
        self.reread_at = clock()
        #: ``(now, live members, leases per cell)`` of the last scan.
        self.view: tuple[float, dict, dict[str, list[LeaseRecord]]] | None = None
        self.workable: list[str] = []
        self.garbage: list[str] = []  # stale marker ids riding on a delete
        self.wanted: list[tuple[str, int]] = []
        self.won: dict[str, tuple[int, str]] = {}

    def _op(self, what: str, fn: Callable[[], Any]) -> Any:
        with self.lock:
            return _store_op(what, fn)

    def _delete(self, ids: list[str]) -> None:
        with self.lock:
            _drop(self.store, ids)

    def join(self) -> None:
        """Register the member heartbeat and announce the join.  A join
        whose scan fails deregisters before the error propagates."""
        self.heartbeat.register()
        try:
            members = self._op("marker.scan", lambda: live_members(
                self.store, self.campaign, self.ttl, self.clock()
            ))
        except BaseException:
            self._delete(self.heartbeat.deregister())
            raise
        get_registry().set_gauge("coordinator.members", float(len(members)))
        get_bus().event(
            "campaign.member.join", campaign=self.campaign, member=self.name,
            members=sorted(members), lease_ttl=self.ttl,
        )

    def leave(self) -> None:
        """Deregister: drop every marker still held, announce the leave."""
        self._delete(self.heartbeat.deregister() + self.garbage)
        self.garbage, self.won = [], {}
        get_bus().event(
            "campaign.member.leave", campaign=self.campaign, member=self.name,
            executed=self.sweep.executed, stolen=self.sweep.stolen,
            interrupted=self.sweep.interrupted,
        )

    def step(self) -> str:
        """Run the step :attr:`phase` names; returns the next phase."""
        {"scan": self.scan, "idle": self.scan, "deal": self.deal,
         "acquire": self.acquire, "execute": self.execute,
         "release": self.release}[self.phase]()
        return self.phase

    def scan(self) -> None:
        """Stop, or read the markers — and the ledger while a rival
        shows — and list the cells still workable here."""
        sweep = self.sweep
        if self.stop is not None and self.stop():
            sweep.interrupt(self.wave_no)
            self.phase = "done"
            return
        if self.limit is not None and sweep.executed >= self.limit:
            sweep.truncated = True
            self.phase = "done"
            return
        # Markers first, ledger second: a rival that finished a cell and
        # released its lease in between is then caught by the re-read
        # instead of looking like a free cell.
        scan = self._op("marker.scan", lambda: self.store.markers(self.campaign))
        now = self.clock()
        beats, leases = _split(scan)
        members = _live(beats, self.ttl, now)
        get_registry().set_gauge("coordinator.members", float(len(members)))
        self.garbage = [
            marker.id for marker in scan
            if now - marker.created > self.ttl * STALE_MARKER_FACTOR
        ]
        if (
            any(_owner(marker) != self.name for marker in scan)
            or now - self.reread_at > _heartbeat_interval(self.ttl)
        ):
            get_registry().inc("coordinator.ledger.rescans")
            sweep.reread()
            self.reread_at = self.clock()
        failed = {failure["cell"] for failure in sweep.failures}
        self.workable = [
            cell.digest for cell in sweep.pending() if cell.digest not in failed
        ]
        self.view = (now, members, leases)
        # Nothing workable: complete, or everything left failed here.
        self.phase = "deal" if self.workable else "done"

    def deal(self) -> None:
        """Choose the wave: free cells first, then stale leases to steal
        at ``epoch + 1``; cells under a live rival's lease are deferred."""
        sweep = self.sweep
        now, members, leases = self.view
        room = self.batch
        if self.limit is not None:
            room = min(room, self.limit - sweep.executed)
        wanted: list[tuple[str, int]] = []
        steals: list[tuple[str, int, LeaseState]] = []
        blocked = 0
        for digest in self.workable:
            if len(wanted) + len(steals) >= room:
                break
            state = resolve_lease(leases.get(digest, []), now, self.ttl, members)
            if state is None:
                wanted.append((digest, 1))
            elif state.alive and state.owner != self.name:
                blocked += 1
            elif state.alive:
                # A leftover of our own (failed release): renew in place.
                wanted.append((digest, state.epoch))
            else:
                steals.append((digest, state.epoch + 1, state))
        for digest, epoch, state in steals:
            try:
                # An injected fault here is a failed takeover (the store
                # rejected the steal write): the cell stays deferred and
                # is re-examined on the next scan.
                inject("coordinator.steal", key=digest)
            except Exception:  # noqa: BLE001 - injected steal failure
                sweep.deferred += 1
                continue
            age = now - state.renewed
            get_registry().inc("coordinator.steals")
            get_registry().observe("coordinator.lease.age.seconds", age)
            get_bus().event(
                "campaign.member.steal", level="warning",
                campaign=self.campaign, member=self.name, cell=digest,
                from_owner=state.owner, epoch=epoch, lease_age=age,
            )
            wanted.append((digest, epoch))
            sweep.stolen += 1
        self.wanted = wanted
        if wanted:
            self.phase = "acquire"
        else:
            # Live rivals hold everything workable (or leases that look
            # alive and will age past the TTL): wait rather than
            # busy-scan.  Nobody holding it means all of it failed here.
            self.phase = "idle" if blocked or steals else "done"

    def acquire(self) -> None:
        """Write the dealt leases — one marker per epoch — then re-read
        them and keep only the cells this worker won: a racing rival
        acquiring or stealing the same cell resolves deterministically
        for everyone.

        A marker none of whose cells was won is deleted at once; one
        won in part stays until :meth:`release`, its lost cells
        resolving to the rival's older or higher-epoch record."""
        rows = _by_epoch(self.wanted)
        ids = self._op("lease.put", lambda: self.store.put_markers(
            self.campaign, LEASE_KIND,
            [_lease_row(cells, self.name, epoch) for epoch, cells in rows.items()],
            created=self.clock(),
        ))
        try:
            _, confirm = _split(self._op(
                "lease.confirm", lambda: self.store.markers(self.campaign)
            ))
        except BaseException:
            # Nobody owns the anchors yet: delete them or the cells stay
            # deferred to our corpse for a whole TTL.
            self._delete(ids)
            raise
        anchors = dict(zip(rows, ids))
        self.won = {}
        for digest, epoch in self.wanted:
            if _won(confirm.get(digest, []), self.name, epoch):
                self.won[digest] = (epoch, anchors[epoch])
            else:
                self.sweep.deferred += 1
        kept = {anchor for _epoch, anchor in self.won.values()}
        lost = [marker_id for marker_id in ids if marker_id not in kept]
        if lost:
            self._delete(lost)
        self.phase = "execute" if self.won else "scan"

    def execute(self) -> None:
        """Run the won cells through the campaign's one wave body while
        the heartbeat renews their leases."""
        sweep = self.sweep
        self.wave_no += 1
        get_registry().inc("coordinator.waves")
        # Waves: this one and, at this batch size, the ones the cells
        # still takeable after it would fill.
        rest = len(self.workable) - len(self.won)
        if self.limit is not None:
            rest = min(rest, self.limit - sweep.executed - len(self.won))
        sweep.run_wave(
            self.wave_no, self.wave_no + -(-rest // self.batch),
            [sweep.cells[digest] for digest in self.won], self._hold,
        )
        self.phase = "release"

    def _hold(self, requests: list[Any]) -> contextlib.nullcontext:
        self.heartbeat.hold(self.won, batch_budget(requests))
        return contextlib.nullcontext()

    def release(self) -> None:
        """Drop the wave's leases, with the stale markers the scan saw."""
        self._delete(self.heartbeat.release() + self.garbage)
        self.garbage, self.won = [], {}
        self.phase = "scan"


def check_lease_ttl(ttl: float) -> None:
    """A lease TTL must be positive, finite and short enough for the
    heartbeat's longest wait (its ``4/3 · ttl`` join) to be a timeout
    :mod:`threading` accepts."""
    number("lease_ttl", ttl, above=0, most=threading.TIMEOUT_MAX * 0.75)


def elastic_worker(
    spec: CampaignSpec | Mapping[str, Any],
    store: Any,
    worker: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    batch: int = DEFAULT_CHECKPOINT,
    processes: int | None = None,
    service: RunService | None = None,
    limit: int | None = None,
    progress: Any = None,
    stop: Callable[[], bool] | None = None,
) -> CampaignReport:
    """Run one elastic worker against a campaign's shared store ledger.

    The worker joins the membership, then steps (:class:`_Worker`)
    through leased waves of pending cells until the ledger is complete:
    free cells are leased outright, cells whose lease went stale —
    owner crashed, hung past its batch budget or drained away — are
    stolen at a bumped epoch, and each wave persists before its leases
    are released, so an interruption loses at most one wave and any
    number of workers (local or on other hosts) can share a sweep.

    ``stop`` drains gracefully: the in-flight wave finishes and
    persists, held leases are released and the membership deregisters —
    survivors steal the remainder immediately instead of waiting out
    ``lease_ttl``.  ``limit`` caps the cells executed by *this* worker.
    Returns a :class:`CampaignReport` whose ``remaining`` counts
    sweep-wide missing cells.
    """
    worker = new_member() if worker is None else text("worker", worker)
    if any(c in worker for c in "=,\n"):
        raise ConfigError(f"worker name {worker!r} must be free of '=', ',' and newlines")
    check_lease_ttl(lease_ttl)
    batch, limit = wave_limits("batch", batch, limit)
    with _sweep(
        spec, store, member=worker, service=service, processes=processes,
        progress=progress,
    ) as sweep:
        steps = _Worker(sweep, lease_ttl, batch, limit, stop)
        steps.join()
        steps.heartbeat.start()
        try:
            while steps.step() != "done":
                if steps.phase == "idle":
                    _wait(stop, _poll_interval(lease_ttl))
        finally:
            steps.leave()
    # ``skipped`` counts everything completed by someone else as of
    # this last read.
    sweep.reread()
    return sweep.report()


def _wait(stop: Callable[[], bool] | None, seconds: float) -> None:
    """Sleep in small slices, until ``stop`` asks for an end at the latest."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not (stop is not None and stop()):
        time.sleep(min(0.02, seconds))


# -- local fleets -------------------------------------------------------------


def _fleet_child(
    spec: CampaignSpec, store_url: str, worker: str, lease_ttl: float,
    batch: int, queue: Any,
) -> None:
    """Entry point of one fleet worker process: SIGTERM / SIGINT drain it."""
    import signal  # noqa: PLC0415 - child-only setup

    from repro.storage import open_store  # noqa: PLC0415 - child-only

    draining = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda signum, frame: draining.set())
    report = elastic_worker(
        spec, open_store(store_url), worker=worker, lease_ttl=lease_ttl, batch=batch,
        processes=1,  # serial inside the child; the fleet is the pool
        stop=draining.is_set,
    )
    try:
        queue.put(report.to_dict())
    except Exception:  # noqa: BLE001 - parent may be gone
        pass


def run_elastic(
    spec: CampaignSpec | Mapping[str, Any],
    store_url: str,
    workers: int = 3,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    batch: int = DEFAULT_CHECKPOINT,
    stop: Callable[[], bool] | None = None,
) -> CampaignReport:
    """Spawn a local fleet of elastic workers and converge the campaign.

    Each worker is a separate OS process with its own store handle (the
    fleet shares state only through the store, like a multi-host
    deployment) executing cells serially — the fleet *is* the pool.
    Workers inherit the active fault plan through ``REPRO_FAULTS``, so
    a chaos rule with a cross-process ``fuse`` file can kill exactly one
    of them mid-wave; survivors steal its leases.  Late joiners (a
    ``--join`` invocation, another host) simply become members.

    ``stop`` drains the whole fleet: children receive SIGTERM, finish
    their in-flight wave, release leases and deregister.  The report
    aggregates the fleet run from the ledger itself (a crashed child
    reports nothing — the ledger is the truth).
    """
    import multiprocessing  # noqa: PLC0415 - fleet-only dependency

    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    workers = whole_number("workers", workers, 1)
    check_lease_ttl(lease_ttl)  # here, not in every child it would kill
    batch, _ = wave_limits("batch", batch)
    if store_url in ("memory://", "mongo://"):
        raise ConfigError(
            f"a fleet shares state only through the store; {store_url!r} is "
            "process-private — use a file:// or persistent mongo:// store"
        )
    from repro.storage import open_store  # noqa: PLC0415 (cycle)

    store = open_store(store_url)
    cells = {cell.digest for cell in spec.cells()}
    done_before = completed_cells(store, spec.name) & cells
    start = time.perf_counter()

    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    token = secrets.token_hex(2)
    names = [f"w{index}-{token}" for index in range(workers)]
    children = [
        ctx.Process(
            target=_fleet_child,
            args=(spec, store_url, name, lease_ttl, batch, queue),
            daemon=False,
        )
        for name in names
    ]
    for child in children:
        child.start()
    get_bus().event(
        "campaign.fleet.start", campaign=spec.name, workers=workers,
        lease_ttl=lease_ttl,
    )
    interrupted = False
    try:
        while any(child.is_alive() for child in children):
            if stop is not None and stop() and not interrupted:
                interrupted = True
                for child in children:
                    if child.is_alive():
                        child.terminate()  # SIGTERM -> graceful drain
            for child in children:
                child.join(timeout=0.05)
    finally:
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=5.0)

    reports: list[dict[str, Any]] = []
    try:
        while True:
            reports.append(queue.get_nowait())
    except Exception:  # noqa: BLE001 - queue drained (or a child died)
        pass
    crashed = sum(1 for child in children if child.exitcode not in (0, None))
    # Crashed children leak their last heartbeat/lease markers; sweep
    # them so a chaos-heavy fleet leaves the store as clean as a calm
    # one.
    _sweep_markers(store, spec.name, names, horizon=lease_ttl)
    done_after = completed_cells(store, spec.name) & cells
    executed = len(done_after - done_before)
    failures: list[dict[str, str]] = []
    seen_failed: set[str] = set()
    for report in reports:
        for failure in report.get("failed", ()):
            cell = failure.get("cell")
            if cell in done_after or cell in seen_failed:
                continue
            seen_failed.add(cell)
            failures.append(failure)
    interrupted = interrupted or any(
        report.get("interrupted") for report in reports
    )
    get_bus().event(
        "campaign.fleet.finish", campaign=spec.name, workers=workers,
        crashed=crashed, executed=executed, failed=len(failures),
        interrupted=interrupted, seconds=time.perf_counter() - start,
    )
    return CampaignReport(
        name=spec.name,
        total=len(cells),
        skipped=len(done_before),
        executed=executed,
        failed=failures,
        seconds=time.perf_counter() - start,
        deferred=sum(int(report.get("deferred", 0)) for report in reports),
        interrupted=interrupted,
    )
