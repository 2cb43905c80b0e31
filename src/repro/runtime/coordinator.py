"""Elastic campaign coordination: heartbeats, leases, work stealing.

A lone :func:`~repro.runtime.campaign.run_campaign` takes part in no
protocol; dividing a sweep *a priori* between invocations would strand
a dead or slow one's part until a human re-invoked it.  This module is
the one way several invocations share a sweep: a **lease-based pull
loop** over the shared store ledger — the campaign layer's only
mutual-exclusion protocol — so any number of workers — joining late,
crashing, hanging or draining out — converge the campaign
cooperatively (each wave they win runs through the campaign module's
one wave body, ``_Sweep.run_wave``):

* **Membership.** Each worker registers a *heartbeat marker* (kind
  :data:`MEMBER_KIND`) and renews it from a background thread every
  third of the lease TTL.  A worker whose newest heartbeat is older
  than the TTL is dead: its leases become stealable immediately, and a
  draining worker deregisters outright so survivors do not even wait
  out the TTL.
* **Leases.** Pending cells are pulled in batches; each pulled cell is
  leased (a marker of kind :data:`LEASE_KIND`) with the owner, an
  **epoch** counter and a creation stamp.  The heartbeat thread renews held
  leases while the wave executes — but stops renewing once the wave has
  provably overrun its :func:`~repro.runtime.service.batch_budget`
  deadline, so even a worker hung past every enforcement tier loses its
  leases.
* **Stealing.** A lease is *live* while its newest record is fresher
  than the TTL **and** its owner's heartbeat is live.  Anything else is
  stolen: the thief writes a lease at ``epoch + 1``.  Lease resolution
  is deterministic for everyone — highest epoch wins, ties resolve on
  ``(created, owner)`` — so a resurrected owner's late
  renewal (old epoch) defers to the thief instead of fighting it.
* **Exactly-once ledger.** Every cell's artifact derives only from the
  cell's own identity, so the pathological races (two workers executing
  one cell during a steal window, a resurrected worker storing after
  its thief) store bit-identical duplicates the ledger dedupes by
  digest — the campaign module's "ugly, never wrong" invariant.  The
  chaos bar: a run that loses a worker mid-wave and gains another late
  converges to a ledger digest identical to a fault-free run's.

Heartbeats and leases live on the store's **marker plane**
(:meth:`~repro.storage.base.ProfileStore.put_markers` / ``markers`` /
``delete_markers``, scope = the campaign name), never as profile
documents.  A wave costs two marker scans — one feeding membership,
lease resolution and stale-marker GC, one confirming the acquisition —
one batched lease write and one batched delete.  The worker's view of
the ledger is **monotone**: it re-reads ``completed_cells`` only while
the marker scan shows a foreign member or lease (or once per heartbeat
interval regardless), and otherwise advances by the cells it persisted
itself.  The ledger is append-only during a campaign, so a stale view
can only miss a rival's cell — a bit-identical duplicate, same invariant.

Fault points (:mod:`repro.faults`): ``coordinator.heartbeat`` fires on
every beat (``crash`` mode kills the worker process mid-wave — the CI
chaos smoke), ``coordinator.lease.renew`` on every lease renewal
(``error`` mode drops renewals, ageing a live worker's leases into
stealability), ``coordinator.steal`` on every steal attempt.

Telemetry: ``campaign.member.join`` / ``campaign.member.leave`` /
``campaign.member.steal`` events, ``coordinator.steals`` /
``coordinator.waves`` / ``coordinator.ledger.rescans`` counters,
``coordinator.lease.age.seconds`` histogram (lease age at steal time)
and a ``coordinator.members`` gauge.
"""

from __future__ import annotations

import contextlib
import secrets
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.core.errors import ConfigError
from repro.faults import inject
from repro.runtime.campaign import (
    DEFAULT_CHECKPOINT,
    CampaignReport,
    CampaignSpec,
    _store_op,
    _sweep,
    completed_cells,
    new_member,
)
from repro.runtime.service import RunService, batch_budget
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_KIND",
    "MEMBER_KIND",
    "LeaseRecord",
    "elastic_worker",
    "lease_records",
    "live_members",
    "resolve_lease",
    "run_elastic",
]

#: Marker kind of member heartbeats (field ``member``).
MEMBER_KIND = "member"

#: Marker kind of cell leases (fields ``cell``, ``owner``, ``epoch``).
LEASE_KIND = "lease"

#: Seconds a lease (and a member heartbeat) stays live without renewal.
#: Heartbeats renew at TTL/3, so takeover latency after a hard crash is
#: ~one TTL.
DEFAULT_LEASE_TTL = 60.0

#: Markers (leases, heartbeats) older than ``ttl * this`` are garbage —
#: long dead, long since stolen from — and are deleted by whichever
#: worker's wave scan sees them.
STALE_MARKER_FACTOR = 4.0

#: Clock behind the periodic ledger re-read (a seam for tests).
_reread_clock = time.monotonic


def _heartbeat_interval(ttl: float) -> float:
    return max(0.05, ttl / 3.0)


def _poll_interval(ttl: float) -> float:
    """How long a worker with nothing stealable waits before rescanning."""
    return min(1.0, max(0.05, ttl / 4.0))


@dataclass(frozen=True)
class LeaseRecord:
    """One stored lease marker."""

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

    Malformed markers — a stranger's, or a newer version's — are
    skipped, never fatal.
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
                record = LeaseRecord(
                    fields["cell"], fields["owner"], int(fields["epoch"]),
                    marker.created, marker.id,
                )
            except (KeyError, ValueError):
                continue
            leases.setdefault(record.digest, []).append(record)
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
    """All lease markers of campaign ``name``, grouped by cell digest."""
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
    minimum.  The
    winning lease is *alive* while its newest record is fresher than
    ``ttl`` **and** its owner appears in ``live`` — a deregistered or
    dead owner's lease is stealable immediately, which is what makes
    the SIGTERM drain hand work over without waiting out the TTL.
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


def _lease_row(digest: str, worker: str, epoch: int) -> dict[str, Any]:
    return {"cell": digest, "owner": worker, "epoch": epoch}


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

    All store traffic from this thread is serialised against the main
    pull loop through ``lock`` (profile stores are not thread-safe) and
    is strictly best-effort: a failed beat is a *dropped* heartbeat —
    survivable by design, and exactly what the ``coordinator.heartbeat``
    / ``coordinator.lease.renew`` fault points simulate.

    Lease renewal keeps two markers per held cell: the **anchor** (the
    acquire-time marker, whose ``created`` stamp is the cell's priority
    in same-epoch tie-breaks) and the newest renewal.  A beat writes all
    renewals in one batch and deletes everything they supersede in one
    more.  Renewals past the wave ``deadline`` are withheld — the
    deadline plumbing that lets survivors steal from a worker hung
    beyond its whole :func:`~repro.runtime.service.batch_budget`.
    """

    def __init__(
        self, store: Any, lock: threading.Lock, campaign: str, worker: str,
        ttl: float,
    ) -> None:
        super().__init__(name=f"heartbeat-{worker}", daemon=True)
        self.store = store
        self.lock = lock
        self.campaign = campaign
        self.worker = worker
        self.ttl = ttl
        self.interval = _heartbeat_interval(ttl)
        self._halt = threading.Event()
        self._state = threading.Lock()
        self._member_id: str | None = None
        #: digest -> {"epoch": int, "anchor": id, "renewal": id | None}
        self._held: dict[str, dict[str, Any]] = {}
        self._deadline: float | None = None

    def _put_member(self) -> str:
        [marker_id] = self.store.put_markers(
            self.campaign, MEMBER_KIND, [{"member": self.worker}]
        )
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

        ``budget`` is the wave's wall-clock bound: past it renewals stop
        and the leases age into stealability (``None`` = renew as long
        as this process lives).
        """
        with self._state:
            for digest, (epoch, anchor) in leases.items():
                self._held[digest] = {
                    "epoch": epoch, "anchor": anchor, "renewal": None,
                }
            self._deadline = (
                None if budget is None else time.monotonic() + budget
            )

    def release(self) -> list[str]:
        """Stop renewing all held leases; returns their marker ids."""
        with self._state:
            held, self._held = self._held, {}
            self._deadline = None
        ids: list[str] = []
        for state in held.values():
            ids.append(state["anchor"])
            if state["renewal"] is not None:
                ids.append(state["renewal"])
        return ids

    def deregister(self) -> list[str]:
        """Stop the thread; returns every marker id still to delete."""
        self._halt.set()
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
            if self._deadline is not None and time.monotonic() > self._deadline:
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
        if not renewing:
            return []
        try:
            ids = self.store.put_markers(
                self.campaign, LEASE_KIND,
                [_lease_row(digest, self.worker, epoch)
                 for digest, epoch, _anchor in renewing],
            )
        except Exception:  # noqa: BLE001 - dropped renewals, survivable
            return []
        superseded: list[str] = []
        with self._state:
            for (digest, _epoch, anchor), marker_id in zip(renewing, ids):
                current = self._held.get(digest)
                if current is None or current["anchor"] != anchor:
                    superseded.append(marker_id)  # released while we renewed
                    continue
                if current["renewal"] is not None:
                    superseded.append(current["renewal"])
                current["renewal"] = marker_id
        return superseded


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

    The worker joins the campaign's membership (heartbeat + background
    renewal), then pulls **leased batches** of pending cells until the
    ledger is complete: free cells are leased outright, cells whose
    lease has gone stale — owner crashed, hung past its batch budget,
    or drained away — are stolen at a bumped epoch.  Each wave goes
    through the body ``run_campaign`` uses too (``_Sweep.run_wave``: run
    service, one ``put_many``, the ``campaign.wave.finish`` summary)
    before its leases are released, so an interruption loses at most
    one wave of work and any number of workers can run this function
    concurrently against the same store (locally or from different
    hosts).

    ``stop`` drains gracefully: the in-flight wave finishes and
    persists, held leases are released and the membership deregisters —
    survivors steal the remainder immediately instead of waiting out
    ``lease_ttl``.  ``limit`` caps the cells executed by *this* worker.

    Returns the familiar :class:`CampaignReport`; ``remaining`` counts
    sweep-wide missing cells, so a worker that drained early (or
    deferred cells to live rivals) reports ``complete=False`` while the
    fleet as a whole still converges.
    """
    if worker is None:
        worker = new_member()
    if any(c in worker for c in "=,\n"):
        raise ConfigError(
            f"worker name {worker!r} must be free of '=', ',' and newlines"
        )
    if lease_ttl <= 0:
        raise ConfigError("lease_ttl must be positive")
    bus = get_bus()
    registry = get_registry()
    lock = threading.Lock()

    def locked_op(what: str, fn: Callable[[], Any]) -> Any:
        with lock:
            return _store_op(what, fn)

    step = max(1, batch)
    # The sweep's ``done`` is this worker's view of the ledger.
    # Monotone: it only grows — by our own persisted cells, and by a
    # re-read whenever rivals are visible or a heartbeat interval has
    # passed.  A pair's first wave declares the cells of it still
    # missing from that view — rivals may take some of them.
    with _sweep(
        spec, store, member=worker, service=service, processes=processes,
        progress=progress, store_op=locked_op,
    ) as sweep:
        name = sweep.spec.name
        reread_at = _reread_clock()
        reread_every = _heartbeat_interval(lease_ttl)
        heartbeat = _Heartbeat(store, lock, name, worker, lease_ttl)
        heartbeat.register()
        heartbeat.start()
        members = live_members(store, name, lease_ttl)
        registry.set_gauge("coordinator.members", float(len(members)))
        bus.event(
            "campaign.member.join", campaign=name, member=worker,
            members=sorted(members), lease_ttl=lease_ttl,
        )
        wave_no = 0
        garbage: list[str] = []  # stale marker ids riding on the next delete
        won: dict[str, tuple[int, str]] = {}

        @contextlib.contextmanager
        def held(requests):
            """Renew the wave's leases while it runs; drop them after."""
            heartbeat.hold(won, batch_budget(requests))
            try:
                yield
            finally:
                with lock:
                    _drop(store, heartbeat.release() + garbage)
                garbage.clear()

        try:
            while True:
                if stop is not None and stop():
                    sweep.interrupt(wave_no)
                    break
                if limit is not None and sweep.executed >= limit:
                    sweep.truncated = True
                    break
                # Markers first, ledger second: a rival that finished a
                # cell and released its lease in between is then caught
                # by the re-read instead of looking like a free cell.
                scan = locked_op("marker.scan", lambda: store.markers(name))
                now = time.time()
                beats, leases = _split(scan)
                members = _live(beats, lease_ttl, now)
                registry.set_gauge("coordinator.members", float(len(members)))
                garbage[:] = [
                    marker.id for marker in scan
                    if now - marker.created > lease_ttl * STALE_MARKER_FACTOR
                ]
                if (
                    any(_owner(marker) != worker for marker in scan)
                    or _reread_clock() - reread_at > reread_every
                ):
                    registry.inc("coordinator.ledger.rescans")
                    sweep.reread()
                    reread_at = _reread_clock()
                pending = sweep.pending()
                if not pending:
                    break
                failed = {failure["cell"] for failure in sweep.failures}
                workable = [c.digest for c in pending if c.digest not in failed]
                if not workable:
                    break  # everything left already failed here; give up
                # Deal this wave: free cells first, then stale leases to
                # steal.  Cells under a live rival's lease are deferred.
                step_now = step
                if limit is not None:
                    step_now = min(step, limit - sweep.executed)
                to_acquire: list[tuple[str, int]] = []
                to_steal: list[tuple[str, int, LeaseState]] = []
                blocked = 0
                for digest in workable:
                    if len(to_acquire) + len(to_steal) >= step_now:
                        break
                    state = resolve_lease(
                        leases.get(digest, []), now, lease_ttl, members
                    )
                    if state is None:
                        to_acquire.append((digest, 1))
                    elif state.alive and state.owner != worker:
                        blocked += 1
                    elif state.alive and state.owner == worker:
                        # A leftover of our own (failed release): renew
                        # in place at the same epoch.
                        to_acquire.append((digest, state.epoch))
                    else:
                        to_steal.append((digest, state.epoch + 1, state))
                if not to_acquire and not to_steal:
                    if not blocked:
                        # Nothing acquirable and nobody live holds the
                        # pending cells (all remaining failed here).
                        break
                    # Live rivals hold everything pending — or leases
                    # that look alive whose owners are gone, and will age
                    # past the TTL: wait rather than busy-scan (a stop
                    # request ends the wait and is seen at the top).
                    _wait(stop, _poll_interval(lease_ttl))
                    continue
                wanted = list(to_acquire)
                for digest, epoch, state in to_steal:
                    try:
                        # An injected fault here is a failed takeover
                        # (store rejected the steal write): the cell
                        # stays deferred this wave and is re-examined
                        # on the next scan.
                        inject("coordinator.steal", key=digest)
                    except Exception:  # noqa: BLE001 - injected steal failure
                        sweep.deferred += 1
                        continue
                    age = now - state.renewed
                    registry.inc("coordinator.steals")
                    registry.observe("coordinator.lease.age.seconds", age)
                    bus.event(
                        "campaign.member.steal", level="warning",
                        campaign=name, member=worker, cell=digest,
                        from_owner=state.owner, epoch=epoch, lease_age=age,
                    )
                    wanted.append((digest, epoch))
                    sweep.stolen += 1
                if not wanted:
                    _wait(stop, _poll_interval(lease_ttl))
                    continue
                rows = [
                    _lease_row(digest, worker, epoch)
                    for digest, epoch in wanted
                ]
                anchor_ids = locked_op(
                    "lease.put",
                    lambda: store.put_markers(name, LEASE_KIND, rows),
                )
                # Confirm: re-read and keep only the cells we actually
                # won — a racing rival acquiring/stealing the same cell
                # resolves deterministically for everyone.
                try:
                    _, confirm = _split(locked_op(
                        "lease.confirm", lambda: store.markers(name)
                    ))
                except BaseException:
                    # Nobody owns the anchors yet: delete them or the
                    # cells stay deferred to our corpse for a whole TTL.
                    with lock:
                        _drop(store, anchor_ids)
                    raise
                now = time.time()
                won.clear()
                lost_ids: list[str] = []
                for (digest, epoch), anchor in zip(wanted, anchor_ids):
                    state = resolve_lease(
                        confirm.get(digest, []), now, lease_ttl, {worker: now}
                    )
                    if (
                        state is not None
                        and state.owner == worker
                        and state.epoch == epoch
                    ):
                        won[digest] = (epoch, anchor)
                    else:
                        sweep.deferred += 1
                        lost_ids.append(anchor)
                if lost_ids:
                    with lock:
                        _drop(store, lost_ids)
                if not won:
                    continue
                wave_no += 1
                registry.inc("coordinator.waves")
                # Waves: this one and, at this batch size, the ones the
                # cells still takeable after it would fill.
                rest = len(workable) - len(won)
                if limit is not None:
                    rest = min(rest, limit - sweep.executed - len(won))
                sweep.run_wave(
                    wave_no, wave_no + -(-rest // step),
                    [sweep.cells[digest] for digest in won], held,
                )
        finally:
            with lock:
                _drop(store, heartbeat.deregister() + garbage)
            bus.event(
                "campaign.member.leave", campaign=name, member=worker,
                executed=sweep.executed, stolen=sweep.stolen,
                interrupted=sweep.interrupted,
            )
    # ``skipped`` counts everything completed by someone else — at start
    # or by rivals while we ran — as of this last read.
    sweep.reread()
    return sweep.report()


def _wait(stop: Callable[[], bool] | None, seconds: float) -> None:
    """Sleep in small slices, until ``stop`` asks for an end at the latest."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline and not (stop is not None and stop()):
        time.sleep(min(0.02, seconds))


# -- local fleets -------------------------------------------------------------


def _fleet_child(
    spec_data: dict[str, Any],
    store_url: str,
    worker: str,
    lease_ttl: float,
    batch: int,
    queue: Any,
) -> None:
    """Entry point of one fleet worker process."""
    import signal  # noqa: PLC0415 - child-only setup

    from repro.storage import open_store  # noqa: PLC0415 - child-only

    stop_flag = {"stop": False}

    def _drain(signum, frame) -> None:  # noqa: ARG001 - signal signature
        stop_flag["stop"] = True

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)
    store = open_store(store_url)
    report = elastic_worker(
        CampaignSpec.from_dict(spec_data),
        store,
        worker=worker,
        lease_ttl=lease_ttl,
        batch=batch,
        processes=1,  # serial inside the child; the fleet is the pool
        stop=lambda: stop_flag["stop"],
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
    fleet shares state only through the store, exactly like a
    multi-host deployment) executing cells serially — the fleet *is*
    the pool.  Workers inherit the active fault plan through
    ``REPRO_FAULTS``, so chaos rules with cross-process ``fuse`` files
    can kill exactly one of them mid-wave; survivors steal the dead
    worker's leases and the campaign still converges.  A worker can be
    attached to the same campaign later (another ``run_elastic``, a
    ``--join`` CLI invocation, a different host) — late joiners simply
    become members and start pulling.

    ``stop`` drains the whole fleet: children receive SIGTERM, finish
    their in-flight wave, release leases and deregister.  The report
    aggregates the fleet run from the ledger itself (a crashed child
    reports nothing — the ledger is the truth).
    """
    import multiprocessing  # noqa: PLC0415 - fleet-only dependency

    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    if workers < 1:
        raise ConfigError("run_elastic needs at least one worker")
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
            args=(
                spec_to_dict(spec), store_url, name,
                lease_ttl, batch, queue,
            ),
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


def spec_to_dict(spec: CampaignSpec) -> dict[str, Any]:
    """Serialise a spec back to its JSON form (fleet child handoff)."""
    data: dict[str, Any] = {
        "name": spec.name,
        "kind": spec.kind,
        "apps": list(spec.apps),
        "machines": list(spec.machines),
        "seeds": list(spec.seeds),
        "repeats": spec.repeats,
        "noisy": spec.noisy,
        "config": dict(spec.config),
        "tags": dict(spec.tags),
    }
    if spec.policy is not None:
        data["policy"] = {
            "retries": spec.policy.retries,
            "timeout": spec.policy.timeout,
            "backoff": spec.policy.backoff,
            "jitter": spec.policy.jitter,
        }
    return data
