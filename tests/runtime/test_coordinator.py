"""Elastic coordinator: leases, heartbeats, stealing, convergence.

The elastic plane's whole claim is that a fleet of workers — joining
late, crashing, hanging, draining — converges a campaign to the exact
ledger a fault-free single run produces; that claim across backends,
topologies, kills and fault plans is the property in
``test_campaign_determinism.py``.  These tests pin the lease resolution
algebra directly, drive the heartbeat's renewal bookkeeping
deterministically (``beat()`` by hand on a virtual clock), and then run
real multi-worker races: thread fleets sharing one FileStore root (each
worker its own store handle — the multi-process sharing model), seeded
fault plans dropping heartbeats, and a resurrected worker finishing a
wave its thief already re-executed.  No test waits
for wall time to pass: lease expiry follows a clock the test advances,
and thread interleavings follow events.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time

import pytest

from repro.core.errors import ConfigError
from repro.faults.plan import FaultPlan, InjectedFault
from repro.faults.inject import injected_faults
from repro.runtime import (
    CampaignSpec,
    RunService,
    completed_cells,
    elastic_worker,
    lease_records,
    ledger_digest,
    live_members,
    resolve_lease,
    run_campaign,
    run_elastic,
)
from repro.runtime.campaign import STORE_ATTEMPTS, _sweep, new_member
from repro.runtime.coordinator import (
    CELL_SEP,
    LEASE_KIND,
    MEMBER_KIND,
    LeaseRecord,
    _Heartbeat,
    _lease_row,
    _split,
    _Worker,
)
from repro.storage import FileStore, open_store
from repro.storage.base import Marker, MemoryStore
from repro.storage.mongostore import MongoLite, MongoStore
from repro.telemetry import MemorySink, get_bus
from repro.telemetry.metrics import get_registry

from tests.runtime.conftest import VirtualClock, failing
from tests.runtime.conftest import ledger_dict as _ledger_dict

SPEC = {
    "name": "elastic-camp",
    "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1],
    "repeats": 1,
    "config": {"sample_rate": 2.0},
}


@pytest.fixture(scope="module")
def reference():
    """Fault-free unsharded ledger — the convergence target."""
    spec = CampaignSpec.from_dict(SPEC)
    store = MemoryStore()
    assert run_campaign(spec, store).complete
    return spec, _ledger_dict(store, spec.name)


@pytest.fixture
def sink():
    memory = get_bus().add_sink(MemorySink())
    yield memory
    get_bus().remove_sink(memory)


def serial() -> RunService:
    return RunService(processes=1)


def record(digest, owner, epoch, created, id="x") -> LeaseRecord:
    return LeaseRecord(digest, owner, epoch, created, id)


def marker_count(store, name: str) -> int:
    return len(store.markers(name))


def put_member(store, name: str, member: str, created: float) -> str:
    [marker_id] = store.put_markers(
        name, MEMBER_KIND, [{"member": member}], created=created
    )
    return marker_id


def put_lease(store, name, digest, owner, epoch, created=None) -> str:
    [marker_id] = store.put_markers(
        name, LEASE_KIND, [_lease_row(digest, owner, epoch)], created=created
    )
    return marker_id


def drive(spec, store, clock, worker, ttl=30.0, batch=8, progress=None,
          after_step=None):
    """What :func:`elastic_worker` does, on the test's ``clock``: join,
    run the heartbeat thread, step until done, leave.  ``after_step``
    sees the worker after each step (to pause it at a phase).  Nothing
    sleeps: a worker that goes idle rescans at once, spinning until some
    other thread moves ``clock``."""
    with _sweep(
        spec, store, member=worker, service=serial(), progress=progress
    ) as sweep:
        steps = _Worker(sweep, ttl, batch, clock=clock)
        steps.join()
        steps.heartbeat.start()
        try:
            while steps.step() != "done":
                if after_step is not None:
                    after_step(steps)
        finally:
            steps.leave()
    sweep.reread()
    return sweep.report()


class TestResolveLease:
    NOW = 1000.0

    def test_no_records_is_free(self):
        assert resolve_lease([], self.NOW, 10.0) is None

    def test_fresh_live_owner_holds(self):
        state = resolve_lease(
            [record("d", "a", 1, self.NOW - 1)], self.NOW, 10.0, {"a": self.NOW}
        )
        assert state.owner == "a" and state.epoch == 1 and state.alive

    def test_stale_record_is_stealable(self):
        state = resolve_lease(
            [record("d", "a", 1, self.NOW - 60)], self.NOW, 10.0, {"a": self.NOW}
        )
        assert not state.alive

    def test_dead_member_is_stealable_even_when_fresh(self):
        """A deregistered/crashed owner's lease dies with its heartbeat —
        the drain path's immediate-takeover guarantee."""
        state = resolve_lease(
            [record("d", "a", 1, self.NOW - 1)], self.NOW, 10.0, live={}
        )
        assert state.owner == "a" and not state.alive

    def test_highest_epoch_wins_over_earlier_created(self):
        """A steal (epoch+1) supersedes the victim's records outright,
        however early the victim's stamps are."""
        state = resolve_lease(
            [
                record("d", "victim", 1, self.NOW - 100),
                record("d", "thief", 2, self.NOW - 1),
            ],
            self.NOW, 10.0, {"victim": self.NOW, "thief": self.NOW},
        )
        assert state.owner == "thief" and state.epoch == 2 and state.alive

    def test_resurrected_victim_late_renewal_defers_to_thief(self):
        """The resurrection race: the victim wakes up and renews at its
        old epoch *after* the steal — the thief still wins."""
        state = resolve_lease(
            [
                record("d", "victim", 1, self.NOW - 100),
                record("d", "thief", 2, self.NOW - 5),
                record("d", "victim", 1, self.NOW),  # late renewal
            ],
            self.NOW, 10.0, {"victim": self.NOW, "thief": self.NOW},
        )
        assert state.owner == "thief" and state.epoch == 2

    def test_same_epoch_race_resolves_on_created_then_owner(self):
        earlier = resolve_lease(
            [record("d", "b", 1, self.NOW - 2), record("d", "a", 1, self.NOW - 1)],
            self.NOW, 10.0, {"a": self.NOW, "b": self.NOW},
        )
        assert earlier.owner == "b"
        tied = resolve_lease(
            [record("d", "b", 1, self.NOW - 1), record("d", "a", 1, self.NOW - 1)],
            self.NOW, 10.0, {"a": self.NOW, "b": self.NOW},
        )
        assert tied.owner == "a"

    def test_freshness_judged_on_winning_owners_newest_record(self):
        """An old anchor plus a fresh renewal = alive: renewals keep the
        lease fresh while the anchor keeps its tie-break priority."""
        state = resolve_lease(
            [
                record("d", "a", 1, self.NOW - 100),  # anchor
                record("d", "a", 1, self.NOW - 1),    # renewal
            ],
            self.NOW, 10.0, {"a": self.NOW},
        )
        assert state.alive and state.renewed == self.NOW - 1


class TestMembership:
    def test_live_members_filters_stale_heartbeats(self):
        store = MemoryStore()
        now = time.time()
        for member, age in (("fresh", 1.0), ("stale", 50.0)):
            put_member(store, "m", member, now - age)
        assert set(live_members(store, "m", ttl=10.0, now=now)) == {"fresh"}

    def test_newest_heartbeat_counts(self):
        store = MemoryStore()
        now = time.time()
        for age in (50.0, 1.0):
            put_member(store, "m", "w", now - age)
        assert set(live_members(store, "m", ttl=10.0, now=now)) == {"w"}


class TestHeartbeatThread:
    """Drive ``beat()`` by hand on a virtual clock — no thread, no waits."""

    def heartbeat(self, store, clock, ttl=10.0) -> _Heartbeat:
        hb = _Heartbeat(store, threading.Lock(), "hb-camp", "w1", ttl, clock)
        hb.register()
        return hb

    def beat_of(self, store, clock) -> float:
        return live_members(store, "hb-camp", 10.0, clock())["w1"]

    def test_beat_renews_member_and_keeps_one_doc(self):
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        first = self.beat_of(store, clock)
        clock.advance(1.0)
        hb.beat()
        assert marker_count(store, "hb-camp") == 1  # previous heartbeat deleted
        assert self.beat_of(store, clock) == first + 1.0

    def test_dropped_heartbeat_leaves_member_stale(self):
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        first = self.beat_of(store, clock)
        plan = FaultPlan.from_dict({
            "rules": [{"point": "coordinator.heartbeat", "mode": "error"}],
        })
        with injected_faults(plan):
            clock.advance(1.0)
            hb.beat()
        assert self.beat_of(store, clock) == first

    def test_lease_renewal_preserves_anchor_priority(self):
        """Renewals keep exactly two markers per held cell: the
        acquire-time anchor (earliest ``created`` — the same-epoch
        tie-break priority) and the newest renewal."""
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        anchor = put_lease(store, "hb-camp", "d1", "w1", 1, clock())
        hb.hold({"d1": (1, anchor)}, budget=None)
        for _ in range(3):
            clock.advance(1.0)
            hb.beat()
        records = lease_records(store, "hb-camp")["d1"]
        assert sorted(r.created for r in records) == [clock() - 3.0, clock()]
        assert {r.id for r in records} >= {anchor}

    def test_dropped_renewal_ages_the_lease(self):
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        anchor = put_lease(store, "hb-camp", "d1", "w1", 1, clock())
        hb.hold({"d1": (1, anchor)}, budget=None)
        plan = FaultPlan.from_dict({
            "rules": [{"point": "coordinator.lease.renew", "mode": "error"}],
        })
        with injected_faults(plan):
            hb.beat()
        # Member heartbeat still renewed; the lease was not.
        assert len(lease_records(store, "hb-camp")["d1"]) == 1

    def test_renewals_stop_past_wave_deadline(self):
        """A wave hung beyond its whole batch budget loses its leases:
        the heartbeat keeps the *member* alive but stops defending the
        overrun wave, so survivors can steal it."""
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        anchor = put_lease(store, "hb-camp", "d1", "w1", 1, clock())
        hb.hold({"d1": (1, anchor)}, budget=5.0)
        clock.advance(5.0)
        hb.beat()  # at the deadline: still renewed
        assert len(lease_records(store, "hb-camp")["d1"]) == 2
        before = self.beat_of(store, clock)
        clock.advance(0.5)
        hb.beat()  # past it: the member only
        assert max(r.created for r in lease_records(store, "hb-camp")["d1"]) == before
        assert self.beat_of(store, clock) == before + 0.5

    def test_release_returns_every_held_doc(self):
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        anchor = put_lease(store, "hb-camp", "d1", "w1", 1, clock())
        hb.hold({"d1": (1, anchor)}, budget=None)
        clock.advance(1.0)
        hb.beat()
        ids = hb.release()
        assert anchor in ids and len(ids) == 2
        assert hb.release() == []

    def test_renewal_is_one_marker_and_release_returns_each_id_once(self):
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        anchor = put_lease(store, "hb-camp", "d1.d2.d3", "w1", 1, clock())
        hb.hold({d: (1, anchor) for d in ("d1", "d2", "d3")}, budget=None)
        for _ in range(2):
            clock.advance(1.0)
            hb.beat()
        leases = [m for m in store.markers("hb-camp") if m.kind == LEASE_KIND]
        assert len(leases) == 2  # the anchor and the newest renewal
        ids = hb.release()
        assert sorted(ids) == sorted(m.id for m in leases)
        assert len(set(ids)) == len(ids)

    def test_a_dropped_renewal_keeps_that_cells_previous_one(self):
        store, clock = MemoryStore(), VirtualClock()
        hb = self.heartbeat(store, clock)
        anchor = put_lease(store, "hb-camp", "d1.d2.d3", "w1", 1, clock())
        hb.hold({d: (1, anchor) for d in ("d1", "d2", "d3")}, budget=None)
        clock.advance(1.0)
        hb.beat()
        [first] = {r.id for r in lease_records(store, "hb-camp")["d2"]} - {anchor}
        plan = FaultPlan.from_dict({"rules": [
            {"point": "coordinator.lease.renew", "mode": "error", "at": 2},
        ]})
        with injected_faults(plan):  # d2's renewal (the second) is dropped
            clock.advance(1.0)
            hb.beat()
        records = lease_records(store, "hb-camp")
        assert {r.id for r in records["d2"]} == {anchor, first}
        assert max(r.created for r in records["d2"]) == clock() - 1.0
        for digest in ("d1", "d3"):
            assert max(r.created for r in records[digest]) == clock()
            assert first in {r.id for r in records[digest]}  # still d2's
        clock.advance(1.0)
        hb.beat()  # all renewed again: the first renewal goes at last
        records = lease_records(store, "hb-camp")
        assert all(
            {r.created for r in records[d]} == {clock() - 3.0, clock()}
            for d in ("d1", "d2", "d3")
        )
        assert len(hb.release()) == 2


class TestLeaseMarkers:
    """One lease marker per (wave, epoch): its ``cell`` field joins the
    wave's digests, and a scan expands it into one record per cell."""

    def test_split_expands_a_marker_into_records_sharing_its_id(self):
        marker = Marker(
            "m1", LEASE_KIND, {"cell": "a.b.c", "owner": "w", "epoch": "2"}, 5.0
        )
        _, leases = _split([marker])
        assert leases == {
            digest: [LeaseRecord(digest, "w", 2, 5.0, "m1")] for digest in "abc"
        }

    def test_a_single_cell_marker_still_resolves(self):
        """A one-digest marker — the only shape an older worker writes —
        is one record, resolved as before."""
        store = MemoryStore()
        put_member(store, "lm-camp", "old", 100.0)
        marker_id = put_lease(store, "lm-camp", "d1", "old", 3, created=100.0)
        records = lease_records(store, "lm-camp")
        assert records == {"d1": [LeaseRecord("d1", "old", 3, 100.0, marker_id)]}
        state = resolve_lease(records["d1"], 101.0, 10.0, {"old"})
        assert (state.owner, state.epoch, state.alive) == ("old", 3, True)

    def test_a_fresh_wave_is_one_marker(self):
        spec = CampaignSpec.from_dict(SPEC)
        store, clock = MemoryStore(), VirtualClock()
        with _sweep(spec, store, member="w1", service=serial()) as sweep:
            steps = _Worker(sweep, 30.0, 3, clock=clock)
            steps.join()
            while steps.phase != "execute":
                steps.step()
            [lease] = [m for m in store.markers(spec.name) if m.kind == LEASE_KIND]
            assert lease.fields["cell"].split(CELL_SEP) == list(steps.won)
            assert {anchor for _, anchor in steps.won.values()} == {lease.id}
            steps.leave()

    def test_a_partly_won_marker_stays_until_release(self, tmp_path):
        """A rival leases one of the wave's cells between deal and
        acquire: the wave keeps the rest, its marker stays (the lost
        cell resolving to the rival's older record) until release."""
        spec = CampaignSpec.from_dict(SPEC)
        store, clock = FileStore(tmp_path / "s"), VirtualClock()
        with _sweep(spec, store, member="w1", service=serial()) as sweep:
            steps = _Worker(sweep, 30.0, 3, clock=clock)
            steps.join()
            assert steps.step() == "deal" and steps.step() == "acquire"
            first, *rest = [digest for digest, _ in steps.wanted]
            put_member(store, spec.name, "rival", clock())
            put_lease(store, spec.name, first, "rival", 1, created=clock() - 1)
            assert steps.step() == "execute"
            assert list(steps.won) == rest and sweep.deferred == 1
            [anchor] = {anchor for _, anchor in steps.won.values()}
            records = lease_records(store, spec.name)
            assert anchor in {record.id for record in records[first]}
            live = live_members(store, spec.name, 30.0, clock())
            assert resolve_lease(records[first], clock(), 30.0, live).owner == "rival"
            assert steps.step() == "release" and steps.step() == "scan"
            assert anchor not in {m.id for m in store.markers(spec.name)}
            after = lease_records(store, spec.name)[first]
            assert {record.owner for record in after} == {"rival"}
            steps.leave()

    @pytest.mark.parametrize("backend", ["file", "mongo"])
    def test_a_sixteen_cell_lease_round_trips(self, tmp_path, backend):
        """Past about ten cells a FileStore lease name outgrows 255
        bytes and spills to the file body; Mongo keeps it as fields."""
        store = open_store("mongo://" if backend == "mongo" else f"file://{tmp_path}")
        owner = new_member()
        cells = [f"{index:016x}" for index in range(16)]
        marker_id = put_lease(store, "lm-camp", CELL_SEP.join(cells), owner, 2, 100.0)
        if backend == "file":
            assert marker_id.endswith(",@")
        records = lease_records(store, "lm-camp")
        assert records == {
            cell: [LeaseRecord(cell, owner, 2, 100.0, marker_id)] for cell in cells
        }
        store.delete_markers([marker_id])
        assert lease_records(store, "lm-camp") == {}

    def test_a_wave_of_eight_fits_one_file_name(self, tmp_path):
        store = FileStore(tmp_path / "s")
        cells = [f"{index:016x}" for index in range(8)]
        marker_id = put_lease(store, "lm-camp", CELL_SEP.join(cells), new_member(), 1)
        assert not marker_id.endswith(",@")


class TestElasticWorkerSingle:
    def test_converges_to_reference_ledger(self, tmp_path, reference):
        spec, expected = reference
        store = FileStore(tmp_path / "s")
        report = elastic_worker(
            spec, store, worker="solo", lease_ttl=5.0, service=serial()
        )
        assert report.complete and report.executed == spec.n_cells
        assert _ledger_dict(store, spec.name) == expected
        assert marker_count(store, spec.name) == 0

    def test_resume_skips_ledger_cells(self, tmp_path, reference):
        spec, _ = reference
        store = FileStore(tmp_path / "s")
        elastic_worker(spec, store, lease_ttl=5.0, service=serial())
        report = elastic_worker(spec, store, lease_ttl=5.0, service=serial())
        assert report.executed == 0 and report.skipped == spec.n_cells
        assert report.complete

    def test_limit_truncates_and_resumes(self, tmp_path, reference):
        spec, expected = reference
        store = FileStore(tmp_path / "s")
        report = elastic_worker(
            spec, store, lease_ttl=5.0, limit=3, service=serial()
        )
        assert report.executed == 3 and report.truncated
        assert not report.complete
        rest = elastic_worker(spec, store, lease_ttl=5.0, service=serial())
        assert rest.complete
        assert _ledger_dict(store, spec.name) == expected

    def test_stop_drains_and_deregisters(self, tmp_path, reference):
        spec, _ = reference
        store = FileStore(tmp_path / "s")
        report = elastic_worker(
            spec, store, lease_ttl=5.0, service=serial(), stop=lambda: True
        )
        assert report.interrupted and report.executed == 0
        assert marker_count(store, spec.name) == 0  # member deregistered

    def test_a_failed_join_leaves_no_member_marker(self, tmp_path, reference):
        """The join's marker scan runs out of store retries: the error
        propagates and the member marker the join wrote goes with it.
        The first ``store.entries`` hit is the sweep's ledger read; a
        rule stops counting hits once one before it fires, so each of
        these rules fires on the next hit from the second on."""
        spec, _ = reference
        store = FileStore(tmp_path / "s")
        plan = FaultPlan.from_dict({"rules": [
            {"point": "store.entries", "mode": "error", "at": 2}
        ] * STORE_ATTEMPTS})
        with injected_faults(plan), pytest.raises(InjectedFault):
            elastic_worker(spec, store, worker="w", lease_ttl=5.0, service=serial())
        assert store.markers(spec.name) == []

    def test_mixed_failures_recorded_not_stored(self, tmp_path):
        spec = CampaignSpec.from_dict(
            dict(SPEC, name="elastic-bad", apps=["sleeper:sleep_seconds=1",
                                                 "sleeper:sleep_seconds=2"])
        )
        store = FileStore(tmp_path / "s")
        with injected_faults(failing(spec, "sleeper:sleep_seconds=2")):
            report = elastic_worker(spec, store, lease_ttl=5.0, service=serial())
        assert report.executed == spec.n_cells // 2
        assert len(report.failed) == spec.n_cells // 2
        assert not report.complete
        assert len(completed_cells(store, spec.name)) == spec.n_cells // 2
        # ... and the worker terminated instead of retrying its own
        # failures forever (every pending cell is locally failed).

    def test_rejects_bad_worker_names_and_ttl(self, tmp_path):
        spec = CampaignSpec.from_dict(SPEC)
        store = FileStore(tmp_path / "s")
        with pytest.raises(ConfigError):
            elastic_worker(spec, store, worker="a=b", service=serial())
        with pytest.raises(ConfigError):
            elastic_worker(spec, store, lease_ttl=0.0, service=serial())

    def test_events_and_metrics(self, tmp_path, sink, reference):
        spec, _ = reference
        store = FileStore(tmp_path / "s")
        elastic_worker(spec, store, worker="obs", lease_ttl=5.0,
                       service=serial())
        [join] = sink.named("campaign.member.join")
        [leave] = sink.named("campaign.member.leave")
        assert join.attrs["member"] == "obs" == leave.attrs["member"]
        assert leave.attrs["executed"] == spec.n_cells
        assert sink.named("campaign.wave.finish")
        assert get_registry().gauge("coordinator.members") is not None


BAD_TTLS = [float("nan"), float("inf"), 0.0, -1.0, 1e300]


class TestLeaseTtl:
    """A TTL that is not a positive, finite number of seconds the
    heartbeat can wait on is a configuration error, raised before any
    work: NaN made every lease stealable, and a TTL past
    ``threading.TIMEOUT_MAX`` killed the heartbeat thread."""

    @pytest.mark.parametrize("ttl", BAD_TTLS, ids=repr)
    def test_elastic_worker_rejects(self, tmp_path, ttl):
        store = FileStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="lease_ttl"):
            elastic_worker(SPEC, store, lease_ttl=ttl, service=serial())
        assert store.count() == 0 and marker_count(store, SPEC["name"]) == 0

    @pytest.mark.parametrize("ttl", BAD_TTLS, ids=repr)
    def test_run_elastic_rejects_before_spawning(self, tmp_path, ttl):
        with pytest.raises(ConfigError, match="lease_ttl"):
            run_elastic(SPEC, f"file://{tmp_path / 's'}", lease_ttl=ttl)
        assert not (tmp_path / "s").exists()  # the store was never opened


class TestPlanScopes:
    """Every worker executes in a plan scope of its own: it declares
    the cells of a pair it saw pending, and may replay rows that a
    rival ends up executing.  None of it shows in the ledger."""

    SPEC = dict(SPEC, name="elastic-scopes", seeds=[3, 4, 5, 6], repeats=2)

    def replayed_rows(self) -> float:
        return get_registry().counter("engine.replay.rows")

    def test_lone_worker_equals_run_campaign(self):
        spec = CampaignSpec.from_dict(self.SPEC)  # 4 pairs of 8 cells
        unsharded = MemoryStore()
        assert run_campaign(spec, unsharded, service=serial()).complete
        for batch in (3, 8):
            store = MemoryStore()
            rows = self.replayed_rows()
            report = elastic_worker(
                spec, store, lease_ttl=30.0, batch=batch, service=serial()
            )
            assert report.complete and report.executed == 32
            assert self.replayed_rows() - rows == 32
            assert ledger_digest(store, spec.name) == ledger_digest(
                unsharded, spec.name
            )

    def test_two_workers_replay_rows_they_never_take(self):
        spec = CampaignSpec.from_dict(self.SPEC)
        unsharded = MemoryStore()
        assert run_campaign(spec, unsharded, service=serial()).complete
        store = MemoryStore()
        # A registered bystander keeps both workers re-reading the
        # ledger every wave, so neither re-executes the other's cells.
        put_member(store, spec.name, "bystander", time.time())
        helped: list[int] = []

        def help_out(summary) -> None:
            # After each of its waves the first worker lets a second one
            # in for one wave — in a context of its own, as a thread or
            # a process would be, so with a scope of its own.
            report = contextvars.Context().run(
                elastic_worker, spec, store, worker="second", lease_ttl=30.0,
                batch=3, limit=3, service=serial(),
            )
            helped.append(report.executed)

        rows = self.replayed_rows()
        first = elastic_worker(
            spec, store, worker="first", lease_ttl=30.0, batch=3,
            service=serial(), progress=help_out,
        )
        assert first.complete and 0 < first.executed < 32
        assert first.executed + sum(helped) == 32
        # Both declared more than they came to execute ...
        assert self.replayed_rows() - rows > 32
        # ... and every cell is in the ledger once, bit for bit.
        assert store.count() == 32
        assert ledger_digest(store, spec.name) == ledger_digest(
            unsharded, spec.name
        )


class TestTakeover:
    def age(self, ttl: float) -> float:
        """Stale against ``ttl`` but fresher than the GC horizon."""
        return ttl * 2.5

    def test_steals_dead_workers_lease(self, tmp_path, sink, reference):
        spec, expected = reference
        store = FileStore(tmp_path / "s")
        cell = spec.cells()[0]
        now = time.time()
        put_member(store, spec.name, "dead", now - self.age(1.0))
        put_lease(store, spec.name, cell.digest, "dead", 1, now - self.age(1.0))
        before = get_registry().counter("coordinator.steals")
        report = elastic_worker(
            spec, store, worker="thief", lease_ttl=1.0, service=serial()
        )
        assert report.complete
        steals = [
            event for event in sink.named("campaign.member.steal")
            if event.attrs["cell"] == cell.digest
        ]
        assert steals and steals[0].attrs["from_owner"] == "dead"
        assert steals[0].attrs["epoch"] == 2  # victim's epoch + 1
        after = get_registry().counter("coordinator.steals")
        assert after >= before + 1
        assert _ledger_dict(store, spec.name) == expected
        # The thief deregistered cleanly; the dead worker's markers are
        # stale but still inside the several-TTL GC horizon, so only
        # they may linger.
        owners = {
            marker.fields.get("member", marker.fields.get("owner"))
            for marker in store.markers(spec.name)
        }
        assert owners <= {"dead"}

    def test_defers_to_live_rival_then_takes_over(
        self, tmp_path, sink, reference
    ):
        """A fresh foreign lease defers the cell; once its owner stops
        renewing (a hang), the survivor takes it over and converges."""
        spec, expected = reference
        store = FileStore(tmp_path / "s")
        cell = spec.cells()[0]
        now = time.time()
        put_member(store, spec.name, "hung", now)
        put_lease(store, spec.name, cell.digest, "hung", 1, now)
        report = elastic_worker(
            spec, store, worker="survivor", lease_ttl=0.4, service=serial()
        )
        assert report.complete
        # The fresh lease forced a wait (the cell was not free), and the
        # takeover happened only after the rival's lease went stale.
        steals = [
            event for event in sink.named("campaign.member.steal")
            if event.attrs["cell"] == cell.digest
        ]
        assert steals and steals[0].attrs["from_owner"] == "hung"
        assert steals[0].attrs["lease_age"] >= 0.4
        assert _ledger_dict(store, spec.name) == expected

    def test_failed_steal_write_defers_then_retries(self, tmp_path, reference):
        spec, expected = reference
        store = FileStore(tmp_path / "s")
        cell = spec.cells()[0]
        put_lease(
            store, spec.name, cell.digest, "dead", 3,
            time.time() - self.age(1.0),
        )
        plan = FaultPlan.from_dict({
            "rules": [{"point": "coordinator.steal", "mode": "error", "at": 1}],
        })
        with injected_faults(plan):
            report = elastic_worker(
                spec, store, worker="w", lease_ttl=1.0, service=serial()
            )
        assert report.complete and report.deferred >= 1
        assert _ledger_dict(store, spec.name) == expected

    def test_resurrected_duplicate_artifact_is_harmless(
        self, tmp_path, reference
    ):
        """A victim that finishes *after* its cell was stolen and
        re-executed stores a bit-identical duplicate the ledger dedupes
        — 'ugly, never wrong'."""
        spec, expected = reference
        store = FileStore(tmp_path / "s")
        elastic_worker(spec, store, lease_ttl=5.0, service=serial())
        cell = spec.cells()[0]
        [artifact] = store.find(tags=[f"campaign={spec.name}",
                                      f"cell={cell.digest}"])
        store.put(artifact)  # the resurrected worker's late write
        assert _ledger_dict(store, spec.name) == expected
        assert len(completed_cells(store, spec.name)) == spec.n_cells


class TestThreadFleet:
    """Worker threads, each with its own FileStore handle on one root —
    the same sharing model as separate processes/hosts, minus the spawn
    overhead, so races are actually exercised."""

    def run_fleet(self, root, spec, workers, ttl=2.0, batch=2, staggered=False):
        """``staggered``: each worker joins once the one before it has
        persisted a wave (or left) — a fleet of late joiners."""
        reports = [None] * workers
        errors = []
        ready = [threading.Event() for _ in range(workers)]

        def work(index: int) -> None:
            try:
                if staggered and index:
                    assert ready[index - 1].wait(timeout=120)
                reports[index] = elastic_worker(
                    spec, FileStore(root), worker=f"t{index}",
                    lease_ttl=ttl, batch=batch, service=serial(),
                    progress=lambda summary: ready[index].set(),
                )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
            finally:
                ready[index].set()

        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        assert all(report is not None for report in reports)
        return reports

    def test_three_workers_converge_bit_identically(self, tmp_path, reference):
        """The determinism golden: an elastic 3-worker race produces the
        same ledger as the fault-free unsharded reference."""
        spec, expected = reference
        root = tmp_path / "s"
        reports = self.run_fleet(root, spec, workers=3)
        # At-least-once execution (an acquisition race can briefly
        # double-run a cell), exactly-once ledger: every cell ran, and
        # any duplicates are bit-identical entries deduped by digest.
        assert sum(report.executed for report in reports) >= spec.n_cells
        store = FileStore(root)
        assert _ledger_dict(store, spec.name) == expected
        assert marker_count(store, spec.name) == 0

    def test_late_joiner_attaches_and_helps(self, tmp_path, reference):
        spec, expected = reference
        root = tmp_path / "s"
        self.run_fleet(root, spec, workers=3, staggered=True)
        store = FileStore(root)
        assert _ledger_dict(store, spec.name) == expected

    def test_dropped_heartbeats_trigger_steal_and_still_converge(
        self, tmp_path, sink, reference
    ):
        """The resurrection race end to end, two threads on one virtual
        clock under a seeded FaultPlan: the victim t0 leases every cell
        in one wave and pauses before executing it; its heartbeats are
        dropped, so once the clock passes the TTL it looks dead and the
        thief t1 steals the whole wave.  Only then does t0 execute: both
        run every cell, t0's late artifacts are bit-identical duplicates
        and the ledger matches the reference."""
        spec, expected = reference
        root = tmp_path / "s"
        clock, ttl = VirtualClock(), 0.3
        acquired, stolen = threading.Event(), threading.Event()
        plan = FaultPlan.from_dict({
            "seed": 11,
            "rules": [{"point": "coordinator.heartbeat", "mode": "error",
                       "match_key": "t0"}],
        })
        reports = {}

        def victim() -> None:
            def pause(steps) -> None:
                if steps.phase == "execute" and not acquired.is_set():
                    steps.heartbeat.beat()  # dropped: the member ages
                    acquired.set()
                    assert stolen.wait(timeout=120)

            reports["t0"] = drive(
                spec, FileStore(root), clock, "t0", ttl, spec.n_cells,
                after_step=pause,
            )

        def thief() -> None:
            assert acquired.wait(timeout=120)
            clock.advance(ttl * 1.5)
            reports["t1"] = drive(
                spec, FileStore(root), clock, "t1", ttl, spec.n_cells,
                after_step=lambda steps: steps.phase == "execute" and stolen.set(),
            )

        with injected_faults(plan):
            threads = [threading.Thread(target=victim),
                       threading.Thread(target=thief)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert set(reports) == {"t0", "t1"}
        steals = [
            event for event in sink.named("campaign.member.steal")
            if event.attrs["member"] == "t1"
            and event.attrs["from_owner"] == "t0"
        ]
        assert len(steals) == spec.n_cells
        assert {event.attrs["epoch"] for event in steals} == {2}
        # Both workers executed every cell; the ledger dedupes the
        # duplicates and equals the fault-free reference.
        assert [reports[w].executed for w in ("t0", "t1")] == [spec.n_cells] * 2
        store = FileStore(root)
        assert _ledger_dict(store, spec.name) == expected
        assert marker_count(store, spec.name) == 0


class TestMarkerBudget:
    """A lone worker's marker traffic: the heartbeat, then one lease
    marker and one delete per wave, two scans per wave (deal, confirm)
    plus the join's and the last one's."""

    def test_lone_worker_writes_one_lease_marker_a_wave(self, tmp_path):
        spec = CampaignSpec.from_dict(TestMonotoneLedger.SPEC64)
        registry = get_registry()
        names = ("store.markers.put", "store.markers.delete",
                 "store.markers.scan", "coordinator.waves")
        before = {name: registry.counter(name) for name in names}
        report = elastic_worker(
            spec, FileStore(tmp_path / "s"), worker="solo", batch=8,
            lease_ttl=3600.0,  # no heartbeat beats during the run
            service=serial(),
        )
        assert report.complete and report.executed == 64
        put, delete, scan, waves = (
            registry.counter(name) - before[name] for name in names
        )
        assert waves == 8
        assert (put, delete, scan) == (waves + 1, waves + 1, 2 * waves + 2)


class TestMongoElastic:
    def test_single_worker_converges_and_expires_markers(self, reference):
        spec, expected = reference
        store = MongoStore(MongoLite())
        report = elastic_worker(
            spec, store, worker="m0", lease_ttl=5.0, service=serial()
        )
        assert report.complete
        assert _ledger_dict(store, spec.name) == expected
        assert marker_count(store, spec.name) == 0


class TestProcessFleet:
    """Real spawn-based fleets over a shared file store — the CLI's
    ``--elastic --workers N`` path, including the chaos bar: kill one
    of three workers mid-wave and still converge bit-identically."""

    def url(self, tmp_path) -> str:
        return f"file://{tmp_path / 's'}"

    def test_fleet_converges_bit_identically(self, tmp_path, reference):
        spec, expected = reference
        report = run_elastic(
            spec, self.url(tmp_path), workers=3, lease_ttl=2.0, batch=2
        )
        assert report.complete and report.executed == spec.n_cells
        store = FileStore(tmp_path / "s")
        assert _ledger_dict(store, spec.name) == expected
        assert marker_count(store, spec.name) == 0

    def test_fleet_rejects_process_private_stores(self, reference):
        spec, _ = reference
        with pytest.raises(ConfigError):
            run_elastic(spec, "memory://", workers=2)
        with pytest.raises(ConfigError):
            run_elastic(spec, "file:///tmp/x", workers=0)

    def test_crash_takeover_converges_bit_identically(
        self, tmp_path, sink, monkeypatch
    ):
        """The chaos bar.  A fault plan inherited through REPRO_FAULTS
        crashes exactly one worker (cross-process fuse) on its second
        heartbeat — mid-wave, leases held; a delay rule stretches cell
        execution so the crash lands while work is genuinely in flight.
        Survivors steal the dead worker's leases, the fleet converges,
        and a late ``--join``-style worker finds a complete ledger.
        """
        from repro.faults.inject import active_plan, deactivate, reset

        # A bigger sweep than the shared fixture: the fleet must still
        # be mid-flight when the doomed worker's second heartbeat lands
        # (~2/3 of a TTL in), so give every worker several waves of work.
        spec = CampaignSpec.from_dict(
            dict(SPEC, name="elastic-chaos", seeds=[0, 1, 2], repeats=2)
        )
        store = MemoryStore()
        assert run_campaign(spec, store).complete
        expected = _ledger_dict(store, spec.name)
        fuse = tmp_path / "crash.fuse"
        plan = {
            "rules": [
                {"point": "worker.execute", "mode": "delay", "delay": 0.05},
                {"point": "coordinator.heartbeat", "mode": "crash",
                 "at": 2, "fuse": str(fuse)},
            ],
        }
        monkeypatch.setenv("REPRO_FAULTS", json.dumps(plan))
        # The children env-activate the plan on their first injection
        # point; the parent (this process) must not.
        deactivate()
        try:
            report = run_elastic(
                spec, self.url(tmp_path), workers=3, lease_ttl=0.45, batch=4
            )
        finally:
            # Unset first: a reset under a set REPRO_FAULTS lets the next
            # injection point in this process env-activate the plan.
            monkeypatch.delenv("REPRO_FAULTS")
            reset()
        assert fuse.exists(), "the crash rule never fired"
        [finish] = sink.named("campaign.fleet.finish")
        assert finish.attrs["crashed"] == 1
        assert report.complete and report.executed == spec.n_cells
        store = FileStore(tmp_path / "s")
        assert _ledger_dict(store, spec.name) == expected
        # The parent swept the dead child's leaked markers.
        assert marker_count(store, spec.name) == 0
        # A late joiner attaches to the converged campaign and drains.
        late = elastic_worker(
            spec, store, worker="late", lease_ttl=2.0, service=serial()
        )
        assert late.complete and late.executed == 0
        assert late.skipped == spec.n_cells
        assert active_plan() is None  # the children's plan stayed theirs

    def test_drain_stops_the_fleet_gracefully(self, tmp_path, reference):
        spec, _ = reference
        stopped = time.monotonic() + 0.2
        report = run_elastic(
            spec, self.url(tmp_path), workers=2, lease_ttl=2.0, batch=1,
            stop=lambda: time.monotonic() > stopped,
        )
        # Whatever executed before the drain persisted; nothing leaked.
        store = FileStore(tmp_path / "s")
        done = len(completed_cells(store, spec.name))
        assert report.executed == done
        assert marker_count(store, spec.name) == 0


class CountingStore:
    """Delegating store wrapper that counts the calls made through it
    (the coordinator's, not the store's own internal ones)."""

    def __init__(self, target) -> None:
        self.target = target
        self.calls: dict[str, int] = {}

    def __getattr__(self, name):
        attr = getattr(self.target, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)

        return counted


class TestMonotoneLedger:
    """The worker's ``done`` set only grows: the ledger is re-read at
    start, at exit, while the marker scan shows a rival, and once per
    heartbeat interval — never per wave for a lone worker."""

    SPEC64 = dict(SPEC, name="elastic-mono", seeds=list(range(16)))

    def rescans(self) -> float:
        return get_registry().counter("coordinator.ledger.rescans")

    def test_lone_worker_reads_the_ledger_at_start_and_exit_only(self, tmp_path):
        spec = CampaignSpec.from_dict(self.SPEC64)
        assert spec.n_cells == 64
        store = CountingStore(FileStore(tmp_path / "s"))
        before = self.rescans()
        report = elastic_worker(
            spec, store, worker="solo", lease_ttl=30.0, service=serial()
        )
        assert report.complete and report.executed == 64
        assert store.calls["entries"] <= 3
        assert self.rescans() == before
        # One marker scan to deal + one to confirm per wave, plus the join.
        assert store.calls["markers"] <= 2 * 8 + 3
        assert "put" not in store.calls  # no lease/heartbeat documents
        assert store.calls["put_many"] == 8  # the artifact waves, nothing else
        assert store.target.count() == 64
        assert store.target.markers(spec.name) == []
        names = [p.name for p in (tmp_path / "s").iterdir()]
        assert len(names) == 8 + 1 and ".markers" in names  # a segment a wave

    def test_rival_joining_mid_run_resumes_per_wave_rereads(self, tmp_path):
        """A rival that appears mid-run is seen by the next wave's marker
        scan; from then on every wave re-reads the ledger, so the cells
        the rival completed are never re-executed."""
        spec = CampaignSpec.from_dict(self.SPEC64)
        donor = MemoryStore()
        assert run_campaign(spec, donor, service=serial()).complete
        rival_cells = [cell.digest for cell in spec.cells()[-16:]]
        store = CountingStore(FileStore(tmp_path / "s"))
        entries_at_wave: list[int] = []

        def progress(summary) -> None:
            entries_at_wave.append(store.calls.get("entries", 0))
            if summary["wave"] == 2:
                # The rival joins, finishes two waves' worth of cells
                # and stays registered.
                put_member(store.target, spec.name, "rival", time.time())
                store.target.put_many([
                    profile
                    for digest in rival_cells
                    for profile in donor.find(tags=[f"cell={digest}"])
                ])

        before = self.rescans()
        report = elastic_worker(
            spec, store, worker="solo", lease_ttl=30.0, service=serial(),
            progress=progress,
        )
        assert report.executed == 64 - 16  # the rival's cells never re-ran
        assert report.complete
        assert store.target.count() == 64  # ... so the ledger has no duplicate
        waves = len(entries_at_wave)
        assert waves == 6
        # No re-read before the rival showed up, one per wave after.
        assert entries_at_wave[0] == entries_at_wave[1]
        assert all(
            later > earlier
            for earlier, later in zip(entries_at_wave[1:], entries_at_wave[2:])
        )
        assert self.rescans() >= before + (waves - 2)

    def test_reread_once_a_heartbeat_interval_without_any_rival(self, tmp_path):
        spec = CampaignSpec.from_dict(self.SPEC64)
        store = CountingStore(FileStore(tmp_path / "s"))
        clock = VirtualClock()
        ttl = 30.0
        rescans_at_wave: list[float] = []

        def progress(summary) -> None:
            rescans_at_wave.append(self.rescans())
            if summary["wave"] == 3:
                clock.advance(ttl / 3 + 0.001)

        before = self.rescans()
        report = drive(spec, store, clock, "solo", ttl, progress=progress)
        assert report.complete
        # Waves 1-3: clock frozen, no re-read.  Wave 4 starts a heartbeat
        # interval later: exactly one re-read, then none again.
        assert [count - before for count in rescans_at_wave] == [
            0, 0, 0, 1, 1, 1, 1, 1,
        ]
        assert store.calls["entries"] == 3


class TestWaveLimits:
    """``batch`` and ``limit`` go through the campaign loops' one check
    (``wave_limits``): ``batch=0``/``-2``/``1.5``/``True`` used to run
    with a silently clamped batch, ``limit=1.5`` executed 2 of 3 cells
    and ``limit=-1`` executed nothing and reported success."""

    @pytest.mark.parametrize("batch", [0, -2, 1.5, True, float("nan")], ids=repr)
    def test_elastic_worker_rejects_a_bad_batch(self, tmp_path, batch):
        store = FileStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="batch must be a whole number >= 1"):
            elastic_worker(SPEC, store, lease_ttl=5.0, batch=batch, service=serial())
        assert store.count() == 0 and marker_count(store, SPEC["name"]) == 0

    @pytest.mark.parametrize("limit", [-1, 1.5, False, float("inf")], ids=repr)
    def test_elastic_worker_rejects_a_bad_limit(self, tmp_path, limit):
        store = FileStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="limit must be a whole number >= 0"):
            elastic_worker(SPEC, store, lease_ttl=5.0, limit=limit, service=serial())
        assert store.count() == 0 and marker_count(store, SPEC["name"]) == 0

    @pytest.mark.parametrize("batch", [0, 2.5, True], ids=repr)
    def test_run_elastic_rejects_before_spawning(self, tmp_path, batch):
        with pytest.raises(ConfigError, match="batch must be a whole number >= 1"):
            run_elastic(SPEC, f"file://{tmp_path / 's'}", batch=batch)
        assert not (tmp_path / "s").exists()  # the store was never opened

    def test_a_whole_float_limit_caps_the_worker(self, tmp_path):
        store = FileStore(tmp_path / "s")
        report = elastic_worker(
            SPEC, store, lease_ttl=5.0, limit=2.0, batch=1.0, service=serial()
        )
        assert report.executed == 2 and report.truncated
