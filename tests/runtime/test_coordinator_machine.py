"""The elastic coordinator's lease protocol, explored step by step.

A Hypothesis state machine drives one to three live ``_Worker``s at a
time on a shared virtual clock, against one store it draws: a
``MemoryStore``, or a ``FileStore`` in a temporary directory that each
worker opens a handle of its own on (so its name-encoded marker ids and
stamps are explored too).  It also draws each worker's wave size (one
to three cells), so multi-cell lease markers come up.  A rule steps one
worker (``scan`` → ``deal`` → ``acquire`` → ``execute`` →
``release``), races two through ``deal`` into ``acquire`` (so a wide
wave loses the cells a narrow rival took first and wins the rest of its
marker), beats a heartbeat by hand (no thread runs), moves the clock,
crashes a worker (dropped where it stands, leases and all), drains one,
lets a late one join, loses a random marker or hangs a worker's wave:
every request has a timeout, so a wave has a finite batch budget, and a
hung wave overruns it on the clock while its heartbeat keeps beating —
its renewals must stop and a rival must steal its cells at epoch + 1.
After every rule:

* every stored duplicate of a cell is bit-identical;
* no two workers hold a cell at its winning epoch while that lease is
  live (not claimed for the cells of a lost lease marker: a lost
  lease looks exactly like a free cell);
* a steal writes the loser's epoch + 1;
* each worker's ``done`` view is a subset of the stored ledger.

At the end the survivors run to completion, a late joiner past the
garbage horizon sweeps what crashed workers left, and the ledger digest
must equal a lone ``run_campaign``'s with no marker left.

Tier-1 runs a fixed, derandomized set of examples.  For a wider search,
load the ``coordinator-machine`` profile (registered in this directory's
``conftest.py``) and pick a seed::

    PYTHONPATH=src python -m pytest tests/runtime/test_coordinator_machine.py \\
        --hypothesis-profile=coordinator-machine --hypothesis-seed=1
"""

from __future__ import annotations

import contextvars
import functools
import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.runtime import (
    CampaignSpec,
    RunService,
    comparable_artifact,
    completed_cells,
    lease_records,
    ledger_digest,
    live_members,
    resolve_lease,
    run_campaign,
)
from repro.runtime.campaign import _sweep
from repro.runtime.coordinator import (
    CELL_SEP,
    LEASE_KIND,
    STALE_MARKER_FACTOR,
    _Worker,
)
from repro.runtime.service import batch_budget
from repro.storage import FileStore
from repro.storage.base import MemoryStore

from tests.runtime.conftest import MACHINE_PROFILE, VirtualClock

SPEC = CampaignSpec.from_dict({
    "name": "machine-camp",
    "kind": "profile",
    "apps": ["gromacs:iterations=2000"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1, 2],
    "config": {"sample_rate": 2.0},
    # A finite batch budget (the policy is not part of a cell's digest).
    "policy": {"timeout": 6.0},
})
TTL = 6.0
SERVICE = RunService(processes=1)
#: Steps one survivor may take in the teardown before the fleet counts
#: as not terminating.
MAX_STEPS = 100

WORKER = st.integers(min_value=0, max_value=2)
BATCH = st.integers(min_value=1, max_value=3)


@functools.cache
def reference_digest() -> str:
    store = MemoryStore()
    assert run_campaign(SPEC, store, service=SERVICE).complete
    return ledger_digest(store, SPEC.name)


class Stalling(RunService):
    """A worker's run service: ``stall``, when set, runs inside the
    worker's next wave — its leases held, its cells not yet run."""

    def __init__(self) -> None:
        super().__init__(processes=1)
        self.stall = None

    def run(self, requests, processes=None, rethrow=True):
        stall, self.stall = self.stall, None
        if stall is not None:
            stall()
        return super().run(requests, processes=processes, rethrow=rethrow)


class Member:
    """One simulated worker: a ``_Worker`` in a context of its own (its
    span and plan scope), as a thread or a process would have."""

    def __init__(self, name: str, store, clock, batch: int) -> None:
        self.name = name
        self.draining = False
        self.context = contextvars.Context()
        self.service = Stalling()
        self.session = _sweep(SPEC, store, member=name, service=self.service)
        sweep = self.context.run(self.session.__enter__)
        self.steps = self.context.run(
            _Worker, sweep, TTL, batch, stop=lambda: self.draining, clock=clock
        )
        self.context.run(self.steps.join)
        self.open = True

    def step(self) -> bool:
        """One step; true once the worker is done and has left."""
        if self.context.run(self.steps.step) != "done":
            return False
        self.context.run(self.steps.leave)
        self.close()
        return True

    def close(self) -> None:
        """End the sweep's span and plan scope (a crashed worker's too,
        as its process would on exit), in the context they live in."""
        if self.open:
            self.open = False
            self.context.run(self.session.__exit__, None, None, None)


class LeaseProtocol(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.clock = VirtualClock()
        self.root: str | None = None
        self.members: list[Member] = []
        self.everyone: list[Member] = []
        self.joined = 0
        self.crashed: set[str] = set()
        #: Cells one of whose lease markers was lost.
        self.unguarded: set[str] = set()
        #: Profile id -> its comparable artifact (stored profiles never change).
        self.artifacts: dict[str, dict] = {}

    def handle(self):
        """A worker's own handle on the shared store.  A FileStore
        handle's writer token (a marker id's middle, so a scan's order
        among same-stamp markers) is random; the machine numbers them
        instead, so an example replays exactly."""
        if self.root is None:
            return self.store
        store = FileStore(self.root)
        store._writer = f"{self.joined:04x}"
        return store

    def join(self, batch: int, name: str | None = None) -> Member:
        self.joined += 1
        member = Member(name or f"w{self.joined}", self.handle(), self.clock, batch)
        self.members.append(member)
        self.everyone.append(member)
        return member

    def pick(self, index: int) -> Member:
        return self.members[index % len(self.members)]

    # -- rules ---------------------------------------------------------------

    @initialize(
        batches=st.lists(BATCH, min_size=1, max_size=3),
        store=st.sampled_from(["memory", "file"]),
    )
    def start(self, batches: list[int], store: str) -> None:
        if store == "file":
            self.root = tempfile.mkdtemp(prefix="lease-machine-")
            self.store = FileStore(self.root)
        else:
            self.store = MemoryStore()
        for batch in batches:
            self.join(batch)

    @precondition(lambda self: len(self.members) < 3)
    @rule(batch=BATCH)
    def late_join(self, batch: int) -> None:
        self.join(batch)

    @precondition(lambda self: self.members)
    @rule(index=WORKER, steps=st.integers(min_value=1, max_value=3))
    def step(self, index: int, steps: int) -> None:
        member = self.pick(index)
        for _ in range(steps):
            if member.step():
                self.members.remove(member)
                return

    @precondition(lambda self: len(self.members) > 1)
    @rule(first=WORKER, second=WORKER)
    def race(self, first: int, second: int) -> None:
        racers = [self.pick(first), self.pick(second)]
        if racers[0] is racers[1]:
            return
        # Each deals before either writes a lease, then both acquire.
        for member in racers:
            for _ in range(4):  # execute -> release -> scan -> deal
                if member.steps.phase == "acquire":
                    break
                if member.step():
                    self.members.remove(member)
                    return
        for member in racers:
            if member.steps.phase == "acquire":
                member.step()

    @precondition(lambda self: self.members)
    @rule(index=WORKER)
    def beat(self, index: int) -> None:
        self.pick(index).steps.heartbeat.beat()

    @rule(seconds=st.sampled_from([TTL / 8, TTL / 2, TTL * 1.5]))
    def advance(self, seconds: float) -> None:
        self.clock.advance(seconds)

    @precondition(lambda self: self.members)
    @rule(index=WORKER)
    def crash(self, index: int) -> None:
        member = self.pick(index)
        self.members.remove(member)
        self.crashed.add(member.name)

    @precondition(lambda self: self.members)
    @rule(index=WORKER)
    def drain(self, index: int) -> None:
        self.pick(index).draining = True

    @precondition(lambda self: len(self.members) < 3 and any(
        member.steps.phase == "execute" for member in self.members
    ))
    @rule(index=WORKER)
    def hang(self, index: int) -> None:
        """A wave overruns its batch budget while its heartbeat beats;
        a rival that joins then steals the wave's cells at epoch + 1."""
        hung = [m for m in self.members if m.steps.phase == "execute"]
        member = hung[index % len(hung)]
        thief = self.join(SPEC.n_cells, f"thief{self.joined + 1}")
        member.service.stall = functools.partial(self.overrun, member, thief)
        if member.step():
            self.members.remove(member)

    def overrun(self, member: Member, thief: Member) -> None:
        steps = member.steps
        cells = [steps.sweep.cells[cell] for cell in steps.won]
        budget = batch_budget([cell.to_request() for cell in cells])
        end = self.clock() + budget + TTL
        while self.clock() <= end:
            self.clock.advance(TTL / 3)
            steps.heartbeat.beat()
        now = self.clock()
        live = live_members(self.store, SPEC.name, TTL, now)
        assert member.name in live  # the heartbeat kept the member alive ...
        leases = lease_records(self.store, SPEC.name)
        mine = {}
        for cell, (epoch, _anchor) in steps.won.items():
            state = resolve_lease(leases.get(cell, []), now, TTL, live)
            if state is not None and state.owner == member.name:
                assert not state.alive, (cell, state)  # ... but not its wave
                if cell not in self.unguarded:
                    mine[cell] = epoch
        for _ in range(2):  # scan, deal
            if thief.step():
                self.members.remove(thief)
                return
        stolen = dict(thief.steps.wanted)
        for cell, epoch in mine.items():
            if cell not in thief.steps.sweep.done:
                assert stolen.get(cell) == epoch + 1, (cell, epoch, stolen)

    @precondition(lambda self: self.store.markers(SPEC.name))
    @rule(index=st.integers(min_value=0, max_value=63))
    def lose_marker(self, index: int) -> None:
        markers = self.store.markers(SPEC.name)
        marker = markers[index % len(markers)]
        if marker.kind == LEASE_KIND:
            self.unguarded.update(marker.fields["cell"].split(CELL_SEP))
        self.store.delete_markers([marker.id])

    # -- invariants ----------------------------------------------------------

    @invariant()
    def duplicates_are_bit_identical(self) -> None:
        by_cell: dict[str, list[dict]] = {}
        entries = self.store.entries(tags=[f"campaign={SPEC.name}"])
        new = [entry.id for entry in entries if entry.id not in self.artifacts]
        for pid, profile in zip(new, self.store.get_many(new)):
            self.artifacts[pid] = comparable_artifact(profile)
        for entry in entries:
            [cell] = [tag for tag in entry.tags if tag.startswith("cell=")]
            by_cell.setdefault(cell, []).append(self.artifacts[entry.id])
        for cell, docs in by_cell.items():
            assert all(doc == docs[0] for doc in docs), cell

    @invariant()
    def one_holder_per_live_lease(self) -> None:
        now = self.clock()
        live = live_members(self.store, SPEC.name, TTL, now)
        for cell, records in lease_records(self.store, SPEC.name).items():
            state = resolve_lease(records, now, TTL, live)
            if cell in self.unguarded or state is None or not state.alive:
                continue
            holders = [
                member.name for member in self.members
                if member.steps.won.get(cell, (None,))[0] == state.epoch
            ]
            assert len(holders) <= 1, (cell, state, holders)

    @invariant()
    def a_steal_writes_the_next_epoch(self) -> None:
        for member in self.members:
            steps = member.steps
            if steps.phase != "acquire":
                continue
            now, live, leases = steps.view
            for cell, epoch in steps.wanted:
                state = resolve_lease(leases.get(cell, []), now, TTL, live)
                if state is None:
                    assert epoch == 1, (cell, epoch)
                elif state.alive:  # only ever our own, renewed in place
                    assert (state.owner, epoch) == (steps.name, state.epoch)
                else:
                    assert epoch == state.epoch + 1, (cell, state, epoch)

    @invariant()
    def done_views_are_stored(self) -> None:
        stored = completed_cells(self.store, SPEC.name)
        for member in self.members:
            assert member.steps.sweep.done <= stored, member.name

    def check(self) -> None:
        self.duplicates_are_bit_identical()
        self.one_holder_per_live_lease()
        self.a_steal_writes_the_next_epoch()
        self.done_views_are_stored()

    # -- the end -------------------------------------------------------------

    def finish(self, member: Member) -> None:
        """Step ``member`` to the end, alone; the clock moves (and it
        beats) only while all it can do is wait out a rival's lease."""
        for _ in range(MAX_STEPS):
            if member.steps.phase == "idle":
                self.clock.advance(TTL / 2)
                member.steps.heartbeat.beat()
            done = member.step()
            self.check()
            if done:
                return
        raise AssertionError(f"{member.name} did not terminate")

    def teardown(self) -> None:
        try:
            self.converge()
        finally:
            for member in self.everyone:
                member.close()
            if self.root is not None:
                shutil.rmtree(self.root, ignore_errors=True)

    def converge(self) -> None:
        for member in list(self.members):
            self.finish(member)
            self.members.remove(member)
        owners = {
            marker.fields.get("member", marker.fields.get("owner"))
            for marker in self.store.markers(SPEC.name)
        }
        assert owners <= self.crashed, owners
        # Past the garbage horizon a late joiner completes whatever the
        # crashed and drained left and sweeps the crashed workers' markers.
        self.clock.advance(TTL * STALE_MARKER_FACTOR + 1)
        self.finish(self.join(3, "late"))
        assert self.store.markers(SPEC.name) == []
        assert ledger_digest(self.store, SPEC.name) == reference_digest()


LeaseProtocol.TestCase.settings = (
    settings.default
    if settings.get_current_profile_name() == MACHINE_PROFILE
    else settings(
        max_examples=100, stateful_step_count=50, deadline=None,
        derandomize=True, suppress_health_check=[HealthCheck.too_slow],
    )
)
TestLeaseProtocol = LeaseProtocol.TestCase
