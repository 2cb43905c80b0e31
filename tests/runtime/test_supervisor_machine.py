"""The run-service supervisor, explored step by step.

A Hypothesis state machine drives one :class:`_SupervisedRun` through
its steps (:meth:`~_SupervisedRun.settle`, then
:meth:`~_SupervisedRun.fill`) on the service's three seams: a fake pool
whose futures only the machine resolves, a wait that returns what is
done, and a :class:`VirtualClock`.  It draws the worker count (2–3),
the batch (1–8 tiny engine requests on two machines) and which requests
carry a :class:`RunPolicy` timeout.  A rule completes an in-flight chunk
(by running ``_run_chunk`` on its payload, in-process), loses a chunk's
result (a generic error: fallback), breaks the pool (every in-flight
chunk gets ``BrokenProcessPool``), poisons a request (every pool it is
in flight in breaks), hangs a budgeted singleton, moves the clock,
moves it to a budgeted singleton's deadline or just past it, or makes
the next ``submit`` or pool start fail (fallback).

Each step is *start, step, then state equal*: before it, the machine
predicts from what it did what the supervisor must do; after it, it
checks:

1. each item resolves exactly once, to its chunk's own outcome;
2. a pool break requeues each unresolved in-flight item exactly once;
3. an item is quarantined only after it was in flight at
   ``POISON_CRASH_LIMIT`` breaks, and at every break after its first it
   was the only item in flight (crash suspects are probed alone), so a
   bystander of a poison chunk never is;
4. the deadline victims are exactly the budgeted singletons in flight
   longer than budget + ``DEADLINE_GRACE``, and a kill strikes nobody;
5. at most ``workers`` chunks are in flight;
6. ``service.stats`` agrees with the ``supervisor.*`` bus events and
   registry counters, and with the recoveries the machine caused;
7. at the end, every item that did not fail has the value of an
   in-parent ``RunService(processes=1)`` run of its request.

Tier-1 runs a fixed, derandomized set of examples.  For a wider search,
load the ``supervisor-machine`` profile (registered in this directory's
``conftest.py``) and pick a seed::

    PYTHONPATH=src python -m pytest tests/runtime/test_supervisor_machine.py \\
        --hypothesis-profile=supervisor-machine --hypothesis-seed=1
"""

from __future__ import annotations

import functools
import pickle
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.runtime import (
    ParallelFallbackWarning,
    PoisonRequestError,
    RunPolicy,
    RunRequest,
    RunService,
    RunTimeoutError,
)
from repro.runtime.service import (
    DEADLINE_GRACE,
    _result,
    _run_chunk,
    _SupervisedRun,
)
from repro.sim.demands import ComputeDemand
from repro.sim.workload import SimWorkload
from repro.telemetry import MemorySink, get_bus
from repro.telemetry.metrics import get_registry

from tests.runtime.conftest import SUPERVISOR_PROFILE, VirtualClock

LIMIT = RunService.POISON_CRASH_LIMIT
MACHINES = ("thinkie", "comet")
#: Each drawn policy and the budget the supervisor must enforce for it
#: (``None``: no timeout, so the chunked fast path).
POLICIES = {
    None: None,
    RunPolicy(timeout=1.0): 1.0,
    RunPolicy(timeout=1.0, retries=1): 2.0,
    RunPolicy(timeout=0.5, retries=2, backoff=0.25): 2.25,
}
INDEX = st.integers(min_value=0, max_value=7)
#: Each recovery's stats key, registry counter and bus event.
RECOVERIES = {
    "pool_crashes": ("supervisor.pool.crashes", "supervisor.pool.crash"),
    "deadline_kills": ("supervisor.deadline.kills", "supervisor.deadline.kill"),
    "requeued": ("supervisor.requeued", "supervisor.requeue"),
    "quarantined": ("supervisor.quarantined", "supervisor.quarantine"),
    "fallbacks": ("supervisor.fallbacks", "supervisor.fallback"),
}

WORKLOAD = SimWorkload(name="sup-machine")
WORKLOAD.phase("main").stream("main").add(
    ComputeDemand(instructions=2e6, workload_class="app.md")
)


def _duration(record) -> float:
    return record.duration


def _request(i: int, machine: str, policy: RunPolicy | None) -> RunRequest:
    return RunRequest(
        kind="engine", target=WORKLOAD, machine=machine, seed=7, index=i + 1,
        reduce=_duration, key=f"r{i}", policy=policy,
    )


@functools.cache
def reference(i: int, machine: str) -> float:
    """Item ``i``'s value from an in-parent run of its request."""
    [result] = RunService(processes=1).run([_request(i, machine, None)])
    return result.value


def _items(payload: bytes) -> list[int]:
    """The batch positions a chunk payload carries (from request keys)."""
    chunk = pickle.loads(payload)[3]
    return [int(request.key[1:]) for request, _target, _machine in chunk]


class Sent(NamedTuple):
    """A submitted chunk: its payload, the items it carries, the clock
    when it was submitted."""

    payload: bytes
    items: list[int]
    started: float


class FakePool:
    """An executor whose futures stay running until the machine resolves
    them (the pool seam records what each was sent)."""

    def __init__(self, pools: "FakePools") -> None:
        self.pools = pools
        self.submitted: list[Future] = []
        self.stopped = self.killed = False

    def submit(self, fn, payload: bytes) -> Future:
        assert fn is _run_chunk and not self.stopped
        if self.pools.refuse_submit:
            self.pools.refuse_submit = False
            self.pools.fired = RuntimeError("submit refused")
            raise self.pools.fired
        future: Future = Future()
        future.set_running_or_notify_cancel()
        self.pools.sent[future] = Sent(payload, _items(payload), self.pools.clock())
        self.submitted.append(future)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        self.stopped = True


class FakePools:
    """The pool seam: starts :class:`FakePool` s, records how each ended."""

    def __init__(self, clock: VirtualClock) -> None:
        self.clock = clock
        self.pools: list[FakePool] = []
        self.sent: dict[Future, Sent] = {}
        self.refuse_submit = self.refuse_start = False
        #: The infrastructure error the last fill raised, if any.
        self.fired: Exception | None = None

    def start(self, workers: int) -> FakePool:
        if self.refuse_start:
            self.refuse_start = False
            self.fired = OSError("no fork for you")
            raise self.fired
        self.pools.append(FakePool(self))
        return self.pools[-1]

    def stop(self, pool: FakePool, kill: bool) -> None:
        pool.stopped, pool.killed = True, kill

    def complete(self, future: Future) -> None:
        """Run the chunk in-process, as a worker would, and resolve it."""
        future.set_result(_run_chunk(self.sent[future].payload))

    @property
    def live(self) -> FakePool | None:
        if self.pools and not self.pools[-1].stopped:
            return self.pools[-1]
        return None


def _done(futures: set[Future]) -> set[Future]:
    """The wait seam: what is done, without waiting."""
    return {future for future in futures if future.done()}


class Supervision(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        #: Futures whose results the supervisor took.
        self.taken: set[Future] = set()

    @initialize(
        workers=st.integers(min_value=2, max_value=3),
        batch=st.lists(
            st.tuples(st.sampled_from(MACHINES), st.sampled_from(list(POLICIES))),
            min_size=1, max_size=8,
        ),
    )
    def start(self, workers: int, batch: list) -> None:
        self.clock = VirtualClock()
        self.pools = FakePools(self.clock)
        self.service = RunService(processes=workers)
        self.service._pools = self.pools
        self.service._wait = _done
        self.service._clock = self.clock
        self.requests = [
            _request(i, machine, policy) for i, (machine, policy) in enumerate(batch)
        ]
        self.reference = [reference(i, machine) for i, (machine, _) in enumerate(batch)]
        self.budgets = [POLICIES[policy] for _, policy in batch]
        self.workers = workers
        self.sink = get_bus().add_sink(MemorySink())
        self.baseline = {
            stat: get_registry().counter(counter)
            for stat, (counter, _event) in RECOVERIES.items()
        }
        self.expected = dict.fromkeys(RECOVERIES, 0)
        self.strikes = [0] * len(batch)
        #: Per item, how many unresolved items were in flight at each
        #: pool break it was in flight at.
        self.breaks: list[list[int]] = [[] for _ in batch]
        self.charged: dict[int, type] = {}
        self.poison: set[int] = set()
        self.hung: set[Future] = set()
        self.run = _SupervisedRun(self.service, self.requests, workers)
        self.fill()

    # -- what the machine sees ------------------------------------------------

    @property
    def active(self) -> bool:
        return self.run.usable and bool(self.run.remaining)

    def window(self) -> list[Future]:
        """The futures in flight: submitted to the live pool, not taken."""
        live = self.pools.live
        if live is None:
            return []
        return [future for future in live.submitted if future not in self.taken]

    def singleton_budget(self, future: Future) -> float | None:
        items = self.pools.sent[future].items
        if len(items) != 1:
            return None
        return self.budgets[items[0]]

    # -- one step: predict, step, then compare ---------------------------------

    def step(self) -> None:
        self.settle()
        self.fill()
        while self.active and any(
            set(self.pools.sent[future].items) & self.poison for future in self.window()
        ):
            self.break_window()
            self.settle()
            self.fill()

    def settle(self) -> None:
        run, now = self.run, self.clock()
        window = self.window()
        before = list(run.outcomes)
        done = [future for future in window if future.done()]
        failed = next((
            future for future in done
            if not isinstance(future.exception(), (type(None), BrokenProcessPool))
        ), None)
        # The supervisor walks the window in submission order; a lost
        # result ends the walk.
        taken = []
        for future in window:
            if future is failed:
                break
            if future.done() and future.exception() is None:
                taken.append(future)
        broken = failed is None and any(future.exception() for future in done)
        pending = [future for future in window if future not in taken]
        victims = [] if failed or broken else [
            future for future in pending
            if self.singleton_budget(future) is not None
            and now - self.pools.sent[future].started
            > self.singleton_budget(future) + DEADLINE_GRACE
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run.settle()
        self.taken.update(taken)
        resolved = {}
        for future in taken:
            outcomes, _events = future.result()
            resolved.update(zip(self.pools.sent[future].items, outcomes))
        unresolved = sorted({
            i for future in pending for i in self.pools.sent[future].items
        } - set(resolved))
        if failed is not None:
            self.fell_back(caught, failed.exception())
        elif broken:
            self.crashed(unresolved, len(pending), resolved)
        elif victims:
            killed = {self.pools.sent[future].items[0]: future for future in victims}
            self.killed(killed, resolved, now)
            self.requeued([i for i in unresolved if i not in killed])
        else:
            assert list(run.in_flight) == pending, "the window must stay"
        if failed is None:
            assert not caught, [str(w.message) for w in caught]
        for i, outcome in resolved.items():
            assert before[i] is None, f"item {i} resolved twice"
            assert run.outcomes[i] is outcome, f"item {i} lost its outcome"
        self.check(before, resolved)

    def crashed(self, unresolved: list[int], chunks: int, resolved: dict) -> None:
        """Expect a break: each unresolved item in flight takes a strike;
        one at the limit is quarantined, the rest requeue once."""
        self.expected["pool_crashes"] += 1
        [event] = self.sink.named("supervisor.pool.crash")[-1:]
        assert event.attrs["suspects"] == [f"r{i}" for i in unresolved]
        assert event.attrs["chunks_in_flight"] == chunks
        assert not self.pools.pools[-1].killed
        quarantined = []
        for i in unresolved:
            self.strikes[i] += 1
            self.breaks[i].append(len(unresolved))
            if self.strikes[i] >= LIMIT:
                quarantined.append(i)
                resolved[i] = self.run.outcomes[i]
                self.quarantined(i)
        self.requeued([i for i in unresolved if i not in quarantined])

    def quarantined(self, i: int) -> None:
        """Invariant 3, and what a quarantine reports."""
        self.expected["quarantined"] += 1
        self.charged[i] = PoisonRequestError
        assert len(self.breaks[i]) == LIMIT
        assert all(alone == 1 for alone in self.breaks[i][1:]), (i, self.breaks[i])
        outcome = self.run.outcomes[i]
        request = self.requests[i]
        assert not outcome[0] and isinstance(outcome[2], PoisonRequestError)
        error = _result(request, outcome, rethrow=False).error
        assert "PoisonRequestError" in error
        assert f"key=r{i}" in error and "quarantined" in error
        with pytest.raises(PoisonRequestError) as excinfo:
            _result(request, outcome, rethrow=True)
        assert excinfo.value.key == f"r{i}"
        assert excinfo.value.crashes == LIMIT
        assert "killed the worker pool" in str(excinfo.value)
        event = self.sink.named("supervisor.quarantine")[-1]
        assert event.attrs["key"] == f"r{i}"
        assert event.attrs["crashes"] == LIMIT

    def killed(self, killed: dict, resolved: dict, now: float) -> None:
        """Invariant 4: exactly the over-budget singletons die, with the
        error, event and elapsed time a kill reports."""
        assert self.pools.pools[-1].killed, "a deadline kill kills the pool"
        events = self.sink.named("supervisor.deadline.kill")[-len(killed):]
        assert [event.attrs["key"] for event in events] == [
            f"r{i}" for i in killed
        ]
        for event, (i, future) in zip(events, killed.items()):
            self.expected["deadline_kills"] += 1
            self.charged[i] = RunTimeoutError
            elapsed = now - self.pools.sent[future].started
            budget = self.budgets[i]
            assert event.attrs["budget"] == budget
            assert event.attrs["elapsed"] == elapsed
            outcome = self.run.outcomes[i]
            resolved[i] = outcome
            assert not outcome[0] and outcome[1] == elapsed
            error = _result(self.requests[i], outcome, rethrow=False).error
            assert "RunTimeoutError" in error
            assert "killed by the supervisor" in error
            with pytest.raises(RunTimeoutError, match="supervisor"):
                _result(self.requests[i], outcome, rethrow=True)

    def requeued(self, survivors: list[int]) -> None:
        """Invariant 2: the round ends; each survivor requeues once."""
        run = self.run
        assert not run.in_flight and not run.queue
        assert set(survivors) <= run.remaining
        if survivors:
            self.expected["requeued"] += len(survivors)
            event = self.sink.named("supervisor.requeue")[-1]
            assert event.attrs["count"] == len(survivors)

    def fell_back(self, caught, error: BaseException) -> None:
        """The pool proved unusable: one warning, one event; the
        unresolved items are left for the parent."""
        run = self.run
        self.expected["fallbacks"] += 1
        assert [w.category for w in caught] == [ParallelFallbackWarning]
        assert not run.usable and not run.in_flight and not run.queue
        assert self.pools.live is None
        event = self.sink.named("supervisor.fallback")[-1]
        assert event.attrs["error"] == repr(error)
        assert event.attrs["items"] == len(run.remaining)

    def fill(self) -> None:
        run = self.run
        before = list(run.outcomes)
        planning = self.active and not run.queue and not run.in_flight
        self.pools.fired = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run.fill()
        if self.pools.fired is not None:
            return self.fell_back(caught, self.pools.fired)
        assert not caught, [str(w.message) for w in caught]
        window = self.window()
        assert list(run.in_flight) == window
        for future in window:
            assert run.in_flight[future][0] == self.pools.sent[future].items
            assert run.in_flight[future][1] == self.pools.sent[future].started
        if planning:
            self.planned(
                [self.pools.sent[future].items for future in window]
                + [_items(payload) for _chunk, payload in run.queue]
            )
        self.check(before, {})

    def planned(self, chunks: list[list[int]]) -> None:
        """A round covers every remaining item once; a suspect is probed
        alone (invariant 3); budgets and suspects ride alone."""
        run = self.run
        suspects = sorted(i for i in run.remaining if self.strikes[i])
        if suspects:
            assert chunks == [suspects[:1]], (chunks, suspects)
            return
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == sorted(run.remaining), (chunks, run.remaining)
        for chunk in chunks:
            if len(chunk) > 1:
                assert all(self.budgets[i] is None for i in chunk), chunk

    def check(self, before: list, resolved: dict) -> None:
        """The invariants every step keeps."""
        run = self.run
        # 1: an outcome, once set, never changes; only the expected resolve.
        for i, (old, new) in enumerate(zip(before, run.outcomes)):
            if old is not None:
                assert new is old, f"item {i} resolved twice"
            else:
                assert (new is not None) == (i in resolved), i
        assert run.remaining == {
            i for i, outcome in enumerate(run.outcomes) if outcome is None
        }
        window = self.window()
        carried = [i for future in window for i in self.pools.sent[future].items]
        assert len(carried) == len(set(carried)), "an item in flight twice"
        assert set(carried) <= run.remaining
        # 5: the dispatch window.
        assert len(window) <= self.workers
        # 3 and 4: strikes are the breaks each item was in flight at.
        assert run.crashes == self.strikes
        # 6: stats, counters and events tell one story.
        registry = get_registry()
        for stat, (counter, name) in RECOVERIES.items():
            events = self.sink.named(name)
            told = (
                sum(event.attrs["count"] for event in events)
                if stat == "requeued" else len(events)
            )
            counted = registry.counter(counter) - self.baseline[stat]
            assert self.service.stats[stat] == self.expected[stat] == told == counted, (
                stat, self.service.stats[stat], self.expected[stat], told, counted
            )

    # -- rules ----------------------------------------------------------------

    def pick(self, futures: list[Future], index: int) -> Future:
        return futures[index % len(futures)]

    def completable(self) -> list[Future]:
        return [future for future in self.window() if future not in self.hung]

    @precondition(lambda self: self.completable())
    @rule(index=INDEX)
    def complete(self, index: int) -> None:
        self.pools.complete(self.pick(self.completable(), index))
        self.step()

    @precondition(lambda self: self.window())
    @rule(index=INDEX)
    def lose_result(self, index: int) -> None:
        self.pick(self.window(), index).set_exception(
            RuntimeError("chunk result did not unpickle")
        )
        self.step()

    def break_window(self) -> None:
        for future in self.window():
            future.set_exception(BrokenProcessPool("a worker died"))

    @precondition(lambda self: self.window())
    @rule()
    def break_pool(self) -> None:
        self.break_window()
        self.step()

    @precondition(lambda self: self.active)
    @rule(index=INDEX)
    def poison(self, index: int) -> None:
        items = sorted(self.run.remaining)
        self.poison.add(items[index % len(items)])
        self.step()

    def hangable(self) -> list[Future]:
        return [
            future for future in self.completable()
            if self.singleton_budget(future) is not None
        ]

    @precondition(lambda self: self.hangable())
    @rule(index=INDEX)
    def hang(self, index: int) -> None:
        self.hung.add(self.pick(self.hangable(), index))

    @rule(seconds=st.sampled_from([0.1, 0.6, 1.5, 3.0]))
    def advance(self, seconds: float) -> None:
        self.clock.advance(seconds)
        if self.active:
            self.step()

    @precondition(lambda self: self.hangable())
    @rule(index=INDEX, past=st.booleans())
    def reach_deadline(self, index: int, past: bool) -> None:
        """Move the clock to one budgeted singleton's deadline (which
        spares it) or just past it (which kills it, not its bystanders)."""
        future = self.pick(self.hangable(), index)
        budget = self.singleton_budget(future)
        deadline = self.pools.sent[future].started + budget + DEADLINE_GRACE
        self.clock.now = max(self.clock.now, deadline + (1e-3 if past else 0.0))
        self.step()

    @precondition(lambda self: self.active)
    @rule()
    def refuse_submit(self) -> None:
        self.pools.refuse_submit = True

    @precondition(lambda self: self.active)
    @rule()
    def refuse_start(self) -> None:
        self.pools.refuse_start = True

    # -- the end --------------------------------------------------------------

    def teardown(self) -> None:
        try:
            if hasattr(self, "run"):
                self.finish()
        finally:
            if hasattr(self, "sink"):
                get_bus().remove_sink(self.sink)

    def finish(self) -> None:
        """Complete what runs, let what hangs overrun, then invariant 7."""
        for _ in range(100):
            if not self.active:
                break
            for future in self.completable():
                self.pools.complete(future)
            if any(future in self.hung for future in self.window()):
                self.clock.advance(10.0)
            self.step()
        else:
            raise AssertionError("the supervisor did not finish the batch")
        for i, outcome in enumerate(self.run.outcomes):
            if outcome is None:
                assert not self.run.usable, f"item {i} left unresolved"
            elif outcome[0]:
                assert outcome[2] == self.reference[i], i
            else:
                assert isinstance(outcome[2], self.charged[i]), (i, outcome)


Supervision.TestCase.settings = (
    settings.default
    if settings.get_current_profile_name() == SUPERVISOR_PROFILE
    else settings(
        max_examples=150, stateful_step_count=40, deadline=None,
        derandomize=True, suppress_health_check=[HealthCheck.too_slow],
    )
)
TestSupervision = Supervision.TestCase
