"""The run service: one execution runtime on top of every plane.

A :class:`RunRequest` describes one sim-plane run declaratively — plain
data and a machine model, so it pickles — and the :class:`RunService`
executes batches of them.  The service is the top of the execution
stack: the profiler, the emulator and the sim backend below it never
call it.  Batches fan out over the service's **persistent** process
pool — the pool survives across batches, so repeated batches and
campaign waves pay worker startup once per service instead of once per
batch.  A batch that resolves to one worker runs in the parent.  There
is one way to run a request in the parent (:func:`_attempt_request` on
the request's own target and machine) and one in a pool worker (the
same call, on the chunk's unpickled tables: :func:`_run_chunk`).

Determinism: each request carries ``(seed, index)`` (or an explicit
``noise_seed``) from which its noise stream derives, so results are
bit-identical regardless of worker count, chunking or execution order.

Supervision: pooled batches run under a parent-side supervisor,
:class:`_SupervisedRun`, as explicit steps — fill the dispatch window,
settle what finished, recover — on three seams of the service (the
pool, the wait on its futures, the clock; a test swaps them, nothing
else can).  It *enforces* per-attempt :class:`RunPolicy` timeout
budgets (a hung worker is killed, its request failed with
:class:`RunTimeoutError`), detects worker death (``BrokenProcessPool``),
restarts the pool and requeues the in-flight requests exactly once per
crash — and quarantines a *poison* request with a
:class:`~repro.core.errors.PoisonRequestError` after
:data:`RunService.POISON_CRASH_LIMIT` crashes.  Every recovery action
(crash, requeue, deadline kill, quarantine, fallback) emits a
``supervisor.*`` event and counter.  Its invariants are explored by the
state machine in ``tests/runtime/test_supervisor_machine.py``.

When the pool cannot be used at all (constrained hosts, forbidden
fork, unpicklable payloads) the requests it has not resolved run in the
parent, with a :class:`ParallelFallbackWarning` — the service never
fails a batch because of pool infrastructure.
"""

from __future__ import annotations

import contextlib
import os
import random
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from repro.core.errors import (
    PoisonRequestError,
    flag,
    is_retryable,
    mapping,
    number,
    whole_number,
)
from repro.faults import activate, active_plan, deactivate
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import activate_context, pack_context, span

__all__ = [
    "ParallelFallbackWarning",
    "PoisonRequestError",
    "RunPolicy",
    "RunRequest",
    "RunResult",
    "RunService",
    "RunTimeoutError",
    "batch_budget",
    "get_service",
    "reset_service",
]

#: Request kinds the service knows how to execute (see
#: :mod:`repro.runtime.execute` for their semantics).
KINDS = ("engine", "profile", "emulate")


class ParallelFallbackWarning(RuntimeWarning):
    """A process pool could not be used; the rest of the batch ran
    serially in the parent instead.

    Emitted by :class:`RunService` when pool creation or the configured
    start method fails on constrained hosts (no fork permission,
    missing semaphores, sandboxed CI runners, ...) or a request does
    not pickle.  The computation still completes — serially — so
    callers get correct results plus a
    signal that parallel speedup was unavailable.
    """


class RunTimeoutError(Exception):
    """An attempt exceeded its :class:`RunPolicy` timeout budget.

    Two enforcement tiers:

    * **Pooled requests** get their deadline *enforced*: the service's
      supervisor kills the worker once the request's whole policy
      budget (attempts x timeout + backoff) is exhausted, so even a
      request that hangs forever fails in bounded wall-clock.
    * **In-parent requests** (a batch that resolves to one worker, or
      what an unusable pool left) cannot be preempted; there the
      timeout is classified *after* the attempt returns, guaranteeing
      an over-budget cell is recorded as failed — and retried or
      surfaced — instead of being silently accepted.
    """


@dataclass(frozen=True)
class RunPolicy:
    """Per-request retry/timeout policy.

    Attributes
    ----------
    retries:
        Re-attempts after the first failure (0 = single attempt).
        Retries apply only to *retryable* failures (see
        :func:`repro.core.errors.is_retryable`): a configuration-shaped
        error fails identically every attempt, so the loop stops at the
        first one instead of burning the budget.
    timeout:
        Per-attempt wall-clock budget in seconds; an attempt that takes
        longer counts as failed with :class:`RunTimeoutError` — enforced
        by the supervisor for pooled requests (the worker is killed once
        the whole policy budget is spent), checked post-attempt for
        in-parent ones.  ``None`` disables the budget.
    backoff:
        Base sleep between attempts: attempt *k* (1-based) allows up to
        ``backoff * k`` seconds before the next attempt.
    jitter:
        With jitter (the default) the actual sleep is drawn uniformly
        from ``[0, backoff * k)`` — *full jitter*, so many workers
        retrying the same contended resource desynchronise instead of
        thundering-herding in lockstep.  The draw is seeded from the
        request's own identity (key, seed, index, attempt), never from
        global RNG state, so determinism goldens stay pinned.
        ``jitter=False`` restores the fixed linear schedule.
    """

    retries: int = 0
    timeout: float | None = None
    backoff: float = 0.0
    jitter: bool = True

    def __post_init__(self) -> None:
        retries = whole_number("run policy retries", self.retries, 0)
        if retries is not self.retries:  # a whole float: stored as an int
            object.__setattr__(self, "retries", retries)
        if self.timeout is not None:
            number("run policy timeout", self.timeout, above=0)
        number("run policy backoff", self.backoff, 0)
        flag("run policy jitter", self.jitter)

    @property
    def attempts(self) -> int:
        """Total attempts this policy allows."""
        return self.retries + 1

    @property
    def budget(self) -> float | None:
        """Upper wall-clock bound of the whole retry loop (``None`` =
        unbounded): every attempt at its timeout plus every backoff
        sleep at its maximum.  The supervisor enforces this bound on
        pooled requests."""
        if self.timeout is None:
            return None
        sleeps = self.backoff * (self.retries * (self.retries + 1) / 2.0)
        return self.attempts * self.timeout + sleeps

    @classmethod
    def from_dict(cls, data: Any) -> "RunPolicy":
        """Build a policy from a spec mapping (campaign JSON specs)."""
        if isinstance(data, RunPolicy):
            return data
        return cls(**mapping("run policy", data, cls.__dataclass_fields__))


@dataclass(frozen=True)
class RunRequest:
    """Declarative description of one sim-plane run.

    Attributes
    ----------
    kind:
        ``"engine"`` — raw engine execution of a workload/app model,
        yielding an :class:`~repro.sim.engine.ExecutionRecord`;
        ``"profile"`` — a full profiling run yielding a
        :class:`~repro.core.samples.Profile`;
        ``"emulate"`` — replay of a profile/plan yielding an
        :class:`~repro.core.emulator.EmulationResult`.
    target:
        What to run: a workload / application model (engine, profile)
        or a profile or emulation plan (emulate).
    machine:
        Simulated machine (name or :class:`~repro.sim.resource.MachineSpec`)
        the run executes on; required.  Host-plane runs and custom
        backends are the profiler's and emulator's own business
        (``Profiler.run``, ``Emulator.run``), not requests.
    config:
        :class:`~repro.core.config.SynapseConfig` or a kwargs mapping
        for one (profile / emulate kinds).
    noisy / seed / index / noise_seed:
        The deterministic noise identity of this run.  Sim-plane noise
        derives from ``seed_from(machine, workload, seed, index)`` —
        exactly the per-spawn-slot stream ``SimBackend.spawn`` draws —
        unless ``noise_seed`` overrides the derivation outright.
    tags / command:
        Profile metadata (profile kind).
    reduce:
        Optional picklable ``outcome -> value`` callable applied
        *inside* the worker, so fan-outs that only need summaries never
        ship full histories across the pool.
    key:
        Caller-assigned identity (campaign cell digest, machine name).
    policy:
        Optional :class:`RunPolicy` — per-request retries, per-attempt
        timeout budget and backoff.  Applied where the request executes
        (inside the worker for pooled requests), so retries never
        re-ship payloads.  Determinism is preserved: each attempt draws
        the same request-derived noise stream, so a retried success is
        bit-identical to a first-attempt one.
    metadata:
        Free-form extras; not interpreted by the service.
    """

    kind: str
    target: Any = None
    machine: Any = None
    config: Any = None
    noisy: bool = True
    seed: int = 0
    index: int = 1
    noise_seed: int | None = None
    tags: Any = None
    command: str | None = None
    reduce: Callable[[Any], Any] | None = None
    key: str | None = None
    policy: RunPolicy | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown run kind {self.kind!r}; expected one of {KINDS}")
        if self.machine is None:
            raise ValueError(f"{self.kind} requests need a machine")


@dataclass
class RunResult:
    """Outcome of one executed :class:`RunRequest`."""

    request: RunRequest
    ok: bool
    value: Any = None
    #: Failure description when ``ok`` is False: the request context
    #: followed by the exception, e.g. ``"profile request key=<digest>
    #: (attempt 2/2, 0.173s in attempt): ValueError(...)"``.
    error: str | None = None
    #: Wall-clock execution time of this request (seconds, as measured
    #: where it ran — inside the worker for pooled requests).
    seconds: float = 0.0

    @property
    def key(self) -> str | None:
        return self.request.key


#: Chunks a batch is cut into per worker: >1 so the pool's dynamic
#: dispatch rebalances heterogeneous batches (one chunk per worker would
#: serialise a batch whose expensive items are contiguous, e.g. a
#: campaign wave ordered app-outermost), while each chunk still
#: amortises its pickle of the target and machine tables over many items.
CHUNKS_PER_WORKER = 4


def _near_equal(items: Sequence[Any], pieces: int) -> list[list[Any]]:
    """``items`` cut into ``pieces`` contiguous near-equal lists."""
    base, extra = divmod(len(items), pieces)
    bounds = [0]
    for piece in range(pieces):
        bounds.append(bounds[-1] + base + (1 if piece < extra else 0))
    return [list(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _split_chunks(
    items: Sequence[Any], workers: int, plans: Sequence[Any]
) -> list[list[Any]]:
    """Cut ``items`` into chunks for ``workers`` pool workers, plan by plan.

    ``plans[i]`` names the engine plan item *i* will replay; items that
    replay none carry a name of their own.  Items of one plan travel
    together, because a chunk has a plan scope of its own.  A plan
    bigger than a chunk (``len(items) / (workers * CHUNKS_PER_WORKER)``,
    rounded up) is shared out over at most ``workers`` near-equal chunks
    of its own — so a one-plan batch becomes one chunk per worker, not
    a row of singletons that share nothing.  The smaller ones are
    packed whole, in order, into near-equal chunks, their share of the
    ``workers * CHUNKS_PER_WORKER`` — items that share nothing are cut
    exactly as evenly, and into as many chunks, as they always were.
    Items keep their order within a plan; there are no empty chunks.
    """
    if not items:
        return []
    workers = max(1, workers)
    n_chunks = min(len(items), workers * CHUNKS_PER_WORKER)
    size = -(-len(items) // n_chunks)
    by_plan: dict[Any, list[Any]] = {}
    for item, plan in zip(items, plans):
        by_plan.setdefault(plan, []).append(item)
    chunks: list[list[Any]] = []
    small: list[list[Any]] = []
    for members in by_plan.values():
        if len(members) > size:
            chunks.extend(
                _near_equal(members, min(workers, -(-len(members) // size)))
            )
        else:
            small.append(members)
    if small:
        count = sum(map(len, small))
        pieces = min(len(small), -(-count * n_chunks // len(items)))
        base, extra = divmod(count, pieces)
        packed: list[list[Any]] = [[]]
        for members in small:
            target = base + (1 if len(packed) <= extra else 0)
            if packed[-1] and len(packed[-1]) + len(members) > target:
                packed.append([])
            packed[-1].extend(members)
        chunks.extend(packed)
    return chunks


def _worker_init() -> None:
    """Pool-worker initializer: restore default signal dispositions.

    Forked workers inherit whatever handlers the parent installed — the
    CLI's graceful-drain SIGTERM handler in particular, which would make
    workers *ignore* the executor's ``terminate()`` during broken-pool
    cleanup (and print the drain banner from the wrong process).
    """
    import signal  # noqa: PLC0415 - worker-side only

    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        # Workers must not race the parent for Ctrl-C: the parent drains
        # and shuts the pool down; an interrupted worker would break it.
        signal.signal(signal.SIGINT, signal.SIG_IGN)


#: What running one request resolves to: ``(ok, seconds,
#: value_or_exception, attempt, attempt_seconds)`` — see
#: :func:`_attempt_request`.
Outcome = tuple[bool, float, Any, int, float | None]


def _run_chunk(payload: bytes) -> tuple[list[Outcome], list[Any]]:
    """Worker-side chunk executor.

    ``payload`` is the parent-pickled ``(targets, machines, plans, chunk,
    telemetry, faults)`` tuple; each packed request of ``chunk`` runs against
    the batch's target and machine tables and the chunk's plan scope
    (see :func:`_pack`).  Pickling in the parent (instead of the
    executor's queue-feeder thread) turns an unpicklable payload into a
    synchronous error the fallback handles — feeder-thread pickling
    failures deadlock ProcessPoolExecutor shutdown on some CPython
    versions.  An exception that escapes a request's retry loop fails
    that request, not the pool.

    ``telemetry`` is the parent's packed span context (or ``None`` when
    the parent's bus is dark): the chunk runs under it, every event the
    worker emits is captured, and the buffered events return alongside
    the outcomes so the parent can replay them into its sinks — that is
    how spans opened inside pool workers stitch under the span that
    submitted the batch.

    ``faults`` is the parent's active fault plan (or ``None``): a worker
    whose own plan differs — it started before the parent activated one,
    or after the parent dropped it — takes the parent's.  An unchanged
    plan is left alone, so hit counters stay per process.
    """
    import pickle  # noqa: PLC0415 - worker side

    targets, machines, plans, chunk, telemetry, faults = pickle.loads(payload)
    if faults != active_plan():
        activate(faults) if faults is not None else deactivate()
    with activate_context(telemetry) as events:
        outcomes: list[Outcome] = []
        for request, target, machine in chunk:
            try:
                outcomes.append(_attempt_request(
                    request, targets[target], machines[machine], plans
                ))
            except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
                outcomes.append(_failed(request, exc))
        return outcomes, list(events) if events is not None else []


def _attempt_request(
    request: RunRequest, target: Any, machine: Any, plans: Any
) -> Outcome:
    """Execute one request under its policy.

    ``plans`` is the plan scope the request executes in;
    :func:`~repro.runtime.execute.dispatch` fills and reads it inside
    the attempt.

    Returns ``(ok, seconds, value_or_exception, attempt, attempt_seconds)``
    where ``attempt`` is the 1-based attempt that produced the outcome,
    ``seconds`` covers all attempts including backoff sleeps and
    ``attempt_seconds`` is the wall-clock time spent *inside* the
    deciding attempt (what failure messages report as time-in-attempt).
    Failed attempts retry up to ``policy.retries`` times — but only for
    *retryable* failures (:func:`~repro.core.errors.is_retryable`);
    a fatal error (bad config, malformed workload, quarantined request)
    stops the loop on the attempt that raised it.  An attempt exceeding
    ``policy.timeout`` counts as failed with :class:`RunTimeoutError`.

    Emits one ``run.request`` span per request (kind, key, deciding
    attempt, retry/timeout outcome) — in the pool worker for pooled
    requests, whence it stitches under the submitting batch's span.
    """
    from repro.runtime.execute import dispatch  # noqa: PLC0415 (cycle)

    policy = _policy(request)
    with span("run.request", kind=request.kind, key=request.key) as sp:
        start = time.perf_counter()
        outcome: Any = None
        attempt_elapsed = 0.0
        deciding = policy.attempts
        for attempt in range(1, policy.attempts + 1):
            attempt_start = time.perf_counter()
            try:
                value = dispatch(request, target, machine, plans)
                attempt_elapsed = time.perf_counter() - attempt_start
                if policy.timeout is not None and attempt_elapsed > policy.timeout:
                    raise RunTimeoutError(
                        f"attempt took {attempt_elapsed:.3f}s, over the "
                        f"{policy.timeout:g}s policy timeout"
                    )
                sp.set(ok=True, attempt=attempt, attempts=policy.attempts)
                return True, time.perf_counter() - start, value, attempt, \
                    attempt_elapsed
            except Exception as exc:  # noqa: BLE001 - surfaced as RunResult / re-raised
                attempt_elapsed = time.perf_counter() - attempt_start
                outcome = exc
                deciding = attempt
                if not is_retryable(exc):
                    break  # fatal: identical failure every attempt
                if attempt < policy.attempts:
                    sleep = _backoff_sleep(policy, request, attempt)
                    get_bus().event(
                        "run.retry", level="debug", kind=request.kind,
                        key=request.key, attempt=attempt,
                        attempt_seconds=attempt_elapsed, error=repr(exc),
                        sleep=sleep,
                    )
                    if sleep > 0:
                        time.sleep(sleep)
        sp.set(
            ok=False, attempt=deciding, attempts=policy.attempts,
            timeout=isinstance(outcome, RunTimeoutError), error=repr(outcome),
            retryable=is_retryable(outcome) if outcome is not None else None,
        )
        return False, time.perf_counter() - start, outcome, deciding, \
            attempt_elapsed


def _backoff_sleep(policy: RunPolicy, request: RunRequest, attempt: int) -> float:
    """The sleep before the attempt after ``attempt`` (full jitter).

    With ``policy.jitter`` the sleep is uniform in ``[0, backoff*k)``,
    drawn from an RNG seeded by the request's own identity — no global
    RNG state is read or advanced, so campaign results stay
    bit-reproducible and pool workers never correlate their draws.
    """
    ceiling = policy.backoff * attempt
    if ceiling <= 0:
        return 0.0
    if not policy.jitter:
        return ceiling
    rng = random.Random(
        f"{request.key}|{request.seed}|{request.index}|{attempt}"
    )
    return ceiling * rng.random()


def _failure_context(
    request: RunRequest, attempt: int, attempt_seconds: float | None = None
) -> str:
    """Human-readable request identity for failure messages.

    Surfaces what a bare traceback loses once a request has crossed the
    pool: the request kind, the caller-assigned key (a campaign's cell
    digest), which attempt of the policy budget failed, and how long
    that attempt ran before failing (so a stuck cell is distinguishable
    from an instant crash in the campaign's failure report).
    """
    policy = _policy(request)
    key = f" key={request.key}" if request.key is not None else ""
    elapsed = (
        f", {attempt_seconds:.3f}s in attempt" if attempt_seconds is not None else ""
    )
    return (
        f"{request.kind} request{key} "
        f"(attempt {attempt}/{policy.attempts}{elapsed})"
    )


def _failed(request: RunRequest, exc: BaseException, seconds: float = 0.0) -> Outcome:
    """The outcome of a request that failed outside its retry loop (an
    exception escaped it, or the supervisor killed or quarantined it):
    charged to the whole policy budget."""
    return False, seconds, exc, _policy(request).attempts, None


def _policy(request: RunRequest) -> RunPolicy:
    """The policy ``request`` runs under (the default one when it has none)."""
    return request.policy if request.policy is not None else RunPolicy()


def _result(request: RunRequest, outcome: Outcome, rethrow: bool) -> RunResult:
    """The :class:`RunResult` of a request's outcome, pooled or in-parent.

    With ``rethrow`` a failure re-raises instead, annotated with the
    request context: the original exception type is preserved (callers
    match on it); the context travels as an exception note where the
    runtime supports them (3.11+).
    """
    ok, seconds, value, attempt, attempt_seconds = outcome
    if ok:
        return RunResult(request=request, ok=True, value=value, seconds=seconds)
    context = _failure_context(request, attempt, attempt_seconds)
    if rethrow:
        if hasattr(value, "add_note"):
            value.add_note(f"while executing {context}")
        raise value
    return RunResult(
        request=request, ok=False, error=f"{context}: {value!r}", seconds=seconds
    )


#: Slack (seconds) past an item's policy budget before the supervisor
#: kills its worker: covers pool dispatch, payload pickling and the
#: supervisor's own poll granularity.
DEADLINE_GRACE = 0.25

#: Supervisor poll interval while pooled futures are outstanding (the
#: deadline-check cadence; completions wake the supervisor immediately).
_POLL_INTERVAL = 0.05


class _ProcessPools:
    """The pool seam's default: real worker processes."""

    @staticmethod
    def start(workers: int) -> Any:
        import concurrent.futures  # noqa: PLC0415 - keep off the serial path

        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_init
        )

    @staticmethod
    def stop(pool: Any, kill: bool) -> None:
        """Shut ``pool`` down, with ``kill`` killing its workers first
        (``shutdown()`` alone would *join* a hung worker forever).
        ``wait=True``: a management thread left behind deadlocks
        concurrent.futures' atexit join; idle workers make it cheap."""
        if not kill:
            pool.shutdown(wait=True, cancel_futures=True)
            return
        for process in list((pool._processes or {}).values()):
            with contextlib.suppress(OSError):  # already gone
                process.kill()
        with contextlib.suppress(Exception):  # broken-pool teardown is best effort
            pool.shutdown(wait=True, cancel_futures=True)


def _wait_first(futures: set[Any]) -> set[Any]:
    """The wait seam's default: the ``futures`` done within one poll."""
    import concurrent.futures as cf  # noqa: PLC0415 - parallel path only

    return cf.wait(futures, _POLL_INTERVAL, cf.FIRST_COMPLETED).done


#: Per supervisor recovery action: its ``RunService.stats`` key, its
#: registry counter and its bus event.
_RECOVERIES = {
    "pool_crashes": ("supervisor.pool.crashes", "supervisor.pool.crash"),
    "deadline_kills": ("supervisor.deadline.kills", "supervisor.deadline.kill"),
    "requeued": ("supervisor.requeued", "supervisor.requeue"),
    "quarantined": ("supervisor.quarantined", "supervisor.quarantine"),
    "fallbacks": ("supervisor.fallbacks", "supervisor.fallback"),
}


class _SupervisedRun:
    """One supervised pooled batch of requests, run as explicit steps.

    Resolves every request to its :data:`Outcome`: the one its worker
    returned, or a failure the supervisor charges to it — a
    :class:`RunTimeoutError` when it outlived its budget, a
    :class:`~repro.core.errors.PoisonRequestError` when it was in
    flight at :data:`RunService.POISON_CRASH_LIMIT` pool crashes.  When
    the pool proves unusable, the requests still unresolved keep
    ``None`` and run in the parent.

    A :meth:`step` is :meth:`settle` (take what finished, enforce
    deadlines), then :meth:`fill` (top the dispatch window up, planning
    the next round once the last is over); either may end in one
    recovery — :meth:`_crash`, :meth:`_deadline` (both end the round in
    :meth:`_requeue`) or :meth:`_fallback`.  The steps read the pool,
    the wait and the clock from the service's seams (``_pools``,
    ``_wait``, ``_clock``); ``tests/runtime/test_supervisor_machine.py``
    drives them on a fake pool and a virtual clock.

    At most ``workers`` chunks are in flight, so a submitted chunk is
    *executing*: deadline clocks are honest (an item queued behind a
    hog never burns its budget waiting) and crash blame is precise.

    Invariants: each item resolves exactly once; a pool crash requeues
    each unresolved in-flight item exactly once; crash suspects re-run
    one at a time (probe rounds), so a repeat crash blames one request
    and a bystander of a poison chunk is never quarantined.
    """

    def __init__(
        self, service: "RunService", requests: Sequence[RunRequest], workers: int
    ) -> None:
        n = len(requests)
        self.service = service
        self.requests = requests
        self.targets, self.machines, self.items = _pack(requests)
        self.workers = workers
        self.budgets = [_policy(request).budget for request in requests]
        #: Per item, the engine plan it replays (see :func:`_split_chunks`).
        self.plans = _plan_names(self.items)
        self.outcomes: list[Outcome | None] = [None] * n
        self.remaining = set(range(n))
        self.crashes = [0] * n
        #: The round's chunks not yet submitted, in submission order.
        self.queue: list[tuple[list[int], bytes]] = []
        #: Submitted future -> (its chunk, the clock at submission).
        self.in_flight: dict[Any, tuple[list[int], float]] = {}
        self.usable = True
        self.bus = get_bus()
        self.registry = get_registry()
        self.telemetry = pack_context()
        self.faults = active_plan()

    def execute(self) -> list[Outcome | None]:
        while self.remaining and self.usable:
            self.step()
        return self.outcomes

    def step(self) -> None:
        self.settle()
        self.fill()

    def settle(self) -> None:
        """Take the chunks that finished, then enforce deadlines."""
        import concurrent.futures as cf  # noqa: PLC0415 - parallel path only

        if not self.in_flight:
            return
        done = self.service._wait(set(self.in_flight))
        broken = False
        for future in [future for future in self.in_flight if future in done]:
            try:
                chunk_outcomes, events = future.result()
            except cf.BrokenExecutor:
                broken = True  # stays in flight: the crash blames it
                continue
            except Exception as exc:  # noqa: BLE001 - infra boundary
                return self._fallback(exc)
            chunk, _ = self.in_flight.pop(future)
            self.bus.replay(events)
            for i, outcome in zip(chunk, chunk_outcomes):
                self.outcomes[i] = outcome
                self.remaining.discard(i)
        if broken:
            return self._crash()
        now = self.service._clock()
        victims = [
            (chunk[0], now - started)
            for chunk, started in self.in_flight.values()
            if len(chunk) == 1 and self.budgets[chunk[0]] is not None
            and now - started > self.budgets[chunk[0]] + DEADLINE_GRACE
        ]
        if victims:
            self._deadline(victims)

    def fill(self) -> None:
        """Submit queued chunks while fewer than ``workers`` are in flight."""
        import concurrent.futures as cf  # noqa: PLC0415 - parallel path only

        try:
            if self.usable and not self.queue and not self.in_flight:
                self.queue = self._plan()
            while self.queue and len(self.in_flight) < self.workers:
                chunk, payload = self.queue.pop(0)
                pool = self.service._ensure_pool(self.workers)
                future = pool.submit(_run_chunk, payload)
                self.in_flight[future] = (chunk, self.service._clock())
        except cf.BrokenExecutor:
            self._crash()
        except Exception as exc:  # noqa: BLE001 - infra boundary
            self._fallback(exc)

    def _plan(self) -> list[tuple[list[int], bytes]]:
        """The next round's ``(chunk, payload)`` list: the first crash
        suspect alone (a probe), or else every remaining item — budgeted
        ones in singleton chunks, so a deadline attaches to one request,
        the rest chunked."""
        import pickle  # noqa: PLC0415 - parallel path only

        from repro.runtime.execute import PlanScope  # noqa: PLC0415 (cycle)

        pending = sorted(self.remaining)
        singles: list[int] = []
        bulk: list[int] = []
        for i in [i for i in pending if self.crashes[i]][:1] or pending:
            (bulk if self.budgets[i] is None else singles).append(i)
        chunks = [[i] for i in singles] + _split_chunks(
            bulk, self.workers, [self.plans[i] for i in bulk]
        )
        # Each chunk gets a plan scope of its own (a scope cannot cross
        # into a pool), declared from the chunk's requests; its groups
        # and the tables pickle as one graph, so the worker's copies
        # keep their identities.
        return [
            (chunk, pickle.dumps((
                self.targets, self.machines,
                PlanScope().declare_requests([self.requests[i] for i in chunk]),
                [self.items[i] for i in chunk], self.telemetry, self.faults,
            )))
            for chunk in chunks
        ]

    # -- recovery actions ----------------------------------------------------

    def _crash(self) -> None:
        """A worker died and broke the pool: each unresolved item in
        flight gets a crash strike; one at the limit is quarantined
        with :class:`PoisonRequestError`, the rest requeue."""
        self.service._shutdown_pool()  # broken: discard, restart lazily
        suspects = self._in_flight_items()
        keys = [self.requests[i].key for i in suspects]
        self._record(
            "pool_crashes", 1, "warning", chunks_in_flight=len(self.in_flight),
            suspects=[i if key is None else key for i, key in zip(suspects, keys)],
        )
        limit = self.service.POISON_CRASH_LIMIT
        for i, key in zip(suspects, keys):
            self.crashes[i] += 1
            if self.crashes[i] >= limit:
                label = f"key={key}" if key is not None else f"#{i}"
                self._charge(i, PoisonRequestError(
                    f"request {label} killed the worker pool {self.crashes[i]} "
                    f"times (limit {limit}) and was quarantined",
                    key=key, crashes=self.crashes[i],
                ), "quarantined", "error", crashes=self.crashes[i])
        self._requeue()

    def _deadline(self, victims: list[tuple[int, float]]) -> None:
        """Fail the over-budget items and kill the pool (a running call
        cannot be cancelled); the rest requeue blame-free."""
        for i, elapsed in victims:
            budget = self.budgets[i]
            self._charge(i, RunTimeoutError(
                f"request ran {elapsed:.3f}s, past its {budget:g}s policy "
                f"budget (+{DEADLINE_GRACE:g}s grace); worker killed by "
                f"the supervisor"
            ), "deadline_kills", "warning", elapsed, budget=budget, elapsed=elapsed)
        self.service._shutdown_pool(kill=True)
        self._requeue()

    def _requeue(self) -> None:
        """End the round: the unresolved items that were in flight stay
        in ``remaining`` for the next one — each requeued once."""
        survivors = self._in_flight_items()
        self.in_flight.clear()
        self.queue.clear()
        if survivors:
            self._record("requeued", len(survivors), "info", count=len(survivors))

    def _fallback(self, exc: BaseException) -> None:
        """Pool infrastructure is unusable: leave the unresolved requests
        to the parent (:meth:`RunService.run` runs them serially)."""
        self.service._shutdown_pool()
        self.usable = False
        self.in_flight.clear()
        self.queue.clear()
        self._record(
            "fallbacks", 1, "warning", items=len(self.remaining), error=repr(exc)
        )
        warnings.warn(
            f"run service pool unavailable ({exc!r}); running "
            f"{len(self.remaining)} items serially",
            ParallelFallbackWarning,
            stacklevel=2,
        )

    def _in_flight_items(self) -> list[int]:
        """The unresolved items in flight."""
        return sorted(
            {i for chunk, _ in self.in_flight.values() for i in chunk}
            & self.remaining
        )

    def _charge(
        self, i: int, exc: BaseException, stat: str, level: str,
        seconds: float = 0.0, **attrs: Any,
    ) -> None:
        """Fail item ``i`` with ``exc``, a failure the supervisor charges."""
        self.outcomes[i] = _failed(self.requests[i], exc, seconds)
        self.remaining.discard(i)
        self._record(stat, 1, level, key=self.requests[i].key, **attrs)

    def _record(self, stat: str, amount: int, level: str, **attrs: Any) -> None:
        """One recovery action: its stat, its counter and its event."""
        counter, event = _RECOVERIES[stat]
        self.service.stats[stat] += amount
        self.registry.inc(counter, amount)
        self.bus.event(event, level=level, **attrs)


def _processes(processes: Any) -> int | None:
    """A worker-count ceiling: ``None`` (all cores) or a whole number >= 1."""
    return None if processes is None else whole_number("processes", processes, 1)


class RunService:
    """Executes batches of :class:`RunRequest` on a persistent pool.

    Parameters
    ----------
    processes:
        Default worker-count ceiling for batches that do not pass their
        own ``processes``: a whole number >= 1, or ``None`` for all cores
        (anything else is a :class:`~repro.core.errors.ConfigError`).  Worker counts are
        always additionally clamped to the batch size; a resolved count
        of 1 runs serially in-parent with zero pool overhead.

    The pool starts lazily on the first parallel batch and is reused by
    every later one — ``stats["pool_starts"]`` stays at 1 across
    arbitrarily many batches unless a batch needs *more* workers (the
    pool is restarted larger), a supervisor recovery restarts it (worker
    crash, deadline kill) or the pool breaks irrecoverably (serial
    fallback, then a fresh pool on the next batch).  Call :meth:`close`
    (or use the service as a context manager) to release the workers.
    """

    #: Pool crashes a single request may cause before the supervisor
    #: quarantines it with :class:`PoisonRequestError` instead of
    #: requeueing it again.
    POISON_CRASH_LIMIT = 3

    def __init__(self, processes: int | None = None) -> None:
        self._processes = _processes(processes)
        self._pool: Any = None
        self._pool_workers = 0
        # The supervisor's seams (a test overrides them; no public
        # option): how pools start and are killed, how it waits on
        # pooled futures, and its clock.
        self._pools: Any = _ProcessPools
        self._wait: Callable[[set[Any]], set[Any]] = _wait_first
        self._clock: Callable[[], float] = time.monotonic
        self.stats: dict[str, int] = {
            "batches": 0,
            "requests": 0,
            "pool_starts": 0,
            "fallbacks": 0,
            "pool_crashes": 0,
            "deadline_kills": 0,
            "requeued": 0,
            "quarantined": 0,
        }

    # -- pool management ----------------------------------------------------

    @property
    def pool_workers(self) -> int:
        """Worker count of the live pool (0 when no pool is running)."""
        return self._pool_workers if self._pool is not None else 0

    def resolve_workers(self, processes: int | None, n_items: int) -> int:
        """Effective worker count for a batch of ``n_items``."""
        if n_items <= 0:
            return 0
        limit = processes if processes is not None else self._processes
        if limit is None:
            limit = os.cpu_count() or 1
        return max(1, min(limit, n_items))

    def _ensure_pool(self, workers: int) -> Any:
        if self._pool is not None and self._pool_workers < workers:
            self._shutdown_pool()
        if self._pool is None:
            self._pool = self._pools.start(workers)
            self._pool_workers = workers
            self.stats["pool_starts"] += 1
        return self._pool

    def _shutdown_pool(self, kill: bool = False) -> None:
        """Release the pool (``kill``: terminate its workers, for
        deadline enforcement); the next parallel batch, or supervision
        round, lazily starts a fresh one."""
        pool, self._pool, self._pool_workers = self._pool, None, 0
        if pool is not None:
            self._pools.stop(pool, kill)

    def close(self) -> None:
        """Shut the worker pool down (idempotent); the service stays usable
        and will lazily start a fresh pool on the next parallel batch."""
        self._shutdown_pool()

    def __enter__(self) -> "RunService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request execution ---------------------------------------------------

    def run(
        self,
        requests: Iterable[RunRequest],
        processes: int | None = None,
        rethrow: bool = True,
    ) -> list[RunResult]:
        """Execute a batch of requests; returns results in request order.

        The batch fans out over the worker pool (respecting
        ``processes``) or, when it resolves to one worker, runs in the
        parent, in request order.  With ``rethrow`` (default) the first
        failing request re-raises its exception; ``rethrow=False``
        captures failures as ``ok=False`` results instead — campaign
        ledgers use this to record partial sweeps.

        The batch executes in the active plan scope
        (:func:`~repro.runtime.execute.plan_scope` — a campaign's), or
        in one of its own that is dropped on return: requests of a
        scope that share (target, machine) prepare it once.
        """
        from repro.runtime.execute import plan_scope  # noqa: PLC0415 (cycle)

        processes = _processes(processes)
        requests = list(requests)
        self.stats["batches"] += 1
        self.stats["requests"] += len(requests)
        registry = get_registry()
        batch_start = time.perf_counter()

        with span("service.run", requests=len(requests)) as sp, \
                plan_scope() as plans:
            workers = self.resolve_workers(processes, len(requests))
            outcomes: list[Outcome | None] = [None] * len(requests)
            if workers > 1:
                outcomes = _SupervisedRun(self, requests, workers).execute()
            # What no pool ran (a one-worker batch, or the rest of one
            # whose pool was unusable) runs here, in the active scope.
            left = [i for i, outcome in enumerate(outcomes) if outcome is None]
            plans.declare_requests([requests[i] for i in left])
            for i in left:
                outcomes[i] = _attempt_request(
                    requests[i], requests[i].target, requests[i].machine, plans
                )
            results = [
                _result(request, outcome, rethrow)
                for request, outcome in zip(requests, outcomes)
            ]
            sp.set(workers=workers)

        # Telemetry-derived service metrics (always on): per-request
        # latency and — for pooled batches — pool utilization, i.e. the
        # fraction of worker*wall capacity spent inside requests.
        busy = 0.0
        for result in results:
            registry.observe("service.request.seconds", result.seconds)
            registry.inc(
                "service.requests.ok" if result.ok else "service.requests.failed"
            )
            busy += result.seconds
        if workers > 1:
            wall = time.perf_counter() - batch_start
            if wall > 0:
                utilization = min(1.0, busy / (wall * workers))
                registry.observe("service.pool.utilization", utilization)
                registry.set_gauge("service.pool.utilization", utilization)
        return results


def _pack(
    requests: Sequence[RunRequest],
) -> tuple[list[Any], list[Any], list[tuple[RunRequest, int, int]]]:
    """Strip bulky objects out of pooled requests for pickling: each
    becomes ``(request copy without its target, whose machine is
    machine_slot, target_slot, machine_slot)`` — a request always names
    a machine.

    Distinct targets and machines ship once per chunk (in its payload)
    no matter how many requests reference them — fanning one workload
    over many seeds costs one pickle.
    """
    targets: list[Any] = []
    target_slots: dict[int, int] = {}
    machines: list[Any] = []
    machine_slots: dict[int, int] = {}
    items: list[tuple[RunRequest, int, int]] = []
    for request in requests:
        target_slot = target_slots.setdefault(id(request.target), len(targets))
        if target_slot == len(targets):
            targets.append(request.target)
        machine_slot = machine_slots.setdefault(id(request.machine), len(machines))
        if machine_slot == len(machines):
            machines.append(request.machine)
        lite = replace(request, target=None, machine=machine_slot)
        items.append((lite, target_slot, machine_slot))
    return targets, machines, items


def _plan_names(items: Sequence[tuple[RunRequest, int, int]]) -> list[Any]:
    """Per packed item, a name for the engine plan it will replay (what
    :func:`_split_chunks` keeps together): the ``(target_slot,
    machine_slot)`` of an ``engine``/``profile`` request — its pair in
    the chunk's plan scope — and, for an ``emulate`` request, its
    position, which it shares with nobody: its plan is the compile of
    its target under its config's build settings, and emulations of one
    profile spread over the pool as items that share nothing do."""
    return [
        item[1:] if item[0].kind in ("engine", "profile") else position
        for position, item in enumerate(items)
    ]


def batch_budget(requests: Sequence[RunRequest]) -> float | None:
    """Upper wall-clock bound for executing a batch of requests.

    The worst case is fully serial execution (the pool may degrade to
    the in-parent path), so the bound is the *sum* of every request's
    :attr:`RunPolicy.budget`.  ``None`` — unbounded — as soon as any
    request lacks a timeout, because that request alone can hang the
    batch forever.

    This is the elastic coordinator's deadline plumbing: a worker's
    lease-renewal thread stops renewing a wave's leases once the wave
    has provably overrun this bound, so a worker hung past every
    enforcement tier loses its leases and survivors steal the cells.
    """
    total = 0.0
    for request in requests:
        budget = _policy(request).budget
        if budget is None:
            return None
        total += budget
    return total


_default_service: RunService | None = None


def get_service() -> RunService:
    """The process-wide default :class:`RunService` (created lazily).

    Shared by the clients above the service — ``repro.profile(...,
    repeats=n)`` on the sim plane, ``validate_plan``, the campaign
    runner and the benchmark harness — so they all amortise one pool.
    The pool is released at interpreter exit.
    """
    global _default_service
    if _default_service is None:
        import atexit  # noqa: PLC0415 - one-time setup

        _default_service = RunService()
        atexit.register(_default_service.close)
    return _default_service


def reset_service() -> None:
    """Close and drop the default service (tests, forked children)."""
    global _default_service
    if _default_service is not None:
        _default_service.close()
        _default_service = None
