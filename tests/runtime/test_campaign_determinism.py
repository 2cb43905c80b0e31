"""Same seed, same ledger: one property over whole campaign executions.

Each example draws one execution of the 8-cell ``ci-smoke`` spec and
runs it with the real code: a backend (``MemoryStore``, a ``FileStore``
or a file-backed ``mongo://``); a topology (a lone ``run_campaign``, a 2-process pool,
1–3 ``elastic_worker``s splitting the sweep with ``limit``, or rarely a
2-worker ``run_elastic`` spawn fleet); waves of 1–4 cells; an
interruption (none, a ``stop`` drain after wave *k*, or a kill after *k*
batches followed by a lone resume or a late elastic join — a killed
elastic worker's markers stay behind, and the joiner must steal its
leases at epoch + 1 and sweep them); and seeded ``error`` faults
(p ≤ 0.05) on ``store.put``, ``store.entries`` and ``worker.execute``,
plus one fused worker crash under the pool.

A fault-free lone ``run_campaign`` then completes whatever failed, and
the ledger digest and report must equal a lone in-memory run's, every
cell must be in the deduped ledger, no marker may be left, and a
FileStore root must hold only segments, tombstones and the marker tree.

Tier-1 runs the explicit examples and a small derandomized set.  The
wide search loads the ``determinism`` profile (``conftest.py``)::

    PYTHONPATH=src python -m pytest tests/runtime/test_campaign_determinism.py \\
        --hypothesis-profile=determinism --hypothesis-seed=1
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    ENV_VAR,
    FaultPlan,
    InjectedFault,
    deactivate,
    injected_faults,
    reset,
)
from repro.runtime import (
    CampaignSpec,
    RunService,
    analyze_campaign,
    completed_cells,
    elastic_worker,
    ledger,
    ledger_digest,
    run_campaign,
    run_elastic,
)
from repro.runtime.campaign import _sweep
from repro.runtime.coordinator import STALE_MARKER_FACTOR, _Worker
from repro.storage import open_store
from repro.storage.base import MemoryStore
from repro.storage.filestore import SEGMENT_SUFFIX, TOMBSTONE_SUFFIX

from tests.runtime.conftest import DETERMINISM_PROFILE, DyingService, VirtualClock

SPEC = CampaignSpec.from_dict({
    "name": "ci-smoke", "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=2"],
    "machines": ["thinkie", "comet"],
    "seeds": [0, 1], "repeats": 1, "config": {"sample_rate": 2.0},
})
SERIAL = RunService(processes=1)
#: The late joiner's lease TTL; its clock starts past the garbage
#: horizon of every marker written before it joined.
LATE_TTL = 0.3
#: Steps the late joiner may take before it counts as not terminating.
MAX_STEPS = 200
FAULT_POINTS = ("store.put", "store.entries", "worker.execute")


@dataclass(frozen=True)
class Execution:
    """One way to execute :data:`SPEC`."""

    backend: str = "memory"  # memory | file | mongo
    topology: str = "lone"  # lone | pool | workers | fleet
    #: ``workers``: the ``limit`` of each worker but the last.
    limits: tuple[int, ...] = ()
    wave: int = 4
    interruption: str = "none"  # none | stop | kill
    #: Waves before a stop, batches before a kill.
    after: int = 1
    recovery: str = "resume"  # after a kill: resume | join
    #: ``(point, probability)`` error rules, or none at all.
    faults: tuple[tuple[str, float], ...] = ()
    fault_seed: int = 0
    #: ``pool``: one ``worker.execute`` crash, behind a fuse.
    crash: bool = False


@st.composite
def executions(draw) -> Execution:
    backend = draw(st.sampled_from(["memory", "file", "mongo"]))
    # The fleet is the slowest topology (two spawned interpreters): about
    # a quarter of the FileStore examples.
    fleet = backend == "file" and draw(st.integers(0, 3)) == 3
    topology = "fleet" if fleet else draw(st.sampled_from(["lone", "pool", "workers"]))
    wave = draw(st.integers(1, 4))
    limits = ()
    if topology == "workers":
        limits = tuple(draw(st.lists(st.integers(1, 4), max_size=2)))
    interruption, after, recovery = "none", 1, "resume"
    if topology != "fleet":
        interruption = draw(st.sampled_from(["none", "stop", "kill"]))
        after = draw(st.integers(1, 3))
        if interruption == "kill":
            # A dead elastic worker's markers are swept only by a joiner.
            recovery = "join" if topology == "workers" else draw(
                st.sampled_from(["resume", "join"])
            )
    probabilities = draw(st.tuples(*[st.sampled_from([0.0, 0.02, 0.05])] * 3))
    faults = tuple(
        (point, probability)
        for point, probability in zip(FAULT_POINTS, probabilities) if probability
    )
    return Execution(
        backend=backend, topology=topology, limits=limits, wave=wave,
        interruption=interruption, after=after, recovery=recovery,
        faults=faults,
        fault_seed=draw(st.integers(0, 2**16)) if faults else 0,
        # A single-request batch runs in the parent, where a crash would
        # kill the test: only waves of two cells or more crash a worker.
        crash=topology == "pool" and wave > 1 and draw(st.booleans()),
    )


@functools.cache
def reference() -> tuple[str, str]:
    """The lone in-memory run's ledger digest and report JSON."""
    store = MemoryStore()
    assert run_campaign(SPEC, store, service=SERIAL).complete
    return ledger_digest(store, SPEC.name), analyze_campaign(SPEC, store).to_json()


class Mortal:
    """A store handle that dies with its process: once ``dead``, the
    marker deletes a worker's clean-up would make are lost."""

    def __init__(self, store) -> None:
        self.store, self.dead = store, False

    def __getattr__(self, name):
        return getattr(self.store, name)

    def delete_markers(self, ids) -> None:
        if not self.dead:
            self.store.delete_markers(ids)


class Run:
    """One example's execution, on a store in a directory of its own."""

    def __init__(self, execution: Execution, root: Path) -> None:
        self.execution, self.root = execution, root
        if execution.backend == "file":
            self.url = f"file://{root / 'store'}"
        elif execution.backend == "mongo":
            self.url = f"mongo://{root / 'db.json'}"
        self.memory = MemoryStore() if execution.backend == "memory" else None

    def handle(self):
        """A store handle of one invocation's own (a file-backed Mongo
        database is read when it is opened)."""
        return self.memory if self.memory is not None else open_store(self.url)

    def faults(self, crash: bool = False) -> FaultPlan:
        rules = [
            {"point": point, "mode": "error", "probability": probability}
            for point, probability in self.execution.faults
        ]
        if crash:
            rules.append({"point": "worker.execute", "mode": "crash",
                          "fuse": str(self.root / "crash.fuse")})
        return FaultPlan.from_dict({"seed": self.execution.fault_seed, "rules": rules})

    def invoke(self, call) -> None:
        """One invocation; a store fault past its retries ends it like a
        crash would, a kill ends it as ``KeyboardInterrupt``."""
        try:
            call()
        except KeyboardInterrupt:
            assert self.execution.interruption == "kill"
        except InjectedFault:
            assert self.execution.faults

    def execute(self) -> None:
        ex = self.execution
        if ex.topology == "fleet":
            self.fleet()
        else:
            with injected_faults(self.faults(crash=ex.crash)):
                self.sweep()
            with injected_faults(self.faults()):
                if ex.interruption == "kill":
                    recover = self.join_late if ex.recovery == "join" else self.resume
                    self.invoke(recover)
        final = self.resume()
        assert final.complete and not final.failed, final.to_dict()

    def resume(self):
        """A lone ``run_campaign`` on this example's store."""
        return run_campaign(SPEC, self.handle(), service=SERIAL)

    def sweep(self) -> None:
        """The drawn topology, interrupted as drawn."""
        ex = self.execution
        waves: list[dict] = []
        stop = (lambda: len(waves) >= ex.after) if ex.interruption == "stop" else None
        processes = 2 if ex.topology == "pool" else 1
        dying = ex.interruption == "kill"
        if ex.topology in ("lone", "pool"):
            with (
                DyingService(ex.after, processes) if dying
                else RunService(processes=processes)
            ) as service:
                self.invoke(lambda: run_campaign(
                    SPEC, self.handle(), processes=processes, service=service,
                    checkpoint=ex.wave, progress=waves.append, stop=stop,
                ))
            return
        # Elastic workers, one after another: the first drains if told
        # to, the last (no limit) is the one a kill takes.
        limits = [*ex.limits, None]
        for index, limit in enumerate(limits):
            store, service = self.handle(), SERIAL
            if dying and index == len(limits) - 1:
                store = Mortal(store)
                service = DyingService(
                    ex.after, 1, death=functools.partial(setattr, store, "dead", True)
                )
            self.invoke(lambda: elastic_worker(
                SPEC, store, worker=f"w{index}", batch=ex.wave, service=service,
                limit=limit, progress=waves.append if index == 0 else None,
                stop=stop if index == 0 else None,
            ))

    def join_late(self) -> None:
        """What ``elastic_worker`` does, on a clock past the garbage
        horizon of everything written before it, and bounded: a joiner
        that cannot win what a dead worker held never finishes."""
        clock = VirtualClock(time.time() + LATE_TTL * STALE_MARKER_FACTOR + 1)
        with _sweep(SPEC, self.handle(), member="late", service=SERIAL) as sweep:
            steps = _Worker(sweep, LATE_TTL, self.execution.wave, clock=clock)
            try:
                steps.join()
                for _ in range(MAX_STEPS):
                    if steps.step() == "done":
                        break
                else:
                    raise AssertionError("the late joiner did not terminate")
            finally:
                steps.leave()

    def fleet(self) -> None:
        """Two spawned workers; the drawn faults reach them through the
        environment, and stay out of this process."""
        os.environ[ENV_VAR] = json.dumps(self.faults().to_dict())
        deactivate()
        try:
            run_elastic(
                SPEC, self.url, workers=2, lease_ttl=2.0, batch=self.execution.wave
            )
        finally:
            del os.environ[ENV_VAR]  # before the reset, or it is read again
            reset()

    def check(self) -> None:
        digest, report = reference()
        store = self.handle()
        assert ledger_digest(store, SPEC.name) == digest
        assert analyze_campaign(SPEC, store).to_json() == report
        cells = sorted(cell.digest for cell in SPEC.cells())
        assert sorted(completed_cells(store, SPEC.name)) == cells
        assert sorted(ledger(store, SPEC.name)) == cells
        assert store.markers(SPEC.name) == []
        if self.execution.crash and "worker.execute" not in dict(self.execution.faults):
            assert (self.root / "crash.fuse").exists(), "the crash never fired"
        if self.execution.backend == "file":
            root = self.root / "store"
            assert all(
                name == ".markers" or (root / name).is_file()
                and name.endswith((SEGMENT_SUFFIX, TOMBSTONE_SUFFIX))
                for name in os.listdir(root)
            ), os.listdir(root)


DERANDOMIZED = settings(
    max_examples=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@settings(
    settings.default
    if settings.get_current_profile_name() == DETERMINISM_PROFILE
    else DERANDOMIZED
)
@given(execution=executions())
# A worker killed holding a wave's leases, stolen by a late joiner.
@example(Execution(topology="workers", limits=(3,), wave=2, interruption="kill",
                   recovery="join"))
# A pooled sweep that loses a worker to a crash, under store faults.
@example(Execution(backend="file", topology="pool", wave=3, crash=True,
                   faults=(("store.put", 0.05), ("store.entries", 0.05)),
                   fault_seed=7))
# A drained first worker, then a second worker.
@example(Execution(backend="file", topology="workers", limits=(2,), wave=1,
                   interruption="stop"))
# A spawned fleet.
@example(Execution(backend="file", topology="fleet", wave=2))
# A kill on Mongo, resumed by a lone run.
@example(Execution(backend="mongo", topology="lone", wave=3, interruption="kill",
                   after=2, faults=(("worker.execute", 0.05),), fault_seed=3))
def test_every_execution_lands_the_reference_ledger(execution):
    event(f"{execution.backend} {execution.topology} {execution.interruption}")
    root = Path(tempfile.mkdtemp(prefix="determinism-"))
    try:
        run = Run(execution, root)
        run.execute()
        run.check()
    finally:
        shutil.rmtree(root, ignore_errors=True)
