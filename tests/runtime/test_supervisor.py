"""The run service's supervisor: enforced deadlines, crash recovery,
poison quarantine.

Worker misbehavior is provoked through the fault-injection plane
(``worker.execute`` rules inherited by forked pool workers), not by
bespoke crash kernels — the same chaos a ``--faults`` soak run injects.
Every test uses a fresh :class:`RunService` so its pool forks *after*
the plan activates.  These are the real-pool checks (one crash, one
hang, a clean batch); the supervisor's recovery logic is explored step
by step, on a fake pool and a virtual clock, in
``test_supervisor_machine.py``.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan, injected_faults
from repro.runtime import (
    PoisonRequestError,
    RunPolicy,
    RunRequest,
    RunService,
    RunTimeoutError,
)
from repro.sim.demands import ComputeDemand
from repro.sim.workload import SimWorkload
from repro.telemetry import MemorySink, get_bus


def _workload(name: str = "sup-wl") -> SimWorkload:
    workload = SimWorkload(name=name)
    workload.phase("main").stream("main").add(
        ComputeDemand(instructions=2e8, workload_class="app.md")
    )
    return workload


def _duration(record) -> float:
    return record.duration


def _request(key: str, policy: RunPolicy | None = None) -> RunRequest:
    return RunRequest(
        kind="engine", target=_workload(), machine="thinkie",
        noisy=False, reduce=_duration, key=key, policy=policy,
    )


@pytest.fixture
def sink():
    memory = get_bus().add_sink(MemorySink())
    yield memory
    get_bus().remove_sink(memory)


class TestEnforcedDeadlines:
    def test_rethrow_raises_the_timeout(self):
        plan = FaultPlan.from_dict({"rules": [
            {"point": "worker.execute", "mode": "delay", "delay": 600.0,
             "match_key": "hang"},
        ]})
        with injected_faults(plan):
            with RunService() as service:
                with pytest.raises(RunTimeoutError, match="supervisor"):
                    service.run(
                        [_request("hang", RunPolicy(timeout=0.2)),
                         _request("ok")],
                        processes=2,
                    )

    def test_fast_requests_under_budget_are_untouched(self):
        """A policy budget alone must not cost correctness or kills."""
        policy = RunPolicy(timeout=30.0)
        with RunService() as service:
            results = service.run(
                [_request(f"r{i}", policy) for i in range(4)], processes=2
            )
            assert all(result.ok for result in results)
            assert service.stats["deadline_kills"] == 0
            assert service.stats["pool_crashes"] == 0


class TestPoolCrashRecovery:
    def test_worker_death_restarts_pool_and_requeues(self, tmp_path, sink):
        """One injected worker crash (fuse-limited): the pool restarts,
        in-flight requests requeue, and every result still lands —
        bit-identical to an undisturbed serial run."""
        plan = FaultPlan.from_dict({"rules": [
            {"point": "worker.execute", "mode": "crash", "match_key": "boom",
             "fuse": str(tmp_path / "crash.fuse")},
        ]})
        requests = [_request(key) for key in ("boom", "r1", "r2", "r3")]
        with injected_faults(plan):
            with RunService() as service:
                results = service.run(requests, processes=2, rethrow=False)
                stats = dict(service.stats)
        assert (tmp_path / "crash.fuse").exists()
        assert all(result.ok for result in results)
        assert stats["pool_crashes"] == 1
        assert stats["requeued"] >= 1
        assert stats["quarantined"] == 0
        assert len(sink.named("supervisor.pool.crash")) == 1
        assert sink.named("supervisor.requeue")
        # Exactly-once semantics with deterministic noise: the recovered
        # batch equals a fresh, fault-free serial execution.
        with RunService() as reference_service:
            reference = reference_service.run(requests, processes=1)
        assert [r.value for r in results] == [r.value for r in reference]

    def test_poison_is_fatal_not_retryable(self):
        from repro.core.errors import is_retryable

        assert not is_retryable(PoisonRequestError("x", key="k", crashes=3))


class TestSupervisedMap:
    """A supervised pooled batch with nothing to recover from."""

    def test_map_still_propagates_fn_errors(self):
        """A request's own error (here its ``reduce``) re-raises in the
        parent — the first in request order — instead of sending the
        batch to the serial fallback."""
        requests = [
            RunRequest(kind="engine", target=_workload(), machine="thinkie",
                       noisy=False, index=i, key=f"r{i}",
                       reduce=_reject if i % 2 else _duration)
            for i in range(6)
        ]
        with RunService() as service:
            with pytest.raises(ValueError, match="rejected") as excinfo:
                service.run(requests, processes=2)
            assert service.stats["fallbacks"] == 0
        notes = getattr(excinfo.value, "__notes__", [])
        if hasattr(excinfo.value, "add_note"):  # 3.11+
            assert any("key=r1" in note for note in notes)

    def test_map_results_match_serial(self):
        requests = [
            RunRequest(kind="engine", target=_workload(), machine="thinkie",
                       seed=5, index=i, reduce=_duration)
            for i in range(20)
        ]
        with RunService() as service:
            pooled = [r.value for r in service.run(requests, processes=2)]
            serial = [r.value for r in service.run(requests, processes=1)]
        assert pooled == serial


def _reject(record) -> float:
    raise ValueError("rejected")
