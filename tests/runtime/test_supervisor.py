"""The run service's supervisor: enforced deadlines, crash recovery,
poison quarantine.

Worker misbehavior is provoked through the fault-injection plane
(``worker.execute`` rules inherited by forked pool workers), not by
bespoke crash kernels — the same chaos a ``--faults`` soak run injects.
Every test uses a fresh :class:`RunService` so its pool forks *after*
the plan activates.
"""

from __future__ import annotations

import time

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
    def test_hanging_request_is_killed_in_bounded_wall_clock(self, sink):
        """The acceptance scenario: a request that hangs forever, under
        ``RunPolicy(timeout=1, retries=1)``, fails in bounded time
        instead of stalling the batch until the heat death of CI."""
        plan = FaultPlan.from_dict({"rules": [
            # 600s >> any budget: without enforcement this test times out.
            {"point": "worker.execute", "mode": "delay", "delay": 600.0,
             "match_key": "hang"},
        ]})
        policy = RunPolicy(timeout=1, retries=1)
        assert policy.budget == 2.0
        requests = [
            _request("hang", policy), _request("ok-1"), _request("ok-2"),
        ]
        start = time.monotonic()
        with injected_faults(plan):
            with RunService() as service:
                results = service.run(requests, processes=2, rethrow=False)
                stats = dict(service.stats)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0  # budget 2s + grace + kill, not 600s
        assert not results[0].ok
        assert "RunTimeoutError" in results[0].error
        assert "killed by the supervisor" in results[0].error
        assert results[1].ok and results[2].ok
        assert stats["deadline_kills"] == 1
        kills = sink.named("supervisor.deadline.kill")
        assert len(kills) == 1
        assert kills[0].attrs["key"] == "hang"
        assert kills[0].attrs["budget"] == 2.0

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

    def test_poison_request_is_quarantined_with_context(self, sink):
        """A request that kills the pool every time it runs is cut off
        after POISON_CRASH_LIMIT crashes; innocent bystanders of its
        chunks all complete."""
        plan = FaultPlan.from_dict({"rules": [
            {"point": "worker.execute", "mode": "crash",
             "match_key": "poison"},
        ]})
        requests = [_request(key) for key in ("r0", "poison", "r1", "r2")]
        with injected_faults(plan):
            with RunService() as service:
                results = service.run(requests, processes=2, rethrow=False)
                stats = dict(service.stats)
        by_key = {result.key: result for result in results}
        assert not by_key["poison"].ok
        assert "PoisonRequestError" in by_key["poison"].error
        assert "key=poison" in by_key["poison"].error
        assert "quarantined" in by_key["poison"].error
        for key in ("r0", "r1", "r2"):
            assert by_key[key].ok, f"{key} should survive the poison chunk"
        # The poison request is in flight at every crash, so the crash
        # count equals the quarantine limit exactly.
        assert stats["pool_crashes"] == RunService.POISON_CRASH_LIMIT
        assert stats["quarantined"] == 1
        quarantines = sink.named("supervisor.quarantine")
        assert len(quarantines) == 1
        assert quarantines[0].attrs["key"] == "poison"
        assert quarantines[0].attrs["crashes"] == RunService.POISON_CRASH_LIMIT

    def test_rethrow_surfaces_poison_with_rich_context(self):
        plan = FaultPlan.from_dict({"rules": [
            {"point": "worker.execute", "mode": "crash",
             "match_key": "poison"},
        ]})
        with injected_faults(plan):
            with RunService() as service:
                # Two requests keep the batch pooled (a single request
                # resolves to one worker and runs in-parent).
                with pytest.raises(PoisonRequestError) as excinfo:
                    service.run(
                        [_request("poison"), _request("ok")], processes=2
                    )
        assert excinfo.value.key == "poison"
        assert excinfo.value.crashes == RunService.POISON_CRASH_LIMIT
        assert "killed the worker pool" in str(excinfo.value)

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
