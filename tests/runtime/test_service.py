"""The unified run service (``repro.runtime.service``)."""

from __future__ import annotations

import contextlib
import json
import math
import re
from dataclasses import replace

import pytest

from repro.core.api import profile
from repro.core.errors import ConfigError
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.profiler import Profiler
from repro.runtime import (
    ParallelFallbackWarning,
    RunPolicy,
    RunRequest,
    RunService,
    get_service,
    reset_service,
)
from repro.sim.backend import SimBackend
from repro.sim.demands import ComputeDemand, IODemand
from repro.sim.workload import SimWorkload

from tests.conftest import make_backend


def _workload(instructions: float = 5e8, name: str = "svc-wl") -> SimWorkload:
    workload = SimWorkload(name=name)
    stream = workload.phase("main").stream("main")
    stream.add(ComputeDemand(instructions=instructions, workload_class="app.md"))
    stream.add(IODemand(bytes_written=4 << 20))
    return workload


def _duration(record) -> float:
    return record.duration


def _profile_digest(profile) -> str:
    """A profile's samples and totals: what does not depend on when and
    in which process it ran."""
    doc = profile.to_dict()
    return json.dumps([doc["samples"], profile.totals()], sort_keys=True)


def _tx(result) -> float:
    return result.tx


def _pool_unavailable(monkeypatch) -> None:
    import concurrent.futures

    def explode(*args, **kwargs):
        raise OSError("no fork for you")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", explode)


@contextlib.contextmanager
def _faults(rule: dict):
    """``rule`` at ``worker.execute`` — where every request attempt
    starts — for the ``with`` block."""
    from repro.faults import FaultPlan, injected_faults

    plan = FaultPlan.from_dict({"rules": [{"point": "worker.execute", **rule}]})
    with injected_faults(plan):
        yield


def _engine_requests(n: int = 10) -> list[RunRequest]:
    workload = _workload()
    return [
        RunRequest(
            kind="engine", target=workload, machine="comet",
            seed=1, index=i + 1, reduce=_duration,
        )
        for i in range(n)
    ]


class TestRunRequest:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunRequest(kind="teleport")

    def test_poolable_requires_declarative_sim_plane(self):
        """Every request is a declarative sim-plane run: one without a
        machine is rejected when it is built."""
        from repro.runtime.service import KINDS

        workload = _workload()
        assert KINDS == ("engine", "profile", "emulate")
        assert RunRequest(kind="engine", target=workload, machine="thinkie").machine
        for kind in KINDS:
            with pytest.raises(ValueError, match=f"{kind} requests need a machine"):
                RunRequest(kind=kind, target=workload)


class TestMap:
    """A batch fanned out over the pool: order, emptiness, persistence,
    degradation."""

    def test_order_preserving(self):
        requests = _engine_requests()
        with RunService() as service:
            pooled = service.run(requests, processes=2)
            serial = service.run(requests, processes=1)
        assert all(r.request is q for r, q in zip(pooled, requests))
        assert [r.value for r in pooled] == [r.value for r in serial]

    def test_empty(self):
        with RunService() as service:
            assert service.run([], processes=4) == []

    def test_pool_persists_across_batches(self):
        with RunService(processes=2) as service:
            for _ in range(3):
                service.run(_engine_requests(8))
            assert service.stats["pool_starts"] <= 1  # 0 on 1-core hosts

    def test_pool_creation_failure_degrades_serially(self, monkeypatch):
        requests = _engine_requests(6)
        with RunService() as service:
            serial = [r.value for r in service.run(requests, processes=1)]
        _pool_unavailable(monkeypatch)
        with RunService() as service:
            with pytest.warns(ParallelFallbackWarning):
                out = [r.value for r in service.run(requests, processes=2)]
            assert out == serial
            assert service.stats["fallbacks"] == 1


class TestInParentPath:
    """A request that runs in the parent runs the same whichever way it
    got there: a one-worker batch, or the rest of a batch whose pool was
    unavailable."""

    def test_mixed_batch_runs_alike_in_parent_pool_and_fallback(
        self, monkeypatch, gromacs_profile
    ):
        from repro.apps import SleeperApp
        from repro.faults import FaultPlan, injected_faults

        workload, app = _workload(), SleeperApp(sleep_seconds=1.0)
        config = SynapseConfig(sample_rate=2.0)
        requests = [
            RunRequest(kind="engine", target=workload, machine="comet",
                       seed=1, index=1, reduce=_duration),
            RunRequest(kind="profile", target=app, machine="thinkie",
                       config=config, seed=2, reduce=_profile_digest),
            RunRequest(kind="emulate", target=gromacs_profile, machine="comet",
                       seed=3, reduce=_tx),
            RunRequest(kind="engine", target=workload, machine="comet",
                       seed=1, index=2, reduce=_duration, key="fail"),
            RunRequest(kind="profile", target=app, machine="thinkie",
                       config=config, seed=2, index=2, reduce=_profile_digest),
            RunRequest(kind="engine", target=workload, machine="comet",
                       seed=1, index=3, reduce=_duration),
        ]
        plan = FaultPlan.from_dict({"rules": [
            {"point": "worker.execute", "mode": "error", "match_key": "fail"},
        ]})

        def outcomes(processes: int) -> tuple[dict, list[tuple]]:
            with injected_faults(plan), RunService() as service:
                results = service.run(requests, processes=processes, rethrow=False)
                stats = dict(service.stats)
            assert all(r.request is q for r, q in zip(results, requests))
            return stats, [
                (r.ok, r.value,
                 r.error and re.sub(r"[\d.]+s in attempt", "s in attempt", r.error))
                for r in results
            ]

        serial_stats, serial = outcomes(1)
        assert serial_stats["pool_starts"] == 0
        assert [ok for ok, _, _ in serial] == [True] * 3 + [False, True, True]
        assert "key=fail" in serial[3][2] and "InjectedFault" in serial[3][2]
        pooled_stats, pooled = outcomes(2)
        assert pooled_stats["pool_starts"] == 1
        assert pooled == serial
        _pool_unavailable(monkeypatch)
        with pytest.warns(ParallelFallbackWarning, match="items serially"):
            fallback_stats, fallback = outcomes(2)
        assert fallback == serial
        assert fallback_stats["fallbacks"] == 1
        # No batch too small for a pool touches the (unusable) pool.
        with RunService(processes=8) as service:
            assert service.run([]) == []
            [result] = service.run(_engine_requests(1))
            assert result.ok
            assert service.stats["pool_starts"] == 0
            assert service.pool_workers == 0


class TestEngineRequests:
    def test_parallel_identical_to_serial(self):
        workload = _workload()
        requests = [
            RunRequest(
                kind="engine", target=workload, machine="comet",
                seed=1, index=i + 1, reduce=_duration,
            )
            for i in range(6)
        ]
        with RunService() as service:
            serial = [r.value for r in service.run(requests, processes=1)]
            parallel = [r.value for r in service.run(requests, processes=2)]
        assert serial == parallel

    def test_reduce_runs_where_the_record_is(self):
        workload = _workload()
        request = RunRequest(
            kind="engine", target=workload, machine="thinkie",
            noisy=False, reduce=_duration,
        )
        with RunService() as service:
            [result] = service.run([request])
        assert isinstance(result.value, float)
        assert result.seconds >= 0.0

    def test_rethrow_raises_request_errors(self):
        request = RunRequest(kind="engine", target=object(), machine="thinkie")
        with RunService() as service:
            from repro.core.errors import WorkloadError

            with pytest.raises(WorkloadError):
                service.run([request])

    def test_capture_records_errors(self):
        good = RunRequest(
            kind="engine", target=_workload(), machine="thinkie", noisy=False
        )
        bad = RunRequest(kind="engine", target=object(), machine="thinkie")
        with RunService() as service:
            results = service.run([bad, good], rethrow=False)
        assert not results[0].ok and "WorkloadError" in results[0].error
        assert results[1].ok


class TestProfileAndEmulateRequests:
    def test_emulate_request_equals_direct_emulator(self, gromacs_profile):
        config = SynapseConfig(compute_kernel="asm")
        direct = Emulator(backend=make_backend("comet"), config=config).run(
            gromacs_profile
        )
        request = RunRequest(
            kind="emulate", target=gromacs_profile, machine="comet",
            config=config, noisy=False,
        )
        with RunService() as service:
            [result] = service.run([request])
        assert result.value.tx == direct.tx
        assert result.value.backend == "sim"

    def test_mixed_batch_preserves_order(self, gromacs_profile):
        workload = _workload()
        requests = [
            RunRequest(kind="profile", target=workload, machine="thinkie",
                       config=SynapseConfig(sample_rate=2.0), noisy=False,
                       reduce=_profile_digest),
            RunRequest(kind="engine", target=workload, machine="thinkie",
                       noisy=False, reduce=_duration),
            RunRequest(kind="emulate", target=gromacs_profile, machine="thinkie",
                       noisy=False),
        ]
        with RunService() as service:
            results = service.run(requests)
        assert isinstance(results[0].value, str)
        assert isinstance(results[1].value, float)
        assert results[2].value.backend == "sim"


class TestEntryPointsUseService:
    def test_run_repeats_matches_sequential_runs(self):
        """``profile(repeats=3)`` through the service == three
        ``Profiler.run`` calls."""
        app_workload = _workload(name="repeat-wl")
        config = SynapseConfig(sample_rate=2.0)
        sequential_backend = SimBackend("thinkie", noisy=True, seed=7)
        sequential_profiler = Profiler(sequential_backend, config=config)
        sequential = [sequential_profiler.run(app_workload) for _ in range(3)]

        service_backend = SimBackend("thinkie", noisy=True, seed=7)
        profiles = profile(
            app_workload, backend=service_backend, config=config, repeats=3
        )
        for left, right in zip(sequential, profiles):
            assert left.totals() == right.totals()
            assert left.to_dict()["samples"] == right.to_dict()["samples"]
        # The spawn slots are consumed either way: the next spawn on the
        # backend draws slot 4's noise in both worlds.
        assert (
            sequential_backend.spawn(app_workload).record.duration
            == service_backend.spawn(app_workload).record.duration
        )

    def test_emulator_subclass_overrides_survive_service_routing(self, gromacs_profile):
        """An Emulator subclass's replay customisation executes:
        ``run()`` is the subclass's own ``replay``."""

        class MarkingEmulator(Emulator):
            def replay(self, plan):
                result = super().replay(plan)
                result.info["marked"] = True
                return result

        emulator = MarkingEmulator(backend=make_backend("comet"))
        result = emulator.run(gromacs_profile)
        assert result.info.get("marked") is True
        assert result.tx == Emulator(backend=make_backend("comet")).run(
            gromacs_profile
        ).tx

    def test_run_repeats_preserves_backend_subclasses(self):
        """A SimBackend subclass cannot be rebuilt declaratively in a
        worker, so ``profile(repeats=)`` keeps using the live instance."""

        class CountingBackend(SimBackend):
            spawns = 0

            def spawn(self, target, **kwargs):
                CountingBackend.spawns += 1
                return super().spawn(target, **kwargs)

        backend = CountingBackend("thinkie", noisy=False)
        profiles = profile(
            _workload(), backend=backend, config=SynapseConfig(sample_rate=2.0),
            repeats=2,
        )
        assert CountingBackend.spawns == 2
        assert len(profiles) == 2

    def test_run_repeats_stores_profiles(self):
        from repro.storage.base import MemoryStore

        store = MemoryStore()
        profiles = profile(
            _workload(), backend=make_backend("thinkie"),
            config=SynapseConfig(sample_rate=2.0), store=store,
            command="stored-wl", repeats=2,
        )
        assert store.count() == 2
        assert [p.command for p in profiles] == ["stored-wl", "stored-wl"]

    def test_validate_plan_records_pool_scaling(self):
        from repro.predict.models import DemandVector, Task
        from repro.predict.placement import plan
        from repro.predict.validate import validate_plan

        tasks = [
            Task(name=f"t{i}", demand=DemandVector(instructions=2e9))
            for i in range(4)
        ]
        result = plan(tasks, ["titan", "comet"])
        report = validate_plan(result, tasks)
        replay = report.info["replay"]
        assert replay["machines"] == 2
        assert replay["effective_workers"] >= 1
        assert replay["seconds"] >= 0.0

    def test_default_service_is_shared_and_resettable(self):
        service = get_service()
        assert get_service() is service
        reset_service()
        fresh = get_service()
        assert fresh is not service


class TestRunPolicy:
    def test_validation(self):
        assert RunPolicy().attempts == 1
        assert RunPolicy(retries=2).attempts == 3
        assert type(RunPolicy(retries=2.0).retries) is int
        with pytest.raises(ConfigError, match="retries"):
            RunPolicy(retries=-1)
        with pytest.raises(ConfigError, match="timeout"):
            RunPolicy(timeout=0.0)
        with pytest.raises(ConfigError, match="backoff"):
            RunPolicy(backoff=-0.1)

    def test_from_dict(self):
        policy = RunPolicy.from_dict({"retries": 2, "timeout": 1.5})
        assert policy == RunPolicy(retries=2, timeout=1.5, backoff=0.0)
        assert RunPolicy.from_dict(policy) is policy
        # Full jitter is the only schedule: ``jitter`` is no key.
        with pytest.raises(ConfigError, match="unknown run policy keys"):
            RunPolicy.from_dict({"jitter": False})
        with pytest.raises(ConfigError, match="mapping"):
            RunPolicy.from_dict([1, 2])
        # Non-numeric values are a ConfigError naming the field (never
        # a raw TypeError).
        with pytest.raises(ConfigError, match="run policy timeout"):
            RunPolicy.from_dict({"timeout": {}})
        with pytest.raises(ConfigError):
            RunPolicy.from_dict({"retries": [1]})

    @pytest.mark.parametrize("retries", [1.5, -0.5, math.inf, math.nan])
    def test_rejects_a_retry_count_that_is_no_whole_number(self, retries):
        """A fractional retry count used to construct, then crash its
        batch past ``rethrow=False``.  (NaN, ±inf and bools are
        ``test_input_surfaces.py``'s, as the ``number-accepts-*`` rows of
        ``tests/mutants`` show; a truncated fraction runs cleanly, which
        that property cannot tell from a valid input.)"""
        with pytest.raises(ConfigError, match="retries"):
            RunPolicy(retries=retries)
        with pytest.raises(ConfigError, match="run policy retries"):
            RunPolicy.from_dict({"retries": retries})

    def test_flaky_request_succeeds_after_retry(self):
        from repro.telemetry.metrics import get_registry

        request = _engine_requests(1)[0]
        with RunService() as service:
            [clean] = service.run([request])
            before = get_registry().counter("faults.injected")
            with _faults({"mode": "error", "at": 1}):
                [result] = service.run([replace(request, policy=RunPolicy(retries=1))])
        assert result.ok and result.value == clean.value
        assert get_registry().counter("faults.injected") == before + 1

    def test_exhausted_retries_fail_with_last_error(self):
        request = replace(
            _engine_requests(1)[0], key="cell-x", policy=RunPolicy(retries=2)
        )
        with RunService() as service, _faults({"mode": "error", "error": "os"}):
            [result] = service.run([request], rethrow=False)
        assert not result.ok
        assert "attempt 3/3" in result.error
        assert "OSError('injected fault at worker.execute (key=cell-x)')" in result.error

    def test_backoff_sleeps_between_attempts(self):
        import time as _time

        from repro.runtime.service import _backoff_sleep

        request = replace(
            _engine_requests(1)[0], policy=RunPolicy(retries=2, backoff=0.05),
        )
        # The seeded full-jitter draws after attempts 1 and 2.
        slept = sum(_backoff_sleep(request.policy, request, k) for k in (1, 2))
        assert slept > 0.0
        start = _time.perf_counter()
        with RunService() as service, _faults({"mode": "error"}):
            [result] = service.run([request], rethrow=False)
        assert "attempt 3/3" in result.error
        assert _time.perf_counter() - start >= slept
        assert result.seconds >= slept

    def test_jittered_backoff_is_deterministic_and_bounded(self):
        from repro.runtime.service import _backoff_sleep

        policy = RunPolicy(retries=2, backoff=0.5)
        request = replace(_engine_requests(1)[0], key="cell-j")
        sleeps = [_backoff_sleep(policy, request, k) for k in (1, 2)]
        # Full jitter: uniform in [0, backoff * attempt).
        assert 0.0 <= sleeps[0] < 0.5
        assert 0.0 <= sleeps[1] < 1.0
        # Seeded by request identity: same request -> same draw ...
        assert sleeps == [_backoff_sleep(policy, request, k) for k in (1, 2)]
        # ... different request identity -> decorrelated draw.
        other = replace(request, key="cell-k")
        assert _backoff_sleep(policy, other, 1) != sleeps[0]

    def test_timeout_classifies_slow_requests_as_failed(self):
        request = replace(_engine_requests(1)[0], policy=RunPolicy(timeout=0.005))
        with RunService() as service, _faults({"mode": "delay", "delay": 0.03}):
            [result] = service.run([request], rethrow=False)
        assert not result.ok
        assert "RunTimeoutError" in result.error
        assert "policy timeout" in result.error

    def test_campaign_spec_policy_reaches_requests(self):
        from repro.runtime import CampaignSpec

        spec = CampaignSpec.from_dict({
            "name": "pol", "apps": ["sleeper:sleep_seconds=1"],
            "machines": ["thinkie"],
            "policy": {"retries": 1, "backoff": 0.5},
        })
        request = spec.cells()[0].to_request()
        assert request.policy == RunPolicy(retries=1, backoff=0.5)

    def test_campaign_spec_rejects_a_truncated_policy(self):
        """Rejected, not truncated: the spec's policy is the one it runs."""
        from repro.runtime import CampaignSpec

        for retries in (1.5, -0.5):
            with pytest.raises(ConfigError, match="run policy retries"):
                CampaignSpec.from_dict({
                    "name": "pol", "apps": ["sleeper"], "machines": ["thinkie"],
                    "policy": {"retries": retries},
                })


class TestFailureContext:
    """Worker exceptions surface request context, not a bare traceback."""

    def test_error_message_carries_kind_key_and_attempt(self):
        request = RunRequest(
            kind="engine", target=object(), machine="thinkie",
            key="deadbeef12345678", policy=RunPolicy(retries=1),
        )
        with RunService() as service:
            [result] = service.run([request], rethrow=False, processes=1)
        assert "engine request" in result.error
        assert "key=deadbeef12345678" in result.error
        # WorkloadError is fatal under the retry taxonomy: the loop
        # stops on attempt 1 instead of burning the retry budget.
        assert "attempt 1/2" in result.error
        assert "WorkloadError" in result.error

    @pytest.mark.parametrize("machine, config, name", [
        ("frontier", SynapseConfig(), "frontier"),
        ("stampede", SynapseConfig(io_filesystem="nope"), "nope"),
        ("stampede", SynapseConfig(compute_kernel="nope"), "nope"),
    ])
    def test_an_unknown_name_fails_at_the_first_attempt(
        self, gromacs_profile, machine, config, name
    ):
        """A machine, filesystem or kernel that nothing registers is as
        unknown on the next attempt, so no retry or backoff is spent."""
        request = RunRequest(
            kind="emulate", target=gromacs_profile, machine=machine, config=config,
            policy=RunPolicy(retries=3, backoff=0.2),
        )
        with RunService() as service:
            [result] = service.run([request], rethrow=False, processes=1)
        assert "attempt 1/4" in result.error
        assert repr(name) in result.error

    def test_pooled_failures_carry_the_same_context(self):
        requests = [
            RunRequest(
                kind="engine", target=object(), machine="thinkie",
                key=f"cell-{i}",
            )
            for i in range(2)
        ]
        with RunService() as service:
            results = service.run(requests, rethrow=False, processes=2)
        for i, result in enumerate(results):
            assert not result.ok
            assert f"key=cell-{i}" in result.error
            assert "attempt 1/1" in result.error

    def test_rethrow_preserves_exception_type_and_annotates(self):
        from repro.core.errors import WorkloadError

        request = RunRequest(
            kind="engine", target=object(), machine="thinkie", key="cell-y"
        )
        with RunService() as service:
            with pytest.raises(WorkloadError) as excinfo:
                service.run([request])
        notes = getattr(excinfo.value, "__notes__", [])
        if hasattr(excinfo.value, "add_note"):  # 3.11+
            assert any("key=cell-y" in note for note in notes)

    def test_campaign_failures_record_the_enriched_message(self):
        """End to end: a failing campaign cell's ledger entry names the
        cell digest and attempt, not just the raw exception."""
        from repro.faults import injected_faults
        from repro.runtime import CampaignSpec, run_campaign
        from repro.storage.base import MemoryStore
        from tests.runtime.conftest import failing

        spec = CampaignSpec.from_dict({
            "name": "ctx", "kind": "profile",
            "apps": ["sleeper:sleep_seconds=1"],
            "machines": ["thinkie"],
            "policy": {"retries": 1},
        })
        plan = failing(spec, "sleeper:sleep_seconds=1")
        with RunService(processes=1) as service, injected_faults(plan):
            report = run_campaign(spec, MemoryStore(), service=service)
        assert len(report.failed) == 1
        failure = report.failed[0]
        message = failure["error"]
        assert f"key={failure['cell']}" in message
        assert "attempt 2/2" in message  # an injected fault is retried once
        assert "profile request" in message


class TestFaultPlansReachThePool:
    def test_a_plan_activated_after_the_pool_started_reaches_its_workers(self):
        """Each chunk carries the parent's active plan: workers that
        started before it was activated fire it, and drop it with it."""
        service = get_service()
        assert all(r.ok for r in service.run(_engine_requests(4), processes=2))
        assert service.pool_workers >= 2
        with _faults({}):
            results = service.run(_engine_requests(4), processes=2, rethrow=False)
        assert service.pool_workers >= 2  # the same, warm pool ran them
        assert all(
            not r.ok and "injected fault at worker.execute" in r.error for r in results
        )
        assert all(r.ok for r in service.run(_engine_requests(4), processes=2))
