"""Batch execution APIs: ``Engine.run_many``, ``SimBackend.spawn_many``
and the process-pool fan-out above them (``engine`` requests to a
``RunService``)."""

from __future__ import annotations

import pytest

from repro.apps import GromacsModel, SyntheticApp
from repro.runtime import RunRequest, RunService
from repro.sim.backend import SimBackend
from repro.sim.demands import ComputeDemand, IODemand
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload


def _workload(instructions: float = 1e9, name: str = "wl") -> SimWorkload:
    workload = SimWorkload(name=name)
    stream = workload.phase("main").stream("main")
    stream.add(ComputeDemand(instructions=instructions, workload_class="app.md"))
    stream.add(IODemand(bytes_written=8 << 20))
    return workload


def _reduce_duration(record) -> float:
    return record.duration


def _engine_requests(targets, machine: str, seed: int, reduce=None) -> list[RunRequest]:
    """The spawn slots 1, 2, ... of a fresh ``SimBackend(machine,
    seed=seed)`` as engine requests."""
    return [
        RunRequest(kind="engine", target=target, machine=machine, seed=seed,
                   index=index, reduce=reduce)
        for index, target in enumerate(targets, 1)
    ]


class TestEngineRunMany:
    def test_matches_sequential_runs(self):
        machine = get_machine("thinkie")
        workloads = [_workload(1e9 * (i + 1), name=f"wl{i}") for i in range(3)]
        batch = Engine(machine, NoiseModel.silent()).run_many(workloads)
        single = [Engine(machine, NoiseModel.silent()).run(w) for w in workloads]
        assert [r.duration for r in batch] == [r.duration for r in single]
        assert [r.totals() for r in batch] == [r.totals() for r in single]

    def test_noise_stream_continues_across_runs(self):
        """run_many is the batch form of consecutive run() calls on one
        engine: the second workload sees the RNG state the first left."""
        machine = get_machine("thinkie")
        workloads = [_workload(name="a"), _workload(name="b")]
        batch = Engine(machine, NoiseModel(seed=7, duration_sigma=0.05)).run_many(
            workloads
        )
        engine = Engine(machine, NoiseModel(seed=7, duration_sigma=0.05))
        sequential = [engine.run(w) for w in workloads]
        assert [r.duration for r in batch] == [r.duration for r in sequential]
        # Fresh engines per run would NOT match the second record.
        fresh = Engine(machine, NoiseModel(seed=7, duration_sigma=0.05)).run(
            workloads[1]
        )
        assert fresh.duration != batch[1].duration


class TestSpawnMany:
    def test_equals_sequential_spawns(self):
        apps = [GromacsModel(iterations=50_000 + 10_000 * i) for i in range(4)]
        sequential_backend = SimBackend("thinkie", noisy=True, seed=3)
        sequential = [sequential_backend.spawn(app) for app in apps]
        batch_backend = SimBackend("thinkie", noisy=True, seed=3)
        batch = batch_backend.spawn_many(apps)
        for left, right in zip(sequential, batch):
            assert left.record.totals() == right.record.totals()

    def test_parallel_identical_to_serial(self):
        """The batch equals its pooled fan-out through the run service."""
        apps = [SyntheticApp(instructions=1e9, bytes_written=4 << 20, chunks=4)
                for _ in range(6)]
        serial = SimBackend("comet", noisy=True, seed=1).spawn_many(apps)
        with RunService() as service:
            parallel = service.run(_engine_requests(apps, "comet", 1), processes=2)
        for left, right in zip(serial, parallel):
            assert left.record.duration == right.value.duration
            assert left.record.totals() == right.value.totals()
            assert left.record.phase_bounds == right.value.phase_bounds

    def test_spawn_count_advances(self):
        backend = SimBackend("thinkie", noisy=True, seed=0)
        workload = _workload()
        first_batch = backend.spawn_many([workload, workload])
        next_spawn = backend.spawn(workload)
        # The next spawn draws seed index 3, not 1: noisy durations of
        # all three executions differ.
        durations = {
            first_batch[0].record.duration,
            first_batch[1].record.duration,
            next_spawn.record.duration,
        }
        assert len(durations) == 3

    def test_handles_share_virtual_clock(self):
        backend = SimBackend("thinkie", noisy=False)
        handles = backend.spawn_many([_workload(), _workload(2e9)])
        assert all(handle.start_time == backend.now() for handle in handles)
        assert all(handle.alive() for handle in handles)
        handles[1].wait()
        assert not handles[0].alive()

    def test_run_many_reduce_runs_in_worker(self):
        workload = _workload()
        requests = _engine_requests([workload] * 3, "thinkie", 0, _reduce_duration)
        with RunService() as service:
            durations = [result.value for result in service.run(requests, processes=2)]
        reference = SimBackend("thinkie", noisy=True, seed=0).spawn_many([workload] * 3)
        assert durations == [handle.record.duration for handle in reference]

    def test_rejects_unrunnable_target(self):
        from repro.core.errors import WorkloadError

        backend = SimBackend("thinkie")
        with pytest.raises(WorkloadError):
            backend.spawn_many([object()])
