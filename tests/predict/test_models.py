"""Demand-vector extraction tests (repro.predict.models)."""

from __future__ import annotations

import pytest

from repro.apps.ensemble import EnsembleApp, EnsembleStage
from repro.apps.skeleton import fan_out_fan_in
from repro.apps.synthetic import SyntheticApp
from repro.core.config import SynapseConfig
from repro.core.errors import ConfigError, ProfileNotFoundError, WorkloadError
from repro.core.profiler import Profiler
from repro.predict.models import (
    DemandVector,
    Task,
    demand_vector,
    demand_vector_from_profiles,
    extract,
    tasks_from_ensemble,
    tasks_from_skeleton,
)
from repro.storage.base import MemoryStore
from tests.conftest import make_backend


def _profile(repeat: int = 0, noisy: bool = False):
    app = SyntheticApp(
        instructions=2e9,
        bytes_read=32 << 20,
        bytes_written=8 << 20,
        memory_bytes=64 << 20,
    )
    profiler = Profiler(
        make_backend("thinkie", noisy=noisy, seed=repeat),
        config=SynapseConfig(sample_rate=5.0),
    )
    return profiler.run(app, tags={"run": repeat}, command=app.command())


class TestDemandVector:
    def test_rejects_negative_components(self):
        with pytest.raises(ConfigError, match="instructions"):
            DemandVector(instructions=-1.0)

    def test_scaled(self):
        vector = DemandVector(instructions=1e9, io_read_bytes=100.0)
        half = vector.scaled(0.5)
        assert half.instructions == pytest.approx(5e8)
        assert half.io_read_bytes == pytest.approx(50.0)
        assert half.workload_class == vector.workload_class

    def test_to_demands_roundtrip(self):
        vector = DemandVector(
            instructions=1e9,
            flops=3e8,
            io_read_bytes=1 << 20,
            mem_alloc_bytes=1 << 20,
            net_bytes=1 << 16,
            sleep_seconds=0.5,
        )
        demands = vector.to_demands()
        kinds = [type(d).__name__ for d in demands]
        assert kinds == [
            "ComputeDemand",
            "MemoryDemand",
            "IODemand",
            "NetworkDemand",
            "SleepDemand",
        ]

    def test_empty_vector_produces_no_demands(self):
        vector = DemandVector()
        assert vector.empty
        assert vector.to_demands() == []


class TestProfileExtraction:
    def test_vector_matches_profile_totals(self):
        profile = _profile()
        vector = demand_vector(profile)
        totals = profile.totals()
        assert vector.instructions == pytest.approx(
            totals["cpu.instructions"], rel=1e-9
        )
        assert vector.io_read_bytes == pytest.approx(totals["io.bytes_read"], rel=1e-9)
        assert vector.io_write_bytes == pytest.approx(
            totals["io.bytes_written"], rel=1e-9
        )
        assert vector.mem_alloc_bytes == pytest.approx(totals["mem.allocated"], rel=1e-9)

    def test_overrides_pass_through(self):
        vector = demand_vector(_profile(), workload_class="app.md", threads=4)
        assert vector.workload_class == "app.md"
        assert vector.threads == 4

    def test_many_profiles_aggregate_to_mean(self):
        profiles = [_profile(repeat=r, noisy=True) for r in range(3)]
        vector = demand_vector_from_profiles(profiles)
        means = [demand_vector(p).instructions for p in profiles]
        assert vector.instructions == pytest.approx(sum(means) / len(means), rel=1e-6)

    def test_extract_uses_store_query(self):
        store = MemoryStore()
        for repeat in range(3):
            store.put(_profile(repeat=repeat, noisy=True))
        vector = extract(store, "synapse_synthetic", query={"machine.name": "thinkie"})
        assert vector.instructions > 0
        with pytest.raises(ProfileNotFoundError):
            extract(store, "synapse_synthetic", query={"machine.name": "titan"})

    def test_extract_missing_command_raises(self):
        with pytest.raises(ProfileNotFoundError):
            extract(MemoryStore(), "nope")


class TestAppDecomposition:
    def test_ensemble_tasks_and_dependencies(self):
        app = EnsembleApp(
            stages=(
                EnsembleStage(tasks=4, instructions=1e9, bytes_written=1 << 20),
                EnsembleStage(tasks=1, instructions=5e8, workload_class="app.generic"),
                EnsembleStage(tasks=4, instructions=1e9),
            )
        )
        tasks = tasks_from_ensemble(app)
        assert len(tasks) == 9
        stage0 = [t for t in tasks if t.name.startswith("stage0")]
        stage1 = [t for t in tasks if t.name.startswith("stage1")]
        assert all(t.depends_on == () for t in stage0)
        assert stage1[0].depends_on == tuple(t.name for t in stage0)
        assert stage0[0].demand.instructions == pytest.approx(1e9)
        assert stage0[0].demand.io_write_bytes == pytest.approx(float(1 << 20))
        assert stage1[0].demand.workload_class == "app.generic"

    def test_ensemble_rejects_other_apps(self):
        with pytest.raises(WorkloadError):
            tasks_from_ensemble(SyntheticApp(instructions=1.0))

    def test_skeleton_tasks_follow_dag_edges(self):
        skeleton = fan_out_fan_in(
            prepare=SyntheticApp(bytes_read=1 << 20),
            workers={
                "w0": SyntheticApp(instructions=1e9),
                "w1": SyntheticApp(instructions=2e9),
            },
            collect=SyntheticApp(instructions=5e8),
        )
        tasks = tasks_from_skeleton(skeleton)
        by_name = {t.name: t for t in tasks}
        assert set(by_name) == {"prepare", "w0", "w1", "collect"}
        assert by_name["w0"].depends_on == ("prepare",)
        assert by_name["collect"].depends_on == ("w0", "w1")
        assert by_name["w1"].demand.instructions == pytest.approx(2e9)

    def test_task_requires_name(self):
        with pytest.raises(ValueError):
            Task(name="", demand=DemandVector())
