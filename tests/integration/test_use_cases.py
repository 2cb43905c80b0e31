"""Integration tests encoding the paper's §2 use cases end-to-end.

Each test walks the full pipeline — application model, profiler, store,
plan, emulator — in the role the paper's motivating middleware would:
RADICAL-Pilot (§2.1), AIMES (§2.2), Ensemble Toolkit (§2.3).
"""

from __future__ import annotations

import pytest

from repro.apps import EnsembleApp, EnsembleStage, GromacsModel
from repro.core.api import emulate, profile, stats
from repro.core.config import SynapseConfig
from repro.core.plan import EmulationPlan
from repro.sim.backend import SimBackend
from repro.storage import MongoStore


def sim(machine: str, seed: int = 0, noisy: bool = False) -> SimBackend:
    return SimBackend(machine, noisy=noisy, seed=seed)


class TestRadicalPilotUseCase:
    """§2.1: tune one proxy app across the RP Agent's dimensions."""

    @pytest.fixture(scope="class")
    def store(self):
        store = MongoStore()
        profile(
            GromacsModel(iterations=500_000),
            backend=sim("titan"),
            store=store,
        )
        return store

    def test_single_profile_many_task_shapes(self, store):
        """One stored profile becomes serial/OpenMP/MPI proxy tasks."""
        command = "gmx mdrun -nsteps 500000"
        shapes = {
            "serial": SynapseConfig(),
            "openmp-8": SynapseConfig(openmp_threads=8),
            "mpi-8": SynapseConfig(mpi_processes=8),
        }
        txs = {
            label: emulate(command, backend=sim("titan"), store=store, config=config).tx
            for label, config in shapes.items()
        }
        assert txs["openmp-8"] < txs["serial"]
        assert txs["mpi-8"] < txs["serial"]

    def test_memory_tuning_beyond_application(self, store):
        """'Increase the amount of memory required ... even if the
        science problem does not require that amount' (§2.1)."""
        command = "gmx mdrun -nsteps 500000"
        prof = store.get(command)
        plan = EmulationPlan.from_profile(prof).scaled(mem=100.0)
        assert plan.totals().alloc_bytes == pytest.approx(
            100 * EmulationPlan.from_profile(prof).totals().alloc_bytes, rel=0.01
        )
        result = emulate(plan, backend=sim("titan"))
        replayed = result.handle.record.totals()["mem.allocated"]
        assert replayed == pytest.approx(plan.totals().alloc_bytes, rel=0.01)


class TestAimesUseCase:
    """§2.2: one profile validates middleware across many resources."""

    def test_profile_once_emulate_everywhere(self):
        store = MongoStore()
        app = GromacsModel(iterations=500_000)
        profile(app, backend=sim("thinkie"), store=store)
        txs = {}
        for machine in ("thinkie", "stampede", "archer", "comet", "supermic", "titan"):
            txs[machine] = emulate(
                app.command(), backend=sim(machine), store=store
            ).tx
        # Every resource executed the same replayed workload; faster
        # clocks/kernels finish sooner — Titan's Opteron is slowest.
        assert txs["titan"] == max(txs.values())
        assert txs["supermic"] == min(txs.values())

    def test_repeat_statistics_over_store(self):
        store = MongoStore()
        app = GromacsModel(iterations=100_000)
        profile(app, backend=sim("thinkie", noisy=True), store=store, repeats=4)
        result = stats(app.command(), app.tags(), store=store)
        assert result.n_profiles == 4
        assert result.metric("cpu.cycles_used").ci99 > 0


class TestEnsembleToolkitUseCase:
    """§2.3: vary task counts/durations between stages."""

    def make_app(self, wide: int, heavy: float) -> EnsembleApp:
        return EnsembleApp(
            stages=(
                EnsembleStage(tasks=wide, instructions=heavy),
                EnsembleStage(tasks=1, instructions=heavy / 4, workload_class="app.generic"),
                EnsembleStage(tasks=wide, instructions=heavy),
            )
        )

    def test_stage_variation_changes_tx(self):
        narrow = sim("supermic").spawn(self.make_app(wide=2, heavy=4e9)).duration
        wide = sim("supermic").spawn(self.make_app(wide=16, heavy=4e9)).duration
        heavy = sim("supermic").spawn(self.make_app(wide=2, heavy=16e9)).duration
        # Width within the node is (almost) free; heaviness is not.
        assert wide == pytest.approx(narrow, rel=0.1)
        assert heavy > 3 * narrow

    def test_ensemble_profile_reflects_stage_structure(self):
        from repro.analysis import detect_phases

        app = self.make_app(wide=8, heavy=30e9)
        prof = profile(
            app,
            backend=sim("supermic"),
            config=SynapseConfig(sample_rate=10.0),
        )
        phases = detect_phases(prof, threshold=0.5)
        # The wide/narrow/wide structure produces multiple regimes.
        assert len(phases) >= 2
