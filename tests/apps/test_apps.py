"""Application model tests (Gromacs, synthetic, sleeper, ensemble)."""

from __future__ import annotations

import pytest

from repro.apps import EnsembleApp, EnsembleStage, GromacsModel, SleeperApp, SyntheticApp
from repro.core.errors import WorkloadError
from repro.runtime import RunRequest, RunService
from repro.runtime.service import RunPolicy
from repro.sim.demands import ComputeDemand, IODemand
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel


def run(app, machine="thinkie"):
    spec = get_machine(machine)
    return Engine(spec, NoiseModel.silent()).run(app.build_workload(spec))


class TestGromacsModel:
    def test_instructions_linear_in_iterations(self):
        machine = get_machine("thinkie")
        small = GromacsModel(iterations=10_000).instructions(machine)
        large = GromacsModel(iterations=10_000_000).instructions(machine)
        # Dominated by the linear term at large n: 1000x iterations
        # within a few percent of 1000x the per-iteration work.
        per_iter = (large - small) / (10_000_000 - 10_000)
        assert per_iter == pytest.approx(1.08e5, rel=0.01)

    def test_compiled_factor_applies(self):
        thinkie = get_machine("thinkie")
        stampede = get_machine("stampede")
        app = GromacsModel(iterations=100_000)
        assert app.instructions(stampede) == pytest.approx(
            app.instructions(thinkie) * 1.89
        )

    def test_output_grows_input_constant(self):
        small = GromacsModel(iterations=10_000)
        large = GromacsModel(iterations=1_000_000)
        assert large.bytes_written() > small.bytes_written()
        assert large.bytes_read() == small.bytes_read()

    def test_memory_constant_in_iterations(self):
        rec_small = run(GromacsModel(iterations=10_000))
        rec_large = run(GromacsModel(iterations=200_000))
        assert rec_small.totals()["mem.peak"] == pytest.approx(
            rec_large.totals()["mem.peak"]
        )

    def test_rss_released_before_exit(self):
        """The teardown free is what Fig 6 (bottom) hinges on."""
        record = run(GromacsModel(iterations=50_000))
        rss = record.levels["mem.rss"]
        assert rss.values[-1] < record.totals()["mem.peak"] / 2

    def test_thinkie_tx_calibration(self):
        """Fig 4: Tx ~ 0.5s at 1e4 iters and ~210s at 1e7 on Thinkie."""
        tx_small = run(GromacsModel(iterations=10_000)).duration
        assert 0.2 < tx_small < 1.5
        # Estimate the 1e7 Tx from the cycle model instead of running it.
        machine = get_machine("thinkie")
        app = GromacsModel(iterations=10_000_000)
        tx_large = app.instructions(machine) / 1.9 / machine.cpu.frequency
        assert 150 < tx_large < 300

    def test_tags_and_command(self):
        app = GromacsModel(iterations=5000)
        assert app.tags() == {"tag_step": 5000}
        assert "5000" in app.command()

    def test_parallel_tags(self):
        app = GromacsModel(iterations=5000, threads=4, paradigm="mpi")
        assert app.tags()["threads"] == 4
        assert app.tags()["paradigm"] == "mpi"

    def test_threads_speed_up(self):
        serial = run(GromacsModel(iterations=200_000), "titan").duration
        parallel = run(GromacsModel(iterations=200_000, threads=8), "titan").duration
        assert parallel < serial * 0.5

    def test_chunks_invariant_totals(self):
        a = run(GromacsModel(iterations=100_000, chunks=16))
        b = run(GromacsModel(iterations=100_000, chunks=128))
        assert a.totals()["cpu.instructions"] == pytest.approx(
            b.totals()["cpu.instructions"], rel=1e-9
        )
        assert a.totals()["io.bytes_written"] == pytest.approx(
            b.totals()["io.bytes_written"], abs=1.0
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            GromacsModel(iterations=0)
        with pytest.raises(ValueError):
            GromacsModel(threads=0)


class TestSyntheticApp:
    def test_exact_io_totals(self):
        app = SyntheticApp(bytes_read=1 << 20, bytes_written=2 << 20, chunks=7)
        record = run(app)
        assert record.totals()["io.bytes_read"] == pytest.approx(1 << 20)
        assert record.totals()["io.bytes_written"] == pytest.approx(2 << 20)

    def test_exact_compute_totals(self):
        app = SyntheticApp(instructions=3e9, workload_class="app.md")
        record = run(app)
        assert record.totals()["cpu.instructions"] == pytest.approx(3e9)

    def test_sleep_extends_tx(self):
        quick = run(SyntheticApp(instructions=1e8))
        slow = run(SyntheticApp(instructions=1e8, sleep_seconds=2.0))
        assert slow.duration == pytest.approx(quick.duration + 2.0, rel=0.01)

    def test_overlap_io_shortens_tx(self):
        serial = run(
            SyntheticApp(instructions=5e9, bytes_written=64 << 20, overlap_io=False)
        )
        overlapped = run(
            SyntheticApp(instructions=5e9, bytes_written=64 << 20, overlap_io=True)
        )
        assert overlapped.duration < serial.duration

    def test_filesystem_selection(self):
        app = SyntheticApp(bytes_written=1 << 20, filesystem="lustre")
        record = run(app, "titan")
        assert record.io_events[0].filesystem == "lustre"

    def test_default_filesystem_resolves(self):
        app = SyntheticApp(bytes_written=1 << 20)
        record = run(app, "supermic")
        assert record.io_events[0].filesystem == "lustre"

    def test_network_counters(self):
        record = run(SyntheticApp(net_sent=1000, net_received=500))
        assert record.totals()["net.bytes_written"] == pytest.approx(1000)

    def test_memory_alloc_and_release(self):
        record = run(SyntheticApp(memory_bytes=32 << 20))
        assert record.totals()["mem.allocated"] == pytest.approx(32 << 20)
        assert record.totals()["mem.freed"] == pytest.approx(32 << 20)


class TestSleeperApp:
    def test_tx_dominated_by_sleep(self):
        record = run(SleeperApp(sleep_seconds=5.0))
        assert record.duration == pytest.approx(5.0, rel=0.05)

    def test_cycles_tiny_fraction_of_tx(self):
        """The §4.5 semantics limitation: cycles reconstruct almost no Tx."""
        machine = get_machine("thinkie")
        record = run(SleeperApp(sleep_seconds=5.0))
        cycle_seconds = record.totals()["cpu.cycles_used"] / machine.cpu.frequency
        assert cycle_seconds < 0.05 * record.duration

    def test_command(self):
        assert SleeperApp(sleep_seconds=3).command() == "sleep 3"


class TestEnsembleApp:
    def test_stage_barriers(self):
        app = EnsembleApp(
            stages=(
                EnsembleStage(tasks=4, instructions=1e9),
                EnsembleStage(tasks=1, instructions=1e9),
            )
        )
        record = run(app)
        assert len(record.phase_bounds) == 2
        assert record.phase_bounds[0][1] == pytest.approx(record.phase_bounds[1][0])

    def test_concurrent_tasks_faster_than_serial(self):
        wide = EnsembleApp(stages=(EnsembleStage(tasks=4, instructions=4e9),))
        narrow = EnsembleApp(stages=(EnsembleStage(tasks=1, instructions=16e9),))
        assert run(wide).duration < run(narrow).duration

    def test_oversubscription_limits_speedup(self):
        """More tasks than cores stop helping (HPC use-case realism)."""
        machine = get_machine("thinkie")  # 4 cores
        at_cores = EnsembleApp(stages=(EnsembleStage(tasks=4, instructions=4e9),))
        oversub = EnsembleApp(stages=(EnsembleStage(tasks=8, instructions=2e9),))
        assert run(oversub).duration == pytest.approx(run(at_cores).duration, rel=0.05)

    def test_total_work_conserved(self):
        app = EnsembleApp(stages=(EnsembleStage(tasks=3, instructions=2e9),))
        record = run(app)
        assert record.totals()["cpu.instructions"] == pytest.approx(6e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleApp(stages=())
        with pytest.raises(ValueError):
            EnsembleStage(tasks=0, instructions=1.0)


#: Apps whose constructor accepts them but whose demands are invalid.
INVALID_DEMANDS = {
    "threads=0": dict(instructions=1e9, threads=0),
    "flop_fraction=2": dict(instructions=1e9, flop_fraction=2),
    "memory_bytes=-1": dict(memory_bytes=-1),
    "sleep_seconds=-1": dict(sleep_seconds=-1),
    "io_block_size=0": dict(bytes_written=1 << 20, io_block_size=0),
    "net_sent=-3": dict(net_sent=-3),
}


class TestInvalidDemands:
    """An app whose demands are invalid fails the same way every time:
    ``build_packed`` raises :class:`WorkloadError`, which no retry
    policy re-attempts."""

    @pytest.mark.parametrize("kind", ["profile", "engine"])
    @pytest.mark.parametrize("params", INVALID_DEMANDS.values(), ids=INVALID_DEMANDS)
    def test_request_fails_after_one_attempt(self, params, kind):
        request = RunRequest(
            kind=kind, target=SyntheticApp(**params), machine="thinkie",
            config={"sample_rate": 2.0} if kind == "profile" else None,
            key="bad", policy=RunPolicy(retries=2),
        )
        with RunService(processes=1) as svc:
            (result,) = svc.run([request], rethrow=False)
            with pytest.raises(WorkloadError):
                svc.run([request])
        assert not result.ok
        assert f"{kind} request key=bad (attempt 1/3" in result.error
        assert "WorkloadError(" in result.error
