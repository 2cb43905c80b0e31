"""Emulator tests: sim-plane replay fidelity and host-plane mechanics."""

from __future__ import annotations

import json

import pytest

from repro.apps import GromacsModel
from repro.atoms.base import AtomWork
from repro.core.api import profile as api_profile
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.errors import EmulationError
from repro.core.plan import EmulationPlan, PlanSample
from repro.core.profiler import Profiler
from repro.core.samples import Profile, Sample
from repro.runtime import RunRequest, RunService
from repro.sim.backend import SimBackend
from repro.storage import MemoryStore
from repro.telemetry.metrics import get_registry

from tests.conftest import make_backend
from tests.sim.gen_golden_fixtures import EMULATION_CASES, EMULATION_FIXTURE_PATH


def small_plan(cycles=1e6, n=3, **work_kw):
    samples = [
        PlanSample(index=i, work=AtomWork(cycles=cycles, **work_kw)) for i in range(n)
    ]
    return EmulationPlan(samples=samples, command="planned")


class TestResolution:
    def test_profile_source(self, gromacs_profile):
        emulator = Emulator(backend=make_backend())
        result = emulator.run(gromacs_profile)
        assert result.backend == "sim"
        assert result.tx > 0

    def test_plan_source(self):
        emulator = Emulator(backend=make_backend())
        result = emulator.run(small_plan())
        assert result.tx > 0

    def test_command_source_needs_store(self):
        emulator = Emulator(backend=make_backend())
        with pytest.raises(EmulationError):
            emulator.run("some command")

    def test_command_source_with_store(self, gromacs_profile):
        store = MemoryStore()
        store.put(gromacs_profile)
        emulator = Emulator(backend=make_backend(), store=store)
        result = emulator.run(gromacs_profile.command, tags=gromacs_profile.tags)
        assert result.tx > 0

    def test_bad_source_type(self):
        with pytest.raises(EmulationError):
            Emulator(backend=make_backend()).run(12345)


class TestSimReplayFidelity:
    def test_cycles_conserved_with_bias(self, gromacs_profile):
        """Emulation consumes profiled cycles x kernel bias (+ startup)."""
        backend = make_backend("thinkie")
        emulator = Emulator(backend=backend, config=SynapseConfig(compute_kernel="asm"))
        result = emulator.run(gromacs_profile)
        consumed = result.handle.record.totals()["cpu.cycles_used"]
        target = gromacs_profile.totals()["cpu.cycles_used"]
        bias = backend.machine.cpu.spec("kernel.asm").cycle_bias
        # Startup compute adds a small constant on top.
        assert consumed == pytest.approx(target * bias, rel=0.02)

    def test_io_conserved(self, gromacs_profile):
        result = Emulator(backend=make_backend()).run(gromacs_profile)
        totals = result.handle.record.totals()
        expected = gromacs_profile.totals()
        assert totals["io.bytes_written"] == pytest.approx(
            expected["io.bytes_written"], rel=0.01
        )
        assert totals["io.bytes_read"] == pytest.approx(
            expected["io.bytes_read"], rel=0.01
        )

    def test_startup_delay_about_one_second(self, gromacs_profile):
        """§5 E.2: emulator startup delay ~1 s."""
        result = Emulator(backend=make_backend()).run(gromacs_profile)
        assert 0.8 < result.startup_delay < 1.2

    def test_emulation_can_be_reprofiled(self, gromacs_profile):
        """The paper's E.2 sanity check: profile the emulation itself."""
        backend = make_backend("thinkie")
        emulator = Emulator(backend=backend, config=SynapseConfig(compute_kernel="asm"))
        result = emulator.run(gromacs_profile)
        # Profile a fresh emulation run through the ordinary profiler.
        backend2 = make_backend("thinkie")
        plan = EmulationPlan.from_profile(gromacs_profile)
        workload = plan.build_packed_workload(SynapseConfig(compute_kernel="asm"))
        reprofiled = Profiler(backend2, config=SynapseConfig(sample_rate=2.0)).run(
            workload
        )
        assert reprofiled.totals()["cpu.cycles_used"] == pytest.approx(
            result.handle.record.totals()["cpu.cycles_used"], rel=1e-6
        )

    def test_kernel_choice_changes_consumption(self, gromacs_profile):
        consumed = {}
        for kernel in ("asm", "c"):
            backend = make_backend("comet")
            result = Emulator(
                backend=backend, config=SynapseConfig(compute_kernel=kernel)
            ).run(gromacs_profile)
            consumed[kernel] = result.handle.record.totals()["cpu.cycles_used"]
        assert consumed["asm"] > consumed["c"]  # ASM bias is larger (E.3)

    def test_parallel_emulation_faster(self, gromacs_profile_large):
        serial = Emulator(backend=make_backend("titan")).run(gromacs_profile_large)
        parallel = Emulator(
            backend=make_backend("titan"),
            config=SynapseConfig(openmp_threads=8),
        ).run(gromacs_profile_large)
        assert parallel.tx < serial.tx * 0.5

    def test_order_preserved_in_phases(self, gromacs_profile):
        result = Emulator(backend=make_backend()).run(gromacs_profile)
        bounds = result.handle.record.phase_bounds
        starts = [b[0] for b in bounds]
        assert starts == sorted(starts)
        # Phases are barriers: each starts exactly where the previous ended.
        for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
            assert start == pytest.approx(prev_end)


def fold_counts() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("engine.fold.blocks", 0.0),
        counters.get("engine.fold.rows", 0.0),
    )


class TestFoldOnRead:
    """An emulation is judged by its Tx: its record's counter and level
    series fold when somebody reads them, not when it runs."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(EMULATION_FIXTURE_PATH, encoding="utf-8") as handle:
            expected = json.load(handle)
        requests = []
        for name, iterations, profile_seed, machine, seed, config in EMULATION_CASES:
            profile = api_profile(
                GromacsModel(iterations=iterations),
                backend=SimBackend("thinkie", noisy=True, seed=profile_seed),
                config=SynapseConfig(sample_rate=2.0),
            )
            requests.append(RunRequest(
                kind="emulate", target=profile, machine=machine,
                config=dict(config), seed=seed,
            ))
        return requests, [expected[case[0]] for case in EMULATION_CASES]

    @staticmethod
    def exact(totals: dict[str, float]) -> dict[str, str]:
        return {name: repr(value) for name, value in sorted(totals.items())}

    def test_a_batch_folds_nothing_and_a_read_folds_once(self, golden):
        requests, expected = golden
        before = fold_counts()
        with RunService(processes=1) as svc:
            results = [result.value for result in svc.run(requests)]
        assert fold_counts() == before
        assert [repr(r.tx) for r in results] == [e["tx"] for e in expected]
        assert all("totals" not in r.info for r in results)
        for n, (result, case) in enumerate(zip(results, expected), start=1):
            record = result.handle.record
            assert self.exact(record.totals()) == case["totals"]
            assert fold_counts() == (before[0] + n, before[1] + n)
            assert self.exact(record.totals()) == case["totals"]
            assert fold_counts() == (before[0] + n, before[1] + n)

    def test_a_pooled_batch_returns_folded_records(self, golden):
        requests, expected = golden
        with RunService(processes=2) as svc:
            results = [result.value for result in svc.run(requests, processes=2)]
        for result, case in zip(results, expected):
            record = result.handle.record
            # Pickled home: the record holds its own series, no replay block.
            assert "_replay" not in vars(record) and "counters" in vars(record)
            assert repr(result.tx) == case["tx"]
            assert self.exact(record.totals()) == case["totals"]


class TestHostReplay:
    def test_tiny_plan_executes(self):
        plan = small_plan(cycles=5e7, n=2, write_bytes=4096, alloc_bytes=1 << 20)
        result = Emulator(config=SynapseConfig(compute_kernel="asm")).run(plan)
        assert result.backend == "host"
        assert result.tx > 0
        assert len(result.sample_durations) == 2

    def test_sample_durations_sum_below_tx(self):
        plan = small_plan(cycles=5e7, n=3)
        result = Emulator().run(plan)
        assert sum(result.sample_durations) <= result.tx

    def test_sleep_kernel_spends_time_not_cycles(self):
        machine_hz = 1e9
        plan = small_plan(cycles=0.05 * machine_hz, n=1)
        import time

        t0 = time.perf_counter()
        result = Emulator(config=SynapseConfig(compute_kernel="sleep")).run(plan)
        elapsed = time.perf_counter() - t0
        assert result.tx <= elapsed + 0.01

    def test_empty_work_skipped(self):
        plan = EmulationPlan(samples=[PlanSample(0, AtomWork())], command="empty")
        result = Emulator().run(plan)
        assert result.sample_durations[0] < 0.05
