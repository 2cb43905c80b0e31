"""Engine level-series and mid-execution interpolation tests."""

from __future__ import annotations

import numpy as np
import pytest
from test_packed import random_workload

from repro.sim.demands import ComputeDemand, MemoryDemand, SleepDemand
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload
from repro.util.timeseries import TimeSeries


def engine(machine="titan"):
    return Engine(get_machine(machine), NoiseModel.silent())


# -- the scalar oracle -----------------------------------------------------------
#
# The engine once carried these two loops beside the vectorised level
# folds (``_step_series`` / ``_thread_series``); what is still wanted of
# them lives here: the obvious accumulation, which ``Engine._thread_level``
# must reproduce exactly.


def step_series(steps, t_lo: float, t_hi: float) -> TimeSeries:
    """Piecewise-constant series from (time, new_level) steps."""
    steps = sorted(steps)
    level = steps[0][1] if steps else 0.0
    times, values = [t_lo], [level]
    for when, new_level in steps:
        if when > 0.0:
            times.extend([when, when])
            values.extend([level, new_level])
        level = new_level
    times.append(max(t_hi, times[-1]))
    values.append(level)
    return TimeSeries(times, values)


def thread_series(deltas, duration: float) -> TimeSeries:
    """Active-worker level over time from +/- delta events (base 1)."""
    if not deltas:
        return TimeSeries([0.0, duration], [1.0, 1.0])
    steps = []
    level = 1.0
    for when, delta in sorted(deltas):
        level += delta
        steps.append((when, max(1.0, level)))
    return step_series([(0.0, 1.0)] + steps, 0.0, duration)


class TestThreadLevels:
    @pytest.mark.parametrize("machine_name", ["thinkie", "stampede"])
    @pytest.mark.parametrize("seed", range(12))
    def test_thread_level_matches_the_scalar_oracle(self, machine_name, seed):
        machine = get_machine(machine_name)
        workload = random_workload(np.random.default_rng(seed), machine)
        eng = Engine(machine)
        plan = eng.prepare(workload)
        noises = [
            NoiseModel(seed=s, duration_sigma=0.05, counter_sigma=0.01)
            for s in (seed, seed + 100)
        ]
        noisy = eng._draw_noise(plan, noises)
        t0, t1, bounds = eng._timeline(plan, noisy[:, plan.slot_bases])
        t_hi = bounds[:, -1, 1]
        times, values = eng._thread_level(plan, t0, t1, 0.0, t_hi)
        for row in range(len(noises)):
            deltas = []
            for pos, extra in zip(plan.t_pos.tolist(), plan.t_extra.tolist()):
                deltas.append((float(t0[row, pos]), extra))
                deltas.append((float(t1[row, pos]), -extra))
            oracle = thread_series(deltas, float(t_hi[row]))
            assert np.array_equal(times[row], oracle.times)
            assert np.array_equal(values[row], oracle.values)

    def test_threads_level_during_parallel_demand(self):
        workload = SimWorkload(name="w")
        stream = workload.phase("p").stream("s")
        stream.add(SleepDemand(1.0))
        stream.add(
            ComputeDemand(instructions=2.2e10, workload_class="app.md", threads=8)
        )
        stream.add(SleepDemand(1.0))
        record = engine().run(workload)
        threads = record.levels["cpu.threads"]
        assert threads.value_at(0.5) == pytest.approx(1.0)
        mid = (record.duration - 1.0 + 1.0) / 2.0
        assert threads.value_at(mid) == pytest.approx(8.0)
        assert threads.value_at(record.duration - 0.5) == pytest.approx(1.0)

    def test_threads_clamped_to_cores(self):
        workload = SimWorkload(name="w")
        workload.phase("p").stream("s").add(
            ComputeDemand(instructions=2.2e10, workload_class="app.md", threads=64)
        )
        record = engine().run(workload)  # titan: 16 cores
        assert record.levels["cpu.threads"].max() == pytest.approx(16.0)

    def test_load_level_scaled_by_cores(self):
        workload = SimWorkload(name="w")
        workload.phase("p").stream("s").add(
            ComputeDemand(instructions=2.2e10, workload_class="app.md", threads=8)
        )
        record = engine().run(workload)
        load = record.levels["sys.load_cpu"]
        assert load.max() == pytest.approx(8.0 / 16.0)

    def test_serial_run_constant_one_thread(self):
        workload = SimWorkload(name="w")
        workload.phase("p").stream("s").add(
            ComputeDemand(instructions=1e9, workload_class="app.md")
        )
        record = engine().run(workload)
        threads = record.levels["cpu.threads"]
        assert threads.max() == pytest.approx(1.0)


class TestMidRunInterpolation:
    def test_counters_accrue_linearly_within_demand(self):
        machine = get_machine("titan")
        workload = SimWorkload(name="w")
        workload.phase("p").stream("s").add(
            ComputeDemand(instructions=2.2e10, workload_class="app.md")
        )
        record = engine().run(workload)
        total = record.totals()["cpu.instructions"]
        halfway = record.counters_at(record.duration / 2.0)["cpu.instructions"]
        assert halfway == pytest.approx(total / 2.0, rel=1e-6)

    def test_rss_between_alloc_and_free(self):
        workload = SimWorkload(name="w", base_rss=0)
        stream = workload.phase("p").stream("s")
        stream.add(MemoryDemand(allocate=1000))
        stream.add(SleepDemand(2.0))
        stream.add(MemoryDemand(free=400))
        stream.add(SleepDemand(2.0))
        record = engine().run(workload)
        rss = record.levels["mem.rss"]
        assert rss.value_at(1.0) == pytest.approx(1000.0)
        assert rss.value_at(record.duration - 0.5) == pytest.approx(600.0)
        assert record.levels["mem.peak"].value_at(record.duration) == pytest.approx(1000.0)

    def test_empty_phase_contributes_nothing(self):
        workload = SimWorkload(name="w")
        workload.phase("empty")
        workload.phase("p").stream("s").add(SleepDemand(1.0))
        record = engine().run(workload)
        assert record.duration == pytest.approx(1.0)
        assert record.phase_bounds[0] == (0.0, 0.0)
