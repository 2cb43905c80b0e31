"""CPU/memory resource model tests."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.sim.resource import CPUModel, MemoryModel, WorkloadClassSpec


class TestWorkloadClassSpec:
    def test_cycle_bias_default(self):
        assert WorkloadClassSpec(ipc=2.0).cycle_bias == 1.0

    def test_cycle_bias_from_calibration(self):
        spec = WorkloadClassSpec(ipc=2.0, calib_ipc=2.2)
        assert spec.cycle_bias == pytest.approx(1.1)

    @pytest.mark.parametrize("kwargs", [
        {"ipc": 0.0},
        {"ipc": 2.0, "calib_ipc": 0.0},
        {"ipc": 2.0, "stall_ratio": -0.1},
        {"ipc": 2.0, "stall_front_fraction": 1.2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            WorkloadClassSpec(**kwargs)


class TestCPUModel:
    def test_cycles_for(self):
        cpu = CPUModel(
            frequency=2e9,
            cores=4,
            classes={"x": WorkloadClassSpec(ipc=2.0)},
        )
        assert cpu.cycles_for(1e9, "x") == pytest.approx(5e8)

    def test_default_class_fallback(self):
        cpu = CPUModel(frequency=2e9, cores=4, default_class=WorkloadClassSpec(ipc=1.0))
        assert cpu.cycles_for(1e9, "unknown") == pytest.approx(1e9)

    def test_seconds_for_cycles(self):
        cpu = CPUModel(frequency=2e9, cores=1)
        assert cpu.seconds_for_cycles(4e9) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CPUModel(frequency=0, cores=1)
        with pytest.raises(ConfigError):
            CPUModel(frequency=1e9, cores=0)


class TestMemoryModel:
    def test_zero_bytes_free(self):
        mem = MemoryModel()
        assert mem.alloc_time(0, 4096) == 0.0
        assert mem.free_time(0, 4096) == 0.0

    def test_alloc_latency_plus_bandwidth(self):
        mem = MemoryModel(alloc_latency=1e-6, touch_bandwidth=1e9)
        t = mem.alloc_time(1 << 20, 1 << 20)
        assert t == pytest.approx(1e-6 + (1 << 20) / 1e9)

    def test_more_blocks_cost_more(self):
        mem = MemoryModel()
        assert mem.alloc_time(1 << 20, 4096) > mem.alloc_time(1 << 20, 1 << 20)

    def test_validation(self):
        with pytest.raises(ConfigError):
            MemoryModel(alloc_latency=-1)
        with pytest.raises(ConfigError):
            MemoryModel(touch_bandwidth=0)
