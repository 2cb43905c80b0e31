"""Scaling model and host-plane parallel emulation tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.kernels.asm import AsmKernel
from repro.parallel import (
    ScalingModel,
    consume_cycles_multiprocess,
    consume_cycles_threaded,
)

FREQ = 2.5e9


class TestScalingModel:
    def test_single_worker_identity(self):
        model = ScalingModel(0.95, 0.01)
        assert model.time_factor(1) == pytest.approx(1.0)
        assert model.speedup(1) == pytest.approx(1.0)
        assert model.efficiency(1) == pytest.approx(1.0)

    def test_amdahl_limit(self):
        model = ScalingModel(parallel_fraction=0.9, overhead_per_worker=0.0)
        assert model.speedup(10_000) < 1.0 / (1.0 - 0.9) + 1e-6

    def test_overhead_bends_curve_back(self):
        """Fig 12's diminishing returns: past some width, time grows."""
        model = ScalingModel(parallel_fraction=0.99, overhead_per_worker=0.01)
        times = [model.time_factor(n) for n in range(1, 64)]
        assert min(times) < times[0]
        assert times[-1] > min(times)

    def test_validation(self):
        with pytest.raises(ConfigError, match="parallel_fraction"):
            ScalingModel(parallel_fraction=1.5)
        with pytest.raises(ConfigError, match="overhead_per_worker"):
            ScalingModel(overhead_per_worker=-0.1)
        with pytest.raises(ValueError):
            ScalingModel().time_factor(0)

    @given(st.integers(1, 512))
    @settings(max_examples=50)
    def test_speedup_never_exceeds_workers(self, workers):
        model = ScalingModel(parallel_fraction=0.99, overhead_per_worker=0.001)
        assert model.speedup(workers) <= workers + 1e-9

    @given(st.integers(1, 128), st.integers(1, 128))
    @settings(max_examples=50)
    def test_efficiency_non_increasing(self, a, b):
        model = ScalingModel(parallel_fraction=0.97, overhead_per_worker=0.004)
        lo, hi = min(a, b), max(a, b)
        assert model.efficiency(hi) <= model.efficiency(lo) + 1e-9

    def test_overhead_cycles_fraction(self):
        model = ScalingModel(parallel_fraction=0.99, overhead_per_worker=0.01)
        assert model.overhead_cycles_fraction(1) == 0.0
        assert model.overhead_cycles_fraction(4) == pytest.approx(0.01 * 3 * 4)


class TestHostParallel:
    def test_threaded_consumption(self):
        kernel = AsmKernel()
        kernel.calibrate(FREQ, target_seconds=0.005)
        units = consume_cycles_threaded(kernel, 2e7, threads=2, frequency=FREQ)
        assert units > 0

    def test_threaded_single_thread_path(self):
        kernel = AsmKernel()
        kernel.calibrate(FREQ, target_seconds=0.005)
        assert consume_cycles_threaded(kernel, 1e7, threads=1, frequency=FREQ) > 0

    def test_multiprocess_consumption(self):
        kernel = AsmKernel()
        kernel.calibrate(FREQ, target_seconds=0.005)
        consume_cycles_multiprocess(kernel, 2e7, processes=2, frequency=FREQ)

    def test_multiprocess_single_rank_path(self):
        kernel = AsmKernel()
        kernel.calibrate(FREQ, target_seconds=0.005)
        consume_cycles_multiprocess(kernel, 1e7, processes=1, frequency=FREQ)
