"""Compute kernel tests (host plane, kept tiny for speed)."""

from __future__ import annotations

import time

import pytest

from repro.core.errors import ConfigError
from repro.kernels import (
    AsmKernel,
    CKernel,
    ComputeKernel,
    OpenMPKernel,
    PythonKernel,
    SleepKernel,
    get_kernel,
    list_kernels,
    register,
)

FREQ = 2.5e9


class TestRegistry:
    def test_builtin_kernels(self):
        names = list_kernels()
        for name in ("asm", "c", "python", "sleep"):
            assert name in names

    def test_instances_shared(self):
        assert get_kernel("asm") is get_kernel("asm")

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            get_kernel("fortran")

    def test_register_custom(self):
        class MyKernel(ComputeKernel):
            name = "my-test-kernel"

            def execute_units(self, units):
                pass

        register(MyKernel)
        assert get_kernel("my-test-kernel").name == "my-test-kernel"

    def test_register_rejects_other_types(self):
        with pytest.raises(ConfigError):
            register(dict)

    def test_workload_classes(self):
        assert get_kernel("asm").workload_class == "kernel.asm"
        assert get_kernel("c").workload_class == "kernel.c"
        assert get_kernel("python").workload_class == "kernel.python"


class TestCalibration:
    @pytest.mark.parametrize("kernel_cls", [AsmKernel, PythonKernel])
    def test_calibrate_measures_positive_cost(self, kernel_cls):
        kernel = kernel_cls()
        calibration = kernel.calibrate(FREQ, target_seconds=0.005)
        assert calibration.seconds_per_unit > 0
        assert calibration.cycles_per_unit == pytest.approx(
            calibration.seconds_per_unit * FREQ
        )

    def test_calibration_cached(self):
        kernel = AsmKernel()
        first = kernel.calibrate(FREQ, target_seconds=0.005)
        second = kernel.calibrate(FREQ)
        assert first is second

    def test_units_for_cycles(self):
        kernel = AsmKernel()
        calibration = kernel.calibrate(FREQ, target_seconds=0.005)
        assert calibration.units_for_cycles(0) == 0
        assert calibration.units_for_cycles(calibration.cycles_per_unit * 7) in (6, 7, 8)
        assert calibration.units_for_cycles(1.0) == 1  # at least one unit

    def test_bad_frequency_rejected(self):
        from repro.core.errors import CalibrationError

        with pytest.raises(CalibrationError):
            AsmKernel().calibrate(0.0)


class TestExecution:
    def test_execute_cycles_consumes_time(self):
        kernel = AsmKernel()
        kernel.calibrate(FREQ, target_seconds=0.005)
        budget = 0.05 * FREQ  # ~50 ms of cycles
        start = time.perf_counter()
        units = kernel.execute_cycles(budget, FREQ)
        elapsed = time.perf_counter() - start
        assert units > 0
        assert 0.01 < elapsed < 0.5

    def test_zero_cycles_noop(self):
        assert AsmKernel().execute_cycles(0, FREQ) == 0

    def test_c_kernel_unit_slower_than_asm(self):
        """The C kernel's unit is a much larger matmul (cache-missing)."""
        asm = AsmKernel().calibrate(FREQ, target_seconds=0.005)
        c = CKernel().calibrate(FREQ, target_seconds=0.005)
        assert c.seconds_per_unit > asm.seconds_per_unit


class TestSleepKernel:
    def test_sleeps_for_cycle_equivalent(self):
        kernel = SleepKernel()
        start = time.perf_counter()
        kernel.execute_cycles(0.03 * FREQ, FREQ)
        elapsed = time.perf_counter() - start
        assert 0.02 < elapsed < 0.3

    def test_calibration_is_synthetic(self):
        calibration = SleepKernel().calibrate(FREQ)
        assert calibration.units_measured == 0
        assert calibration.seconds_per_unit == pytest.approx(1e-3)


class TestOpenMPKernel:
    def test_wraps_inner_name_and_class(self):
        wrapper = OpenMPKernel(AsmKernel(), threads=3)
        assert wrapper.name == "openmp:asm"
        assert wrapper.workload_class == "kernel.asm"

    def test_split_covers_all_units(self):
        counted = []

        class Counting(ComputeKernel):
            name = "counting"

            def execute_units(self, units):
                counted.append(units)

        wrapper = OpenMPKernel(Counting(), threads=3)
        wrapper.execute_units(10)
        assert sum(counted) == 10
        assert len(counted) == 3

    def test_single_thread_direct(self):
        counted = []

        class Counting(ComputeKernel):
            name = "counting2"

            def execute_units(self, units):
                counted.append(units)

        OpenMPKernel(Counting(), threads=1).execute_units(5)
        assert counted == [5]

    def test_zero_units_noop(self):
        OpenMPKernel(AsmKernel(), threads=2).execute_units(0)

    def test_invalid_threads(self):
        with pytest.raises(ConfigError, match="threads"):
            OpenMPKernel(AsmKernel(), threads=0)

    def test_calibration_delegates(self):
        inner = AsmKernel()
        wrapper = OpenMPKernel(inner, threads=2)
        assert wrapper.calibrate(FREQ, target_seconds=0.005) is inner.calibrate(FREQ)
