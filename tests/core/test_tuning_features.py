"""Tests for the paper's tuning features: efficiency targeting (Table 1
partial support) and blktrace-informed 'auto' block sizes (§6)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import GromacsModel, SyntheticApp
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.errors import ConfigError
from repro.core.plan import EmulationPlan
from repro.core.profiler import Profiler

from tests.conftest import make_backend


class TestEfficiencyTargeting:
    def make_plan(self):
        prof = Profiler(make_backend(), config=SynapseConfig(sample_rate=2.0)).run(
            GromacsModel(iterations=100_000), command="x"
        )
        return EmulationPlan.from_profile(prof)

    def test_stall_override_in_workload(self):
        plan = self.make_plan()
        workload = plan.build_packed_workload(SynapseConfig(efficiency_target=0.8))
        # Compute demand 0 is the emulator's startup (the class default);
        # every sample's compute carries the override.
        assert np.isnan(workload.c_sr[0])
        # efficiency 0.8 => stalled/used = 0.25
        assert workload.c_sr[1:] == pytest.approx([0.25] * (workload.c_sr.size - 1))

    def test_no_target_uses_machine_default(self):
        plan = self.make_plan()
        workload = plan.build_packed_workload(SynapseConfig())
        assert np.isnan(workload.c_sr).all()  # NaN: the class default

    def test_emulation_hits_target_efficiency(self):
        """Re-profiling a targeted emulation reports the tuned efficiency."""
        plan = self.make_plan()
        target = 0.8
        workload = plan.build_packed_workload(
            SynapseConfig(efficiency_target=target, compute_kernel="asm")
        )
        emu_profile = Profiler(
            make_backend(), config=SynapseConfig(sample_rate=2.0)
        ).run(workload)
        measured = emu_profile.derived()["cpu.efficiency"]
        # Startup compute (machine default stall ratio) dilutes slightly.
        assert measured == pytest.approx(target, abs=0.02)

    def test_different_targets_order(self):
        plan = self.make_plan()
        efficiencies = {}
        for target in (0.5, 0.9):
            workload = plan.build_packed_workload(SynapseConfig(efficiency_target=target))
            emu_profile = Profiler(
                make_backend(), config=SynapseConfig(sample_rate=2.0)
            ).run(workload)
            efficiencies[target] = emu_profile.derived()["cpu.efficiency"]
        assert efficiencies[0.5] < efficiencies[0.9]


class TestAutoBlockSizes:
    def profile_io_app(self, block_size: int):
        app = SyntheticApp(
            bytes_read=8 << 20,
            bytes_written=8 << 20,
            io_block_size=block_size,
            chunks=4,
        )
        config = SynapseConfig(
            sample_rate=2.0,
            watchers=("system", "cpu", "storage", "rusage", "blktrace"),
        )
        return Profiler(make_backend(), config=config).run(app, command="io-app")

    def test_auto_uses_profiled_block_size(self):
        prof = self.profile_io_app(block_size=256 << 10)
        plan = EmulationPlan.from_profile(prof)
        assert plan.info["io.block_size_read_mean"] == pytest.approx(256 << 10)
        workload = plan.build_packed_workload(
            SynapseConfig(io_block_size_read="auto", io_block_size_write="auto")
        )
        assert workload.i_block.size
        assert (workload.i_block == 256 << 10).all()

    def test_auto_without_blktrace_falls_back(self):
        app = SyntheticApp(bytes_written=4 << 20, chunks=2)
        prof = Profiler(make_backend(), config=SynapseConfig(sample_rate=2.0)).run(
            app, command="io-app"
        )
        plan = EmulationPlan.from_profile(prof)
        resolved = plan.effective_config(SynapseConfig(io_block_size_write="auto"))
        assert resolved.io_block_size_write == 1 << 20  # documented fallback

    def test_explicit_sizes_untouched(self):
        prof = self.profile_io_app(block_size=256 << 10)
        plan = EmulationPlan.from_profile(prof)
        resolved = plan.effective_config(SynapseConfig(io_block_size_write="4KB"))
        assert resolved.io_block_size_write == 4096

    def test_auto_affects_emulated_io_time(self):
        """Replaying with profiled (small) blocks is slower than 1MB."""
        prof = self.profile_io_app(block_size=16 << 10)
        auto = Emulator(
            backend=make_backend("titan"),
            config=SynapseConfig(
                io_block_size_read="auto",
                io_block_size_write="auto",
                io_filesystem="lustre",
            ),
        ).run(prof)
        default = Emulator(
            backend=make_backend("titan"),
            config=SynapseConfig(io_filesystem="lustre"),
        ).run(prof)
        assert auto.tx > default.tx

    def test_invalid_block_size_string_rejected(self):
        with pytest.raises(ConfigError):
            SynapseConfig(io_block_size_read="automatic")
