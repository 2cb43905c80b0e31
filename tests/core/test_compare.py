"""Profile comparison tests."""

from __future__ import annotations

import pytest

from repro.core.compare import ProfileComparison
from repro.core.samples import Profile, Sample


def profile_with(cycles: float, written: float = 0.0) -> Profile:
    return Profile(
        command="app",
        samples=[
            Sample(
                0,
                0.0,
                1.0,
                {
                    "cpu.cycles_used": cycles,
                    "io.bytes_written": written,
                    "time.runtime": 1.0,
                },
            )
        ],
    )


class TestBetween:
    def test_single_profiles(self):
        comparison = ProfileComparison.between(profile_with(100.0), profile_with(110.0))
        row = comparison.row("cpu.cycles_used")
        assert row.reference == pytest.approx(100.0)
        assert row.measured == pytest.approx(110.0)
        assert row.error_pct == pytest.approx(10.0)
        assert row.signed_pct == pytest.approx(10.0)

    def test_repeat_groups_use_means(self):
        reference = [profile_with(90.0), profile_with(110.0)]
        measured = [profile_with(200.0), profile_with(200.0)]
        comparison = ProfileComparison.between(reference, measured)
        assert comparison.row("cpu.cycles_used").reference == pytest.approx(100.0)
        assert comparison.row("cpu.cycles_used").measured == pytest.approx(200.0)

    def test_only_shared_metrics(self):
        comparison = ProfileComparison.between(
            profile_with(1.0), profile_with(1.0), metrics=["cpu.cycles_used", "nope"]
        )
        assert [row.metric for row in comparison.rows] == ["cpu.cycles_used"]

    def test_missing_row_raises(self):
        comparison = ProfileComparison.between(profile_with(1.0), profile_with(1.0))
        with pytest.raises(KeyError):
            comparison.row("ghost.metric")

    def test_max_error(self):
        comparison = ProfileComparison.between(
            profile_with(100.0, written=100.0), profile_with(110.0, written=150.0)
        )
        assert comparison.max_error() == pytest.approx(50.0)
        assert comparison.max_error(["cpu.cycles_used"]) == pytest.approx(10.0)

    def test_negative_direction(self):
        comparison = ProfileComparison.between(profile_with(100.0), profile_with(60.0))
        assert comparison.row("cpu.cycles_used").signed_pct == pytest.approx(-40.0)
        assert comparison.row("cpu.cycles_used").error_pct == pytest.approx(40.0)

    def test_table_renders(self):
        comparison = ProfileComparison.between(
            profile_with(1.0),
            profile_with(2.0),
            reference_label="app",
            measured_label="emulation",
        )
        text = comparison.table().render()
        assert "emulation vs app" in text
        assert "cpu.cycles_used" in text


class TestEndToEnd:
    def test_app_vs_emulation_comparison(self, gromacs_profile):
        """The E.2 sanity-check workflow through the comparison API."""
        from repro.core.config import SynapseConfig
        from repro.core.plan import EmulationPlan
        from repro.core.profiler import Profiler

        from tests.conftest import make_backend

        plan = EmulationPlan.from_profile(gromacs_profile)
        workload = plan.build_packed_workload(SynapseConfig())
        emu_profile = Profiler(
            make_backend(), config=SynapseConfig(sample_rate=2.0)
        ).run(workload)
        comparison = ProfileComparison.between(gromacs_profile, emu_profile)
        # Cycle consumption within the thinkie ASM bias + startup.
        assert comparison.row("cpu.cycles_used").error_pct < 6.0
        # I/O replayed almost exactly.
        assert comparison.row("io.bytes_written").error_pct < 1.0
