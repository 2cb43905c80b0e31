"""Profiler tests on the simulation plane (deterministic)."""

from __future__ import annotations

import pytest

from repro.apps import GromacsModel, SleeperApp
from repro.core.api import profile
from repro.core.config import SynapseConfig
from repro.core.errors import ProfilingError
from repro.core.profiler import Profiler
from repro.sim.demands import SleepDemand
from repro.sim.workload import SimWorkload

from tests.conftest import make_backend


def profile_app(app, machine="thinkie", rate=2.0, noisy=False, **kw):
    backend = make_backend(machine, noisy=noisy)
    profiler = Profiler(backend, config=SynapseConfig(sample_rate=rate, **kw))
    return profiler.run(app, tags=app.tags(), command=app.command())


class TestBasics:
    def test_profile_metadata(self):
        profile = profile_app(GromacsModel(iterations=20_000))
        assert profile.command.startswith("gmx mdrun")
        assert profile.tags == ("tag_step=20000",)
        assert profile.machine["name"] == "thinkie"
        assert profile.sample_rate == 2.0
        assert profile.info["exit_code"] == 0
        assert profile.info["backend"] == "sim"

    def test_statics_recorded(self):
        profile = profile_app(GromacsModel(iterations=20_000))
        assert profile.statics["sys.cores"] == 4
        assert profile.statics["sys.cpu_freq"] == pytest.approx(2.67e9)
        assert profile.statics["sys.memory"] == 8 << 30

    def test_totals_match_engine_record(self):
        """Sampling is lossless for cumulative counters (req. P.1/P.4)."""
        backend = make_backend("thinkie")
        profiler = Profiler(backend, config=SynapseConfig(sample_rate=2.0))
        app = GromacsModel(iterations=50_000)
        # Run the same workload directly for ground truth.
        from repro.sim.engine import Engine
        from repro.sim.noise import NoiseModel

        truth = Engine(backend.machine, NoiseModel.silent()).run(
            app.build_workload(backend.machine)
        )
        profile = profiler.run(app, command=app.command())
        totals = profile.totals()
        expected = truth.totals()
        for name in ("cpu.cycles_used", "cpu.instructions", "io.bytes_written", "mem.allocated"):
            assert totals[name] == pytest.approx(expected[name], rel=1e-6), name

    def test_tx_matches_runtime(self):
        profile = profile_app(GromacsModel(iterations=50_000))
        assert profile.tx == pytest.approx(
            profile.statics["time.runtime_rusage"], rel=1e-6
        )

    def test_sample_grid(self):
        profile = profile_app(GromacsModel(iterations=50_000), rate=4.0)
        assert all(s.dt == pytest.approx(0.25) for s in profile.samples)
        assert [s.index for s in profile.samples] == list(range(profile.n_samples))

    def test_default_command_from_workload(self):
        backend = make_backend()
        workload = SimWorkload(name="my-workload")
        workload.phase("p").stream("s").add(SleepDemand(1.0))
        profile = Profiler(backend).run(workload)
        assert profile.command == "my-workload"


class TestSamplingRateEffects:
    def test_totals_rate_invariant(self):
        """Fig 6 (top): total CPU operations independent of sample rate."""
        app = GromacsModel(iterations=100_000)
        reference = None
        for rate in (0.5, 1.0, 2.0, 10.0):
            profile = profile_app(app, rate=rate)
            total = profile.totals()["cpu.instructions"]
            if reference is None:
                reference = total
            assert total == pytest.approx(reference, rel=1e-6)

    def test_rss_underestimated_at_low_rate(self):
        """Fig 6 (bottom): a single (drain) sample sees the torn-down heap."""
        app = GromacsModel(iterations=20_000)  # Tx ~ 0.7s on thinkie
        high = profile_app(app, rate=10.0).totals()["mem.rss"]
        low = profile_app(app, rate=0.5).totals()["mem.rss"]
        assert low < 0.7 * high

    def test_more_samples_at_higher_rate(self):
        app = GromacsModel(iterations=100_000)
        slow = profile_app(app, rate=0.5)
        fast = profile_app(app, rate=10.0)
        assert fast.n_samples > slow.n_samples


class TestRepeats:
    """``repro.profile(repeats=n)``: n profiles under one search key."""

    def test_run_repeats_count(self):
        profiles = profile(
            GromacsModel(iterations=20_000), backend=make_backend(noisy=True),
            config=SynapseConfig(sample_rate=2.0), repeats=3,
        )
        assert len(profiles) == 3

    def test_repeats_differ_under_noise(self):
        profiles = profile(
            GromacsModel(iterations=20_000), backend=make_backend(noisy=True),
            config=SynapseConfig(sample_rate=2.0), repeats=2,
        )
        assert profiles[0].tx != profiles[1].tx

    def test_repeats_validation(self):
        with pytest.raises(ProfilingError):
            profile(GromacsModel(iterations=100), backend=make_backend(), repeats=0)


class TestStoreIntegration:
    def test_profile_stored(self):
        from repro.storage import MemoryStore

        store = MemoryStore()
        backend = make_backend()
        profiler = Profiler(backend, store=store)
        app = SleeperApp(sleep_seconds=2.0)
        profiler.run(app, tags=app.tags(), command=app.command())
        assert store.count() == 1
        assert store.get("sleep 2").tx == pytest.approx(2.0, rel=0.1)


class TestWatcherSelection:
    def test_disabled_watcher_absent(self):
        backend = make_backend()
        config = SynapseConfig(sample_rate=2.0, watchers=("system", "rusage"))
        profile = Profiler(backend, config=config).run(
            GromacsModel(iterations=20_000), command="x"
        )
        assert "cpu.cycles_used" not in profile.totals()
        assert "time.runtime" in profile.totals()

    def test_blktrace_on_sim(self):
        backend = make_backend()
        config = SynapseConfig(
            sample_rate=2.0,
            watchers=("system", "cpu", "storage", "rusage", "blktrace"),
        )
        profile = Profiler(backend, config=config).run(
            GromacsModel(iterations=50_000), command="x"
        )
        blk = profile.info.get("watcher.blktrace", {})
        assert "blktrace_histogram" in blk
        assert profile.statics.get("io.block_size_write_mean", 0) > 0


class TestSleeperLimitation:
    def test_sleep_invisible_to_cycles(self):
        """§4.5: sleep-heavy Tx cannot be reconstructed from cycles."""
        profile = profile_app(SleeperApp(sleep_seconds=5.0))
        freq = profile.statics["sys.cpu_freq"]
        cycle_seconds = profile.totals()["cpu.cycles_used"] / freq
        assert profile.tx > 4.5
        assert cycle_seconds < 0.1
