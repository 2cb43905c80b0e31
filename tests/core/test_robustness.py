"""Failure-injection tests: broken plugins, dying processes, bad stores."""

from __future__ import annotations

import pytest

from repro.apps import SleeperApp
from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.watchers.base import WatcherBase
from repro.watchers.registry import register

from tests.conftest import make_backend


class ExplodingWatcher(WatcherBase):
    """Fails on every sample."""

    name = "exploding-test"

    def sample(self, now):
        raise RuntimeError("boom")


class ExplodingFinalizer(WatcherBase):
    """Samples fine but fails in finalize."""

    name = "exploding-finalize-test"
    cumulative_metrics = ("time.runtime",)

    def finalize(self, all_results):
        raise RuntimeError("late boom")


register(ExplodingWatcher)
register(ExplodingFinalizer)


class TestWatcherFaultIsolation:
    def test_broken_sampler_does_not_abort_profiling(self):
        config = SynapseConfig(
            sample_rate=2.0,
            watchers=("system", "cpu", "rusage", "exploding-test"),
        )
        profile = Profiler(make_backend(), config=config).run(
            SleeperApp(sleep_seconds=2.0), command="x"
        )
        # The run completed and healthy watchers recorded their data.
        assert profile.tx == pytest.approx(2.0, rel=0.1)
        assert "cpu.cycles_used" in profile.totals()
        # The failure is reported, capped in length.
        errors = profile.info["watcher.exploding-test"]["sample_errors"]
        assert errors
        assert len(errors) <= 16
        assert "boom" in errors[0]

    def test_broken_finalizer_degrades_gracefully(self):
        config = SynapseConfig(
            sample_rate=2.0,
            watchers=("system", "rusage", "exploding-finalize-test"),
        )
        profile = Profiler(make_backend(), config=config).run(
            SleeperApp(sleep_seconds=1.0), command="x"
        )
        info = profile.info["watcher.exploding-finalize-test"]
        assert "late boom" in info["finalize_error"]
        # Raw (pre-finalize) data still contributed.
        assert "time.runtime" in profile.totals()

    def test_host_plane_fault_isolation(self):
        from repro.host.backend import HostBackend

        config = SynapseConfig(
            sample_rate=10.0,
            watchers=("system", "rusage", "exploding-test"),
        )
        profile = Profiler(HostBackend(), config=config).run(
            "sleep 0.2", command="sleep 0.2"
        )
        assert profile.tx > 0.1
        assert profile.info["watcher.exploding-test"]["sample_errors"]


class TestProcessEdgeCases:
    def test_instant_exit_process(self):
        """A process faster than one sampling period still profiles."""
        profile = Profiler(
            make_backend(), config=SynapseConfig(sample_rate=0.1)
        ).run(SleeperApp(sleep_seconds=0.01), command="blink")
        assert profile.n_samples == 1
        # Tx = 10 ms sleep + the sleeper's small housekeeping compute.
        assert profile.tx == pytest.approx(0.01, abs=0.01)

    def test_failing_host_command_profiles(self):
        from repro.host.backend import HostBackend

        profile = Profiler(
            HostBackend(), config=SynapseConfig(sample_rate=10.0)
        ).run(["false"], command="false")
        assert profile.info["exit_code"] != 0

    def test_emulating_all_zero_profile(self):
        """A profile with only empty samples replays as a no-op."""
        from repro.core.emulator import Emulator
        from repro.core.plan import EmulationPlan
        from repro.core.samples import Profile, Sample

        profile = Profile(
            command="ghost",
            samples=[Sample(0, 0.0, 1.0, {}), Sample(1, 1.0, 1.0, {})],
        )
        plan = EmulationPlan.from_profile(profile)
        assert plan.totals().empty
        result = Emulator(backend=make_backend()).run(plan)
        # Only the emulator startup remains.
        assert result.tx == pytest.approx(result.startup_delay, rel=0.05)


class TestStoreEdgeCases:
    def test_corrupt_file_store_raises_cleanly(self, tmp_path):
        from repro.core.errors import StoreError
        from repro.storage import FileStore

        store = FileStore(tmp_path)
        store.put(
            __import__("repro").Profile(command="ok")
        )
        # Corrupt a stored document: same length, so the segment's
        # index line and footer still stand.
        [victim] = tmp_path.glob("*.seg")
        data = victim.read_bytes()
        victim.write_bytes(b"{not json" + data[9:])
        with pytest.raises(StoreError):
            store.find()
        with pytest.raises(StoreError):
            FileStore(tmp_path).find()

    def test_mongostore_rejects_unknown_delete(self):
        from repro.core.errors import StoreError
        from repro.storage import MongoStore

        with pytest.raises(StoreError):
            MongoStore().delete("12345")
