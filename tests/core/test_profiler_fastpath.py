"""The sim-plane grid-sampling fast path of the profiler.

The fast path must be *observationally invisible*: profiles produced by
grid sampling are identical to the scalar lockstep driver's, watchers
with custom per-sample logic force the fallback, and the virtual clock
ends up exactly where the lockstep loop would have left it.
"""

from __future__ import annotations

import numpy as np

from repro.apps import GromacsModel, SyntheticApp
from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.sim.backend import SimBackend
from repro.watchers.base import WatcherBase
from repro.watchers.registry import _REGISTRY, get_watcher, register


class LockstepOnlyProfiler(Profiler):
    """Profiler with the grid fast path disabled."""

    def _drive_grid(self, watchers, handle, policy, t0):
        return None


def _profiles(app, machine="comet", rate=2.0, seed=5, **config_kwargs):
    config = SynapseConfig(sample_rate=rate, **config_kwargs)
    fast = Profiler(SimBackend(machine, noisy=True, seed=seed), config=config).run(app)
    slow = LockstepOnlyProfiler(
        SimBackend(machine, noisy=True, seed=seed), config=config
    ).run(app)
    return fast, slow


def assert_profiles_identical(fast, slow):
    assert fast.n_samples == slow.n_samples
    for fast_sample, slow_sample in zip(fast.samples, slow.samples):
        assert fast_sample.t == slow_sample.t
        assert fast_sample.dt == slow_sample.dt
        assert fast_sample.values == slow_sample.values
    assert fast.statics == slow.statics
    assert fast.tx == slow.tx


class TestGridFastPath:
    def test_identical_to_lockstep_compute_app(self):
        fast, slow = _profiles(GromacsModel(iterations=150_000))
        assert_profiles_identical(fast, slow)

    def test_identical_to_lockstep_mixed_app(self):
        app = SyntheticApp(
            instructions=3e9,
            bytes_written=64 << 20,
            memory_bytes=64 << 20,
            sleep_seconds=0.5,
            overlap_io=True,
            chunks=12,
        )
        fast, slow = _profiles(app, machine="thinkie")
        assert_profiles_identical(fast, slow)

    def test_identical_with_adaptive_policy(self):
        fast, slow = _profiles(
            GromacsModel(iterations=400_000),
            sampling_policy="adaptive",
            adaptive_initial_rate=5.0,
            adaptive_settle_seconds=2.0,
            rate=0.5,
        )
        assert_profiles_identical(fast, slow)

    def test_identical_without_drain(self):
        fast, slow = _profiles(
            GromacsModel(iterations=150_000), drain_final_sample=False
        )
        assert_profiles_identical(fast, slow)

    def test_clock_position_matches_lockstep(self):
        app = GromacsModel(iterations=150_000)
        config = SynapseConfig(sample_rate=2.0)
        fast_backend = SimBackend("comet", noisy=True, seed=5)
        Profiler(fast_backend, config=config).run(app)
        slow_backend = SimBackend("comet", noisy=True, seed=5)
        LockstepOnlyProfiler(slow_backend, config=config).run(app)
        assert fast_backend.now() == slow_backend.now()

    def test_repeat_runs_on_shared_clock_identical(self):
        """Back-to-back profiles on one backend (nonzero clock start)."""
        app = GromacsModel(iterations=100_000)
        config = SynapseConfig(sample_rate=2.0)
        fast_backend = SimBackend("comet", noisy=True, seed=5)
        fast_profiler = Profiler(fast_backend, config=config)
        fast = [fast_profiler.run(app) for _ in range(2)]
        slow_backend = SimBackend("comet", noisy=True, seed=5)
        slow_profiler = LockstepOnlyProfiler(slow_backend, config=config)
        slow = [slow_profiler.run(app) for _ in range(2)]
        for fast_profile, slow_profile in zip(fast, slow):
            assert_profiles_identical(fast_profile, slow_profile)


class TestOracleIsLockstep:
    """The comparisons above mean something only while the two profilers
    really take different roads."""

    @staticmethod
    def _scalar_samples(profiler_cls, monkeypatch) -> tuple[int, int]:
        calls = []
        scalar = Profiler._safe_sample
        monkeypatch.setattr(
            Profiler, "_safe_sample",
            staticmethod(lambda watcher, now: (calls.append(now), scalar(watcher, now))),
        )
        config = SynapseConfig(sample_rate=2.0)
        profile = profiler_cls(
            SimBackend("comet", noisy=True, seed=5), config=config
        ).run(GromacsModel(iterations=150_000))
        # The drain point may arrive as a batch: count grid samples only.
        return len(calls), (profile.n_samples - 1) * len(config.watchers)

    def test_lockstep_profiler_samples_one_by_one(self, monkeypatch):
        calls, expected = self._scalar_samples(LockstepOnlyProfiler, monkeypatch)
        # Every grid sample of every watcher is a scalar call.
        assert calls >= expected > 0

    def test_fast_profiler_never_samples_one_by_one(self, monkeypatch):
        calls, expected = self._scalar_samples(Profiler, monkeypatch)
        assert expected > 0 and calls == 0


class SampleCountingWatcher(WatcherBase):
    """A plugin with custom per-sample behaviour and no batch override."""

    name = "sample-counter"
    cumulative_metrics = ("cpu.cycles_used",)

    def sample(self, now):
        super().sample(now)
        self.result.info["custom_samples"] = (
            self.result.info.get("custom_samples", 0) + 1
        )


class TestFallback:
    def test_custom_sample_watcher_forces_lockstep(self):
        register(SampleCountingWatcher)
        try:
            config = SynapseConfig(
                sample_rate=2.0, watchers=("cpu", "sample-counter")
            )
            profiler = Profiler(SimBackend("thinkie", noisy=False), config=config)
            profile = profiler.run(GromacsModel(iterations=150_000))
            info = profile.info["watcher.sample-counter"]
            # Every grid sample went through the custom sample() hook
            # (plus the final drain sample, §4.5).
            assert info["custom_samples"] == profile.info["run"]["n_samples"] + 1
        finally:
            _REGISTRY.pop("sample-counter", None)

    def test_host_style_handles_unaffected(self):
        """Handles without counters_many (no sim record) still profile."""
        assert get_watcher("cpu").sample is WatcherBase.sample


class FinalizeRecorder(WatcherBase):
    """Default sampling; ``finalize`` snapshots what every watcher's
    ``finalize`` hook is handed."""

    name = "finalize-recorder"
    cumulative_metrics = ("io.bytes_written",)
    seen: list[dict] = []

    def finalize(self, all_results):
        FinalizeRecorder.seen.append({
            (watcher, kind, metric): (series.times.copy(), series.values.copy())
            for watcher, result in all_results.items()
            for kind, group in (
                ("cumulative", result.cumulative), ("levels", result.levels)
            )
            for metric, series in group.items()
        } | {
            (watcher, "timestamps", ""): (
                np.asarray(result.timestamps), np.zeros(0)
            )
            for watcher, result in all_results.items()
        })
        return self.result


class TestFinalizeInputs:
    def test_finalize_hooks_see_the_scalar_drivers_series(self):
        """The grid path keeps sampled counters as arrays end to end; the
        ``TimeSeries`` a ``finalize`` hook reads must be, value for
        value, the ones the per-sample driver builds from points."""
        register(FinalizeRecorder)
        FinalizeRecorder.seen = []
        try:
            app = SyntheticApp(
                instructions=2e9, bytes_written=32 << 20,
                memory_bytes=32 << 20, sleep_seconds=0.5, chunks=6,
            )
            _profiles(
                app, machine="thinkie",
                watchers=("system", "cpu", "memory", "storage", "rusage",
                          "network", "finalize-recorder"),
            )
            fast, slow = FinalizeRecorder.seen
        finally:
            _REGISTRY.pop("finalize-recorder", None)
        assert fast.keys() == slow.keys()
        assert any(kind == "cumulative" for _, kind, _ in fast)
        for key in fast:
            for got, ref in zip(fast[key], slow[key]):
                assert got.dtype == ref.dtype, key
                assert np.array_equal(got, ref), key
