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
from repro.core.profiler import Profiler, _watches_rows
from repro.sim.backend import SimBackend
from repro.util.timeseries import SeriesRows
from repro.watchers import rowwise
from repro.watchers.base import WatcherBase
from repro.watchers.registry import _REGISTRY, get_watcher, register


class LockstepOnlyProfiler(Profiler):
    """Profiler with the grid pass disabled: every process is stepped."""

    def _blocks(self, handles):
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
    """Default sampling; ``finalize`` snapshots, per process, what every
    watcher's ``finalize`` hook is handed.  The hook is written for rows:
    it reads a block's ``SeriesRows`` tables up to each row's own count,
    and a lone process's ``TimeSeries`` as the one row it is."""

    name = "finalize-recorder"
    cumulative_metrics = ("io.bytes_written",)
    seen: list[list[dict]] = []

    @rowwise
    def finalize(self, all_results):
        counts = self.result.counts
        rows = [None] if counts is None else range(len(counts))
        FinalizeRecorder.seen.append(
            [self._snapshot(all_results, row) for row in rows]
        )
        return self.result

    @staticmethod
    def _snapshot(all_results, row):
        def cut(table, count):
            return np.array(table if row is None else table[row, :count])

        snapshot = {}
        for watcher, result in all_results.items():
            stamps = result.timestamps
            if row is None:
                assert isinstance(stamps, list)
            else:
                assert stamps.ndim == 2
            snapshot[watcher, "timestamps", ""] = (
                cut(stamps, None if row is None else result.counts[row]),
                np.zeros(0),
            )
            for kind, group in (
                ("cumulative", result.cumulative), ("levels", result.levels)
            ):
                for metric, series in group.items():
                    assert (type(series) is SeriesRows) == (row is not None)
                    count = None if row is None else series.counts[row]
                    snapshot[watcher, kind, metric] = (
                        cut(series.times, count), cut(series.values, count)
                    )
                    if row is not None:  # ... and the cut is that row's series
                        lone = series.row(row)
                        assert np.array_equal(lone.times, cut(series.times, count))
                        assert np.array_equal(lone.values, cut(series.values, count))
        return snapshot


def assert_snapshots_equal(fast: dict, slow: dict) -> None:
    assert fast.keys() == slow.keys()
    assert any(kind == "cumulative" for _, kind, _ in fast)
    for key in fast:
        for got, ref in zip(fast[key], slow[key]):
            assert got.dtype == ref.dtype, key
            assert np.array_equal(got, ref), key


class TestFinalizeInputs:
    WATCHERS = ("system", "cpu", "memory", "storage", "rusage", "network",
                "finalize-recorder")

    def test_finalize_hooks_see_the_scalar_drivers_series(self):
        """The grid path keeps sampled counters as arrays end to end; the
        series a ``@rowwise`` ``finalize`` hook reads off them must be,
        value for value, the ``TimeSeries`` the per-sample driver builds
        from points."""
        register(FinalizeRecorder)
        FinalizeRecorder.seen = []
        try:
            app = SyntheticApp(
                instructions=2e9, bytes_written=32 << 20,
                memory_bytes=32 << 20, sleep_seconds=0.5, chunks=6,
            )
            before = block_counts()
            _profiles(app, machine="thinkie", watchers=self.WATCHERS)
            # The fast side watched a block (of one), the slow side did not.
            assert block_counts() == (before[0] + 1, before[1] + 1)
            (fast,), (slow,) = FinalizeRecorder.seen
        finally:
            _REGISTRY.pop("finalize-recorder", None)
        assert_snapshots_equal(fast, slow)

    def test_finalize_hooks_see_each_row_of_a_block_as_the_scalar_driver_does(self):
        """Rows whose sample counts differ, in one ``finalize`` call."""
        register(FinalizeRecorder)
        FinalizeRecorder.seen = []
        try:
            config = SynapseConfig(sample_rate=10.0, watchers=self.WATCHERS)
            records = replayed_block(GromacsModel(iterations=20_000))
            before = block_counts()
            Profiler(SimBackend("comet"), config=config).run_many(records)
            assert block_counts() == (before[0] + 1, before[1] + len(records))
            for record in records:
                LockstepOnlyProfiler(SimBackend("comet"), config=config).run(record)
            assert block_counts() == (before[0] + 1, before[1] + len(records))
            fast, *slow = FinalizeRecorder.seen
        finally:
            _REGISTRY.pop("finalize-recorder", None)
        assert len(fast) == len(slow) == len(records)
        lengths = set()
        for row, (lone,) in zip(fast, slow):
            assert_snapshots_equal(row, lone)
            lengths.add(len(row["finalize-recorder", "timestamps", ""][0]))
        assert len(lengths) > 1


# -- blocks of rows --------------------------------------------------------------


def replayed_block(app, machine="comet", seeds=range(5)):
    from repro.sim.engine import Engine
    from repro.sim.machines import get_machine
    from repro.sim.noise import NoiseModel

    spec = get_machine(machine)
    plan = Engine(spec).prepare(app.build_packed(spec))
    return Engine(spec).replay_many(plan, [
        NoiseModel(seed=seed, duration_sigma=0.05, counter_sigma=0.02)
        for seed in seeds
    ])


def block_counts() -> tuple[float, float]:
    from repro.telemetry.metrics import get_registry

    counters = get_registry().snapshot()["counters"]
    return counters.get("profile.blocks", 0.0), counters.get("profile.block_rows", 0.0)


def scribble(value) -> None:
    """Mutate ``value`` and every container nested in it."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scribble(item)
        value["scribbled"] = True
    elif isinstance(value, list):
        for item in value:
            scribble(item)
        value.append("scribbled")


class TestBlocksOfRows:
    CONFIG = SynapseConfig(sample_rate=10.0)

    def test_block_pass_is_counted_and_a_lone_run_is_a_block_of_one(self):
        records = replayed_block(GromacsModel(iterations=20_000))
        blocks0, rows0 = block_counts()
        Profiler(SimBackend("comet"), config=self.CONFIG).run_many(records)
        blocks1, rows1 = block_counts()
        assert (blocks1 - blocks0, rows1 - rows0) == (1, 5)
        Profiler(SimBackend("comet"), config=self.CONFIG).run(records[0])
        blocks2, rows2 = block_counts()
        assert (blocks2 - blocks1, rows2 - rows1) == (1, 1)

    def test_profiles_of_a_block_share_nothing_mutable(self):
        """Each profile owns its config, machine, statics, info and
        samples, nested containers included — as lone runs give them."""
        config = SynapseConfig(
            sample_rate=10.0, extra={"nested": {"list": [1, 2]}},
            watchers=("system", "cpu", "memory", "storage", "rusage", "network"),
        )
        records = replayed_block(GromacsModel(iterations=20_000))
        profiler = Profiler(SimBackend("comet"), config=config)
        first = profiler.run_many(records)
        pristine = [profile.to_dict() for profile in first]
        reference = Profiler(SimBackend("comet"), config=config).run_many(records)
        victim = first[2]
        for part in (victim.config, victim.machine, victim.statics, victim.info):
            scribble(part)
        for sample in victim.samples:
            scribble(sample.values)
            scribble(sample.watcher_times)
        assert victim.to_dict() != pristine[2]
        for index in (0, 1, 3, 4):
            assert first[index].to_dict() == pristine[index]
        assert config.extra == {"nested": {"list": [1, 2]}}
        # ... and a later block of the same records starts clean.
        later = Profiler(SimBackend("comet"), config=config).run_many(records)
        for got, want in zip(later, reference):
            got, want = got.to_dict(), want.to_dict()
            for doc in (got, want):
                doc.pop("created")
                doc["info"]["process"].pop("pid")
            assert got == want

    def test_custom_sample_watcher_sends_the_call_to_lockstep(self, monkeypatch):
        import pytest

        from repro.core.errors import ProfilingError

        stepped = []
        scalar = Profiler._safe_sample
        monkeypatch.setattr(
            Profiler, "_safe_sample",
            staticmethod(lambda watcher, now: (stepped.append(now), scalar(watcher, now))),
        )
        register(SampleCountingWatcher)
        try:
            config = SynapseConfig(sample_rate=10.0, watchers=("cpu", "sample-counter"))
            assert not Profiler(SimBackend("comet"), config=config).watches_rows
            records = replayed_block(GromacsModel(iterations=20_000), seeds=range(3))
            before = block_counts()
            # Each alone — as ``run``, or as a block of one — is stepped ...
            profiles = [
                Profiler(SimBackend("comet"), config=config).run(record)
                for record in records
            ]
            (again,) = Profiler(SimBackend("comet"), config=config).run_many(records[:1])
            assert again.to_dict()["samples"] == profiles[0].to_dict()["samples"]
            assert len(stepped) == 2 * sum(p.n_samples + 1 for p in [*profiles, again])
            # ... and together they cannot be watched.
            with pytest.raises(ProfilingError, match="one sample at a time"):
                Profiler(SimBackend("comet"), config=config).run_many(records)
            assert block_counts() == before  # no grid pass was made
        finally:
            _REGISTRY.pop("sample-counter", None)
        # Every sample of both watchers was a scalar call, the custom
        # hook's included.
        for profile in profiles:
            counted = profile.info["watcher.sample-counter"]["custom_samples"]
            assert counted == profile.n_samples + 1

    def test_unmarked_hook_is_not_handed_rows(self):
        class Unmarked(WatcherBase):
            name = "unmarked"

            def finalize(self, all_results):
                return self.result

        class Marked(WatcherBase):
            name = "marked"

            @rowwise
            def finalize(self, all_results):
                return self.result

        assert not all(map(_watches_rows, [get_watcher("cpu"), Unmarked]))
        assert all(map(_watches_rows, [get_watcher("cpu"), Marked]))
        assert all(map(_watches_rows, [get_watcher(name) for name in (
            "system", "cpu", "memory", "storage", "rusage", "network", "blktrace"
        )]))

    def test_failing_finalize_is_quarantined_per_row(self):
        """A plugin that is stepped one process at a time and fails on
        one of them taints that profile only."""

        class FailsOnTheLongest(WatcherBase):
            name = "fails-on-the-longest"
            longest = 0.0

            def finalize(self, all_results):
                if self.handle.duration == FailsOnTheLongest.longest:
                    raise RuntimeError("too long")
                return self.result

        records = replayed_block(GromacsModel(iterations=20_000))
        FailsOnTheLongest.longest = max(record.duration for record in records)
        register(FailsOnTheLongest)
        try:
            config = SynapseConfig(
                sample_rate=10.0, watchers=("cpu", "rusage", "fails-on-the-longest")
            )
            profiles = [
                Profiler(SimBackend("comet"), config=config).run(record)
                for record in records
            ]
        finally:
            _REGISTRY.pop("fails-on-the-longest", None)
        failed = [
            "finalize_error" in profile.info.get("watcher.fails-on-the-longest", {})
            for profile in profiles
        ]
        assert failed == [
            record.duration == FailsOnTheLongest.longest for record in records
        ]
        assert sum(failed) == 1
        assert all(profile.totals()["cpu.cycles_used"] > 0 for profile in profiles)

    def test_failing_rowwise_finalize_spares_the_other_watchers(self):
        class FailsOnRows(WatcherBase):
            name = "fails-on-rows"
            cumulative_metrics = ("io.bytes_written",)

            @rowwise
            def finalize(self, all_results):
                raise RuntimeError("no rows for me")

        records = replayed_block(GromacsModel(iterations=20_000))
        register(FailsOnRows)
        try:
            config = SynapseConfig(
                sample_rate=10.0, watchers=("cpu", "rusage", "fails-on-rows")
            )
            before = block_counts()
            profiles = Profiler(SimBackend("comet"), config=config).run_many(records)
            assert block_counts()[0] - before[0] == 1  # it was watching rows
        finally:
            _REGISTRY.pop("fails-on-rows", None)
        clean = Profiler(
            SimBackend("comet"),
            config=SynapseConfig(sample_rate=10.0, watchers=("cpu", "rusage")),
        ).run_many(records)
        for profile, reference in zip(profiles, clean):
            error = profile.info["watcher.fails-on-rows"]["finalize_error"]
            assert "no rows for me" in error
            assert profile.tx == reference.tx
            assert profile.totals()["cpu.cycles_used"] == reference.totals()["cpu.cycles_used"]

    def test_failing_sample_batch_is_quarantined_per_row(self):
        class FailsToSample(WatcherBase):
            name = "fails-to-sample"
            cumulative_metrics = ("io.bytes_written",)

            @rowwise
            def sample_batch(self, times, counters, counts=None):
                raise RuntimeError("cannot sample")

        records = replayed_block(GromacsModel(iterations=20_000))
        register(FailsToSample)
        try:
            config = SynapseConfig(sample_rate=10.0, watchers=("cpu", "fails-to-sample"))
            together = Profiler(SimBackend("comet"), config=config).run_many(records)
            alone = [
                Profiler(SimBackend("comet"), config=config).run(record)
                for record in records
            ]
        finally:
            _REGISTRY.pop("fails-to-sample", None)
        for profile, lone in zip(together, alone):
            errors = profile.info["watcher.fails-to-sample"]["sample_errors"]
            assert errors == lone.info["watcher.fails-to-sample"]["sample_errors"]
            assert errors == [
                f"batch[{profile.n_samples + 1}]: RuntimeError('cannot sample')"
            ]
            assert profile.totals()["cpu.cycles_used"] > 0
        assert together[0].info["watcher.fails-to-sample"]["sample_errors"] is not (
            together[1].info["watcher.fails-to-sample"]["sample_errors"]
        )

    def test_concurrent_processes_cannot_be_stepped(self):
        import pytest

        from repro.core.errors import ProfilingError

        records = replayed_block(GromacsModel(iterations=20_000), seeds=range(2))
        with pytest.raises(ProfilingError, match="one sample at a time"):
            LockstepOnlyProfiler(SimBackend("comet")).run_many(records)

        class StartsOneAtATime:
            name = "one-at-a-time"

        with pytest.raises(ProfilingError, match="cannot start processes together"):
            Profiler(StartsOneAtATime()).run_many(records)
