"""Watcher plugin framework tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backend import ProcessHandle
from repro.core.config import SynapseConfig
from repro.core.errors import ConfigError
from repro.watchers import (
    BlktraceWatcher,
    MemoryWatcher,
    RusageWatcher,
    SystemWatcher,
    WatcherBase,
    WatcherContext,
    get_watcher,
    list_watchers,
    register,
)


class FakeHandle(ProcessHandle):
    """Scripted counters for watcher unit tests."""

    def __init__(self, frames):
        self.pid = 1
        self.frames = list(frames)
        self.cursor = -1
        self._usage = {"time.runtime": 2.0, "mem.peak": 555.0}

    def alive(self):
        return self.cursor < len(self.frames) - 1

    def wait(self):
        self.cursor = len(self.frames) - 1
        return 0

    def counters(self):
        self.cursor = min(self.cursor + 1, len(self.frames) - 1)
        return dict(self.frames[self.cursor])

    def rusage(self):
        return dict(self._usage)


def make_context():
    return WatcherContext(
        config=SynapseConfig(),
        machine_info={"cores": 4, "frequency": 2e9, "memory": 8 << 30},
    )


class TestRegistry:
    def test_default_watchers_registered(self):
        names = list_watchers()
        for name in ("cpu", "memory", "storage", "rusage", "system", "blktrace"):
            assert name in names

    def test_unknown_raises(self):
        with pytest.raises(ConfigError):
            get_watcher("nope")

    def test_register_rejects_non_watcher(self):
        with pytest.raises(ConfigError):
            register(object)

    def test_register_requires_name(self):
        class NoName(WatcherBase):
            name = "base"

        with pytest.raises(ConfigError):
            register(NoName)

    def test_register_custom(self):
        class Custom(WatcherBase):
            name = "custom-test"

        register(Custom)
        assert get_watcher("custom-test") is Custom


class TestBaseSampling:
    def test_records_declared_metrics_only(self):
        class W(WatcherBase):
            name = "w"
            cumulative_metrics = ("a",)
            level_metrics = ("b",)

        handle = FakeHandle([{"a": 1.0, "b": 2.0, "c": 3.0}] * 2)
        watcher = W(handle, make_context())
        watcher.sample(0.0)
        watcher.sample(1.0)
        watcher.post_process()
        assert set(watcher.result.cumulative) == {"a"}
        assert set(watcher.result.levels) == {"b"}
        assert watcher.result.timestamps == [0.0, 1.0]

    def test_missing_metrics_skipped(self):
        class W(WatcherBase):
            name = "w"
            cumulative_metrics = ("absent",)

        watcher = W(FakeHandle([{}]), make_context())
        watcher.sample(0.0)
        watcher.post_process()
        assert watcher.result.cumulative == {}


class TestBatchSampling:
    class W(WatcherBase):
        name = "w"
        cumulative_metrics = ("a", "absent")
        level_metrics = ("b",)

    def test_batch_series_equal_scalar_series(self):
        times = [0.5, 1.0, 1.5, 1.5]
        a = [1.0, 2.0, 4.0, 4.0]
        b = [9.0, 7.0, 8.0, 8.0]
        scalar = self.W(
            FakeHandle([{"a": x, "b": y} for x, y in zip(a, b)]), make_context()
        )
        for t in times:
            scalar.sample(t)
        scalar.post_process()
        batch = self.W(FakeHandle([]), make_context())
        batch.sample_batch(
            np.asarray(times[:3]),
            {"a": np.asarray(a[:3]), "b": np.asarray(b[:3]), "c": np.zeros(3)},
        )
        batch.sample_batch(
            np.asarray(times[3:]), {"a": np.asarray(a[3:]), "b": np.asarray(b[3:])}
        )
        batch.post_process()
        assert batch.result.cumulative == scalar.result.cumulative
        assert batch.result.levels == scalar.result.levels
        assert set(batch.result.cumulative) == {"a"}
        assert batch.result.timestamps == scalar.result.timestamps == times
        assert all(type(t) is float for t in batch.result.timestamps)

    def test_scalar_and_batch_samples_keep_chronological_order(self):
        frames = [{"a": 1.0, "b": 10.0}, {"a": 4.0, "b": 40.0}]
        watcher = self.W(FakeHandle(frames), make_context())
        watcher.sample(0.0)
        watcher.sample_batch(
            [1.0, 2.0], {"a": np.asarray([2.0, 3.0]), "b": np.asarray([20.0, 30.0])}
        )
        watcher.sample(3.0)
        watcher.sample_batch([4.0], {"a": np.asarray([5.0])})  # no "b" this time
        watcher.post_process()
        a = watcher.result.cumulative["a"]
        b = watcher.result.levels["b"]
        assert a.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert a.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert b.times.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert b.values.tolist() == [10.0, 20.0, 30.0, 40.0]
        assert watcher.result.timestamps == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_batch_arrays_are_kept_not_copied(self):
        watcher = self.W(FakeHandle([]), make_context())
        times, a = np.asarray([1.0, 2.0]), np.asarray([3.0, 4.0])
        watcher.sample_batch(times, {"a": a})
        watcher.post_process()
        series = watcher.result.cumulative["a"]
        assert series.times is times and series.values is a

    def test_backwards_batch_times_are_refused(self):
        watcher = self.W(FakeHandle([]), make_context())
        watcher.sample_batch([2.0], {"a": np.asarray([1.0])})
        watcher.sample_batch([1.0], {"a": np.asarray([2.0])})
        with pytest.raises(ValueError, match="non-decreasing"):
            watcher.post_process()


class TestMemoryWatcher:
    def test_alloc_derived_from_rss(self):
        frames = [
            {"mem.rss": 100.0},
            {"mem.rss": 300.0},
            {"mem.rss": 200.0},
        ]
        watcher = MemoryWatcher(FakeHandle(frames), make_context())
        for t in (0.0, 1.0, 2.0):
            watcher.sample(t)
        watcher.post_process()
        result = watcher.finalize({})
        assert result.cumulative["mem.allocated"].last() == pytest.approx(300.0)
        assert result.cumulative["mem.freed"].last() == pytest.approx(100.0)
        assert result.info["mem.alloc_provider"] == "derived-from-rss"

    def test_exact_counters_not_overridden(self):
        frames = [{"mem.rss": 100.0, "mem.allocated": 50.0}] * 2
        watcher = MemoryWatcher(FakeHandle(frames), make_context())
        watcher.sample(0.0)
        watcher.sample(1.0)
        watcher.post_process()
        result = watcher.finalize({})
        assert result.cumulative["mem.allocated"].last() == pytest.approx(50.0)
        assert "mem.alloc_provider" not in result.info


class TestRusageWatcher:
    def test_runtime_pinned_to_rusage(self):
        frames = [{"time.runtime": 0.5}, {"time.runtime": 1.4}, {"time.runtime": 2.6}]
        watcher = RusageWatcher(FakeHandle(frames), make_context())
        for t in (0.0, 1.0, 2.0):
            watcher.sample(t)
        watcher.post_process()
        result = watcher.finalize({})
        assert result.statics["time.runtime_rusage"] == pytest.approx(2.0)
        assert result.cumulative["time.runtime"].last() == pytest.approx(2.0)
        assert result.statics["mem.peak_rusage"] == pytest.approx(555.0)


class TestSystemWatcher:
    def test_statics_from_machine_info(self):
        watcher = SystemWatcher(FakeHandle([{}]), make_context())
        watcher.pre_process(SynapseConfig())
        assert watcher.result.statics["sys.cores"] == 4
        assert watcher.result.statics["sys.cpu_freq"] == 2e9
        assert watcher.result.statics["sys.memory"] == 8 << 30


class TestBlktraceWatcher:
    def test_host_handle_degrades_gracefully(self):
        watcher = BlktraceWatcher(FakeHandle([{}]), make_context())
        result = watcher.finalize({})
        assert "no block-level data" in result.info["blktrace"]
        assert result.levels == {}
