"""Profile/Sample data-model tests."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.samples import Profile, Sample, SampleTable
from repro.util.timeseries import TimeSeries


def make_profile(values_per_sample, **kwargs):
    samples = [
        Sample(index=i, t=float(i), dt=1.0, values=dict(vals))
        for i, vals in enumerate(values_per_sample)
    ]
    return Profile(command="test app", samples=samples, **kwargs)


class TestTotals:
    def test_cumulative_metrics_sum(self):
        profile = make_profile(
            [{"cpu.cycles_used": 10.0}, {"cpu.cycles_used": 5.0}]
        )
        assert profile.totals()["cpu.cycles_used"] == pytest.approx(15.0)

    def test_level_metrics_take_max(self):
        profile = make_profile([{"mem.rss": 10.0}, {"mem.rss": 30.0}, {"mem.rss": 20.0}])
        assert profile.totals()["mem.rss"] == pytest.approx(30.0)

    def test_statics_pass_through(self):
        profile = make_profile([{}], statics={"sys.cores": 4, "io.filesystem": "lustre"})
        totals = profile.totals()
        assert totals["sys.cores"] == 4.0
        assert "io.filesystem" not in totals  # non-numeric statics excluded

    def test_unknown_metrics_default_cumulative(self):
        profile = make_profile([{"custom.counter": 1.0}, {"custom.counter": 2.0}])
        assert profile.totals()["custom.counter"] == pytest.approx(3.0)

    def test_tx_prefers_runtime(self):
        profile = make_profile([{"time.runtime": 1.0}, {"time.runtime": 0.5}])
        assert profile.tx == pytest.approx(1.5)

    def test_tx_falls_back_to_dt_sum(self):
        profile = make_profile([{}, {}, {}])
        assert profile.tx == pytest.approx(3.0)

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["time.runtime", "cpu.cycles_used", "mem.rss"]),
                st.floats(-1e3, 1e9, allow_nan=False, width=32),
                max_size=3,
            ),
            max_size=12,
        ),
        st.sampled_from([None, 7, 2.5, 0.0, "n/a"]),
    )
    def test_tx_reads_what_totals_holds(self, values, static):
        """``tx`` totals one metric; it must be ``totals()``'s number —
        same accumulation order, same statics override, same fallback."""
        statics = {} if static is None else {"time.runtime": static}
        profile = make_profile(values, statics=statics)
        runtime = profile.totals().get("time.runtime")
        if runtime is not None and runtime > 0:
            assert profile.tx == runtime
        else:
            assert profile.tx == float(len(values))

    def test_total_of_one_metric_follows_the_level_rule(self):
        profile = make_profile([{"mem.rss": 10.0}, {}, {"mem.rss": 30.0}])
        assert profile._total("mem.rss") == profile.totals()["mem.rss"] == 30.0
        assert profile._total("cpu.flops") is None

    def test_derived_uses_totals(self):
        profile = make_profile(
            [{"cpu.cycles_used": 8.0, "cpu.cycles_stalled_front": 2.0}]
        )
        assert profile.derived()["cpu.efficiency"] == pytest.approx(0.8)


class TestSeries:
    def test_cumulative_series_accumulates(self):
        profile = make_profile([{"io.bytes_written": 5.0}, {"io.bytes_written": 3.0}])
        series = profile.series("io.bytes_written")
        assert list(series.values) == [5.0, 8.0]

    def test_level_series_passthrough(self):
        profile = make_profile([{"mem.rss": 5.0}, {"mem.rss": 3.0}])
        series = profile.series("mem.rss")
        assert list(series.values) == [5.0, 3.0]


class TestTruncate:
    def test_truncate_keeps_prefix_and_flags(self):
        profile = make_profile([{"a": 1.0}, {"a": 2.0}, {"a": 3.0}])
        cut = profile.truncate(2)
        assert cut.n_samples == 2
        assert cut.truncated
        assert not profile.truncated
        assert cut.totals()["a"] == pytest.approx(3.0)

    def test_truncate_is_deep_copy(self):
        profile = make_profile([{"a": 1.0}])
        cut = profile.truncate(1)
        cut.samples[0].values["a"] = 99.0
        assert profile.samples[0].values["a"] == 1.0


class TestSerialisation:
    def test_roundtrip(self):
        profile = make_profile(
            [{"cpu.cycles_used": 1.5}],
            tags=("x=1",),
            machine={"name": "thinkie"},
            statics={"sys.cores": 4},
            info={"note": "hi"},
        )
        back = Profile.from_dict(profile.to_dict())
        assert back.command == profile.command
        assert back.tags == profile.tags
        assert back.machine == profile.machine
        assert back.statics == profile.statics
        assert back.n_samples == profile.n_samples
        assert back.samples[0].values == profile.samples[0].values

    def test_document_size_positive(self):
        profile = make_profile([{}])
        assert profile.document_size() > 50

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(["cpu.cycles_used", "io.bytes_read", "mem.rss"]),
                st.floats(0, 1e12, allow_nan=False),
                max_size=3,
            ),
            min_size=0,
            max_size=8,
        )
    )
    def test_roundtrip_property(self, values):
        profile = make_profile(values)
        back = Profile.from_dict(profile.to_dict())
        assert back.totals() == profile.totals()
        assert back.n_samples == profile.n_samples


class TestMergeWatcherSeries:
    def test_counters_start_at_zero(self):
        """The spawn-to-first-sample offset must not be swallowed."""
        cum = {"c": TimeSeries([1.0, 2.0], [10.0, 12.0])}
        samples = Profile.merge_watcher_series([(0.0, 1.0), (1.0, 1.0)], cum, {})
        assert samples[0].values["c"] == pytest.approx(10.0)
        assert samples[1].values["c"] == pytest.approx(2.0)

    def test_deltas_conserve_total(self):
        cum = {"c": TimeSeries([0.5, 1.5, 2.5], [1.0, 4.0, 9.0])}
        grid = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
        samples = Profile.merge_watcher_series(grid, cum, {})
        assert sum(s.values["c"] for s in samples) == pytest.approx(9.0)

    def test_levels_sampled_at_interval_end(self):
        lev = {"l": TimeSeries([0.0, 2.0], [0.0, 10.0])}
        samples = Profile.merge_watcher_series([(0.0, 1.0), (1.0, 1.0)], {}, lev)
        assert samples[0].values["l"] == pytest.approx(5.0)
        assert samples[1].values["l"] == pytest.approx(10.0)

    def test_watcher_times_attached(self):
        cum = {"c": TimeSeries([1.0], [1.0])}
        samples = Profile.merge_watcher_series(
            [(0.0, 1.0)], cum, {}, watcher_times={"cpu": [0.98]}
        )
        assert samples[0].watcher_times == {"cpu": 0.98}

    def test_empty_grid(self):
        assert Profile.merge_watcher_series([], {}, {}) == []


def _merge_watcher_series_scalar(grid, cumulative, levels, watcher_times=None):
    """Pre-PR-3 scalar merge (one ``value_at`` per metric per interval):
    the equivalence oracle for the batched ``merge_watcher_series``."""
    intervals = list(grid)
    samples = []
    prev_cum = {name: 0.0 for name in cumulative}
    wt = {k: list(v) for k, v in (watcher_times or {}).items()}
    for index, (t, dt) in enumerate(intervals):
        values = {}
        end = t + dt
        for name, series in cumulative.items():
            now_val = series.value_at(end)
            values[name] = now_val - prev_cum[name]
            prev_cum[name] = now_val
        for name, series in levels.items():
            values[name] = series.value_at(end)
        times = {
            watcher: stamps[index]
            for watcher, stamps in wt.items()
            if index < len(stamps)
        }
        samples.append(Sample(index=index, t=t, dt=dt, values=values, watcher_times=times))
    return samples


class TestBatchedMergeEquivalence:
    """The packed-array merge is pinned bit-identical to the scalar
    reference above, the host-plane analogue of the sim plane's
    golden-equivalence fixtures."""

    @staticmethod
    def _compare(grid, cum, lev, wt=None):
        batched = Profile.merge_watcher_series(grid, cum, lev, wt)
        scalar = _merge_watcher_series_scalar(grid, cum, lev, wt)
        assert len(batched) == len(scalar)
        for left, right in zip(batched, scalar):
            # Exact equality on purpose: the batched path must subtract
            # the very same float64 values the scalar loop tracked.
            assert left.to_dict() == right.to_dict()

    def test_randomised_series_match_exactly(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(10):
            n_points = int(rng.integers(0, 40))
            times = np.sort(rng.uniform(0.0, 20.0, n_points))
            cum = {
                name: TimeSeries(times, np.cumsum(rng.uniform(0.0, 5.0, n_points)))
                for name in ("c1", "c2")
            }
            lev = {"l1": TimeSeries(times, rng.uniform(0.0, 100.0, n_points))}
            n_grid = int(rng.integers(0, 30))
            grid = [(float(i) * 0.7, 0.7) for i in range(n_grid)]
            wt = {"w": [float(t) for t, _ in grid[: max(0, n_grid - 2)]]}
            self._compare(grid, cum, lev, wt)

    def test_empty_series_match(self):
        grid = [(0.0, 1.0), (1.0, 1.0)]
        self._compare(grid, {"c": TimeSeries()}, {"l": TimeSeries()})

    def test_degenerate_duplicate_timestamps_match(self):
        series = TimeSeries([1.0, 1.0, 1.0], [0.0, 5.0, 5.0])
        self._compare([(0.0, 1.0), (1.0, 1.0)], {"c": series}, {"l": series})

    # -- grid ends that are the sample timestamps (the sim plane) ----------

    GRID = [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (1.5, 0.25)]
    ENDS = [t + dt for t, dt in GRID]

    def _shared(self, times, seed=3):
        """Two counters and a level sampled together (one time array)."""
        import numpy as np

        rng = np.random.default_rng(seed)
        times = np.asarray(times, dtype=float)
        cum = {
            name: TimeSeries.presorted(
                times, np.cumsum(rng.uniform(0.0, 5.0, times.size)), monotone=True
            )
            for name in ("c1", "c2")
        }
        lev = {"l1": TimeSeries.presorted(times, rng.uniform(0.0, 9.0, times.size))}
        return cum, lev

    def test_every_end_hits_with_drain_duplicate(self):
        """The drain sample repeats the last grid timestamp with its own
        value: that later value is the one read."""
        cum, lev = self._shared([0.0, *self.ENDS, self.ENDS[-1]])
        self._compare(self.GRID, cum, lev)
        merged = Profile.merge_watcher_series(self.GRID, cum, lev)
        assert lev["l1"].values[-1] != lev["l1"].values[-2]
        assert merged[-1].values["l1"] == lev["l1"].values[-1]
        total = sum(s.values["c1"] for s in merged)
        assert total == pytest.approx(cum["c1"].values[-1])

    def test_duplicate_inside_the_grid(self):
        times = [self.ENDS[0], self.ENDS[1], self.ENDS[1], *self.ENDS[2:]]
        self._compare(self.GRID, *self._shared(times))

    def test_grid_end_before_first_timestamp(self):
        self._compare(self.GRID, *self._shared(self.ENDS[1:]))

    def test_grid_end_after_last_timestamp(self):
        self._compare(self.GRID, *self._shared(self.ENDS[:-1]))

    def test_partial_hit_takes_the_fallback_whole(self):
        times = list(self.ENDS)
        times[2] += 0.125
        cum, lev = self._shared(times)
        self._compare(self.GRID, cum, lev)
        merged = Profile.merge_watcher_series(self.GRID, cum, lev)
        assert merged[2].values["l1"] == lev["l1"].value_at(self.ENDS[2])

    def test_series_with_their_own_time_arrays(self):
        cum, _ = self._shared(self.ENDS)
        _, lev = self._shared([0.25, 0.75, 1.9], seed=4)
        self._compare(self.GRID, cum, lev)

    def test_empty_grid_with_series(self):
        cum, lev = self._shared(self.ENDS)
        assert Profile.merge_watcher_series([], cum, lev) == []


class TestSampleTableReadsLikeTheList:
    """``Profile.samples`` is a column table; everything a
    ``list[Sample]`` answered, it answers the same."""

    SAMPLES = [
        Sample(3, 0.0, 0.5, {"a": 1.0, "b": -0.0}, {"w": 0.4}),
        Sample(9, 0.5, 0.5, {}, {}),  # a never-sampled row's shape
        Sample(4, 1.0, 0.25, {"b": 2.0, "c": 5e-324}, {"w": 1.1, "v": 1.2}),
    ]

    def table(self):
        return Profile(command="x", samples=self.SAMPLES).samples

    def test_the_list_is_converted(self):
        table = self.table()
        assert isinstance(table, SampleTable)
        assert table.metrics == ("a", "b", "c")
        assert table.watchers == ("w", "v")
        assert table.values.shape == (3, 3) and table.times.shape == (3, 2)
        assert table.has_values is not None and table.has_times is not None

    def test_len_iteration_and_indexing(self):
        table = self.table()
        assert len(table) == 3
        assert list(table) == self.SAMPLES
        assert [table[i] for i in range(3)] == self.SAMPLES
        assert table[-1] == self.SAMPLES[-1]
        assert table[1].values == {} and table[1].watcher_times == {}
        assert isinstance(table[0].index, int) and isinstance(table[0].t, float)
        with pytest.raises(IndexError):
            table[3]
        with pytest.raises(IndexError):
            table[-4]

    def test_slicing(self):
        table = self.table()
        for cut in (slice(1, None), slice(None, 2), slice(None, None, -1), slice(5, 9)):
            assert isinstance(table[cut], SampleTable)
            assert table[cut] == self.SAMPLES[cut]
            assert list(table[cut]) == self.SAMPLES[cut]
        # A slice without ragged rows is a table without masks.
        assert table[:1].has_values is None and table[:1].metrics == ("a", "b")

    def test_equality(self):
        table = self.table()
        assert table == self.SAMPLES
        assert table == SampleTable.from_samples(self.SAMPLES)
        assert table == SampleTable.from_dicts([s.to_dict() for s in self.SAMPLES])
        assert table != self.SAMPLES[::-1]
        assert table != self.SAMPLES[:2]
        assert table != SampleTable.from_samples(self.SAMPLES[:2])
        # Same samples, columns in another order: still equal.
        reordered = [Sample(s.index, s.t, s.dt, dict(reversed(list(s.values.items()))),
                            s.watcher_times) for s in self.SAMPLES]
        assert SampleTable.from_samples(reordered) == table

    def test_pickle(self):
        import pickle

        profile = Profile(command="x", samples=self.SAMPLES)
        again = pickle.loads(pickle.dumps(profile))
        assert again.samples == profile.samples == self.SAMPLES
        assert again == profile

    def test_truncate(self):
        profile = Profile(command="x", samples=self.SAMPLES)
        for n in range(5):
            cut = profile.truncate(n)
            assert cut.samples == self.SAMPLES[:n]
            assert cut.to_dict()["samples"] == [s.to_dict() for s in self.SAMPLES[:n]]

    def test_handed_out_samples_are_copies(self):
        table = self.table()
        table[0].values["a"] = 99.0
        for sample in table:
            sample.watcher_times.clear()
        assert list(table) == self.SAMPLES

    def test_to_dict_is_the_list_shape(self):
        profile = Profile(command="x", samples=self.SAMPLES)
        assert profile.to_dict()["samples"] == [s.to_dict() for s in self.SAMPLES]
        back = Profile.from_dict(profile.to_dict())
        assert back.samples == self.SAMPLES

    def test_totals_and_series_read_the_columns(self):
        profile = Profile(command="x", samples=self.SAMPLES)
        assert profile.totals() == {"a": 1.0, "b": 2.0, "c": 5e-324}
        assert profile.metric_names() == ["a", "b", "c"]
        assert profile._total("b") == 2.0 and profile._total("zz") is None
        assert list(profile.series("b").values) == [0.0, 0.0, 2.0]
        assert list(profile.series("b").times) == [0.5, 1.0, 1.25]
        assert profile.tx == 1.25

    def test_canonical_form(self):
        """A column no sample has is dropped, and a mask without an
        absent cell is no mask."""
        table = SampleTable(
            ["a", "b"], [], [0, 1], [0.0, 1.0], [1.0, 1.0],
            [[5.0, 7.0], [6.0, 8.0]], has_values=[[True, False], [True, False]],
        )
        assert table.metrics == ("a",) and table.has_values is None
        assert table.values.tolist() == [[5.0], [6.0]]
        with pytest.raises(ValueError):
            SampleTable(["a"], [], [0, 1], [0.0], [1.0, 1.0])


class TestNormalisationOnInit:
    def test_command_normalised(self):
        profile = Profile(command="  a   b ")
        assert profile.command == "a b"

    def test_tags_normalised(self):
        profile = Profile(command="x", tags={"k": 1})
        assert profile.tags == ("k=1",)

    def test_created_reads_the_clock_at_construction(self):
        """The default looks ``time.time`` up per profile: a factory bound
        when the class was made ignored a patched clock (1.79e9 under a
        patch returning 123.0)."""
        with mock.patch("time.time", return_value=123.0):
            assert Profile(command="x").created == 123.0
