"""TimeSeries container tests (including property-based invariants)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.timeseries import TimeSeries


def monotone_series(draw_values=st.floats(0, 1e9, allow_nan=False, allow_infinity=False)):
    """Strategy: a series with sorted timestamps."""
    return st.lists(
        st.tuples(st.floats(0, 1e6, allow_nan=False, allow_infinity=False), draw_values),
        min_size=0,
        max_size=40,
    ).map(lambda pts: TimeSeries.from_points(sorted(pts, key=lambda p: p[0])))


class TestConstruction:
    def test_empty(self):
        ts = TimeSeries()
        assert len(ts) == 0
        assert not ts
        assert ts.total() == 0.0
        assert ts.max() == 0.0
        assert ts.span() == 0.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, 1.0], [1.0])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries([1.0, 0.5], [0.0, 1.0])

    def test_from_points(self):
        ts = TimeSeries.from_points([(0.0, 1.0), (1.0, 3.0)])
        assert ts.first() == 1.0
        assert ts.last() == 3.0
        assert ts.total() == 2.0

    def test_append(self):
        ts = TimeSeries()
        ts.append(0.0, 1.0)
        ts.append(2.0, 5.0)
        assert len(ts) == 2
        assert ts.span() == 2.0

    def test_append_backwards_rejected(self):
        ts = TimeSeries([1.0], [1.0])
        with pytest.raises(ValueError):
            ts.append(0.5, 2.0)

    def test_equality(self):
        a = TimeSeries([0, 1], [1, 2])
        b = TimeSeries([0, 1], [1, 2])
        c = TimeSeries([0, 1], [1, 3])
        assert a == b
        assert a != c


class TestInterpolation:
    def test_value_at_clamps_left_and_right(self):
        ts = TimeSeries([1.0, 2.0], [10.0, 20.0])
        assert ts.value_at(0.0) == 10.0
        assert ts.value_at(3.0) == 20.0

    def test_value_at_interpolates(self):
        ts = TimeSeries([0.0, 2.0], [0.0, 10.0])
        assert ts.value_at(1.0) == pytest.approx(5.0)

    def test_value_at_empty(self):
        assert TimeSeries().value_at(1.0) == 0.0

    def test_values_at_vectorised(self):
        ts = TimeSeries([0.0, 1.0], [0.0, 2.0])
        np.testing.assert_allclose(ts.values_at([0.0, 0.5, 1.0]), [0.0, 1.0, 2.0])

    def test_resample_preserves_endpoints(self):
        ts = TimeSeries([0.0, 1.0, 2.0], [0.0, 5.0, 6.0])
        grid = [0.0, 2.0]
        resampled = ts.resample(grid)
        assert resampled.first() == ts.first()
        assert resampled.last() == ts.last()


class TestOperations:
    def test_deltas_sum_to_total(self):
        ts = TimeSeries([0, 1, 2, 3], [0.0, 2.0, 2.5, 7.0])
        assert ts.deltas().sum() == pytest.approx(ts.total())

    def test_shifted(self):
        ts = TimeSeries([0.0, 1.0], [1.0, 2.0])
        shifted = ts.shifted(2.5)
        assert shifted.times[0] == 2.5
        assert shifted.values[0] == 1.0

    def test_integrate_constant_rate(self):
        ts = TimeSeries([0.0, 2.0], [3.0, 3.0])
        assert ts.integrate() == pytest.approx(6.0)

    def test_to_points_roundtrip(self):
        points = [(0.0, 1.0), (1.5, 2.0)]
        assert TimeSeries.from_points(points).to_points() == points


class TestFastPathStorage:
    """Amortised append, cached clamp range, pass-through construction."""

    def test_append_many_points_amortised_buffer(self):
        ts = TimeSeries()
        for i in range(1000):
            ts.append(float(i), float(i * 2))
        assert len(ts) == 1000
        np.testing.assert_array_equal(ts.times, np.arange(1000.0))
        np.testing.assert_array_equal(ts.values, 2.0 * np.arange(1000.0))

    def test_append_after_construction(self):
        ts = TimeSeries([0.0, 1.0], [1.0, 2.0])
        ts.append(2.0, 0.5)
        assert len(ts) == 3
        assert ts.last() == 0.5

    def test_cached_range_tracks_appends(self):
        ts = TimeSeries([0.0, 1.0], [1.0, 2.0])
        assert ts.max() == 2.0  # populates the cache
        ts.append(2.0, 5.0)
        assert ts.max() == 5.0
        assert ts.value_at(10.0) == 5.0
        ts.append(3.0, -1.0)
        assert ts.value_at(-10.0) == 1.0
        assert ts.values_at([-10.0, 10.0]).min() == -1.0

    def test_values_at_accepts_ndarray_without_copy_semantics(self):
        ts = TimeSeries([0.0, 2.0], [0.0, 4.0])
        grid = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(ts.values_at(grid), [0.0, 2.0, 4.0])

    def test_values_at_accepts_generator_once(self):
        ts = TimeSeries([0.0, 2.0], [0.0, 4.0])
        gen = (t for t in (0.0, 1.0, 2.0))
        np.testing.assert_allclose(ts.values_at(gen), [0.0, 2.0, 4.0])

    def test_values_at_generator_on_empty_series(self):
        gen = (t for t in (0.0, 1.0, 2.0))
        np.testing.assert_array_equal(TimeSeries().values_at(gen), np.zeros(3))

    def test_construction_from_arrays(self):
        times = np.array([0.0, 1.0])
        values = np.array([1.0, 2.0])
        ts = TimeSeries(times, values)
        np.testing.assert_array_equal(ts.times, times)
        np.testing.assert_array_equal(ts.values, values)

    def test_construction_from_generators(self):
        ts = TimeSeries((float(i) for i in range(3)), (float(i) for i in range(3)))
        assert len(ts) == 3

    def test_pickle_roundtrip(self):
        import pickle

        ts = TimeSeries([0.0, 1.0, 2.0], [1.0, 4.0, 2.0])
        ts.append(3.0, 6.0)
        back = pickle.loads(pickle.dumps(ts))
        assert back == ts
        assert back.max() == 6.0


@given(monotone_series())
def test_total_equals_deltas_sum(ts):
    if len(ts) >= 2:
        assert ts.deltas().sum() == pytest.approx(ts.total(), rel=1e-9, abs=1e-6)


@given(monotone_series(), st.floats(-1e6, 2e6, allow_nan=False))
def test_value_at_within_range(ts, t):
    if len(ts) == 0:
        assert ts.value_at(t) == 0.0
    else:
        value = ts.value_at(t)
        assert ts.values.min() - 1e-9 <= value <= ts.values.max() + 1e-9


@given(monotone_series())
def test_max_is_upper_bound(ts):
    if len(ts):
        assert all(v <= ts.max() for v in ts.values)


@given(
    st.lists(
        st.tuples(st.floats(0, 1e6, allow_nan=False), st.floats(0, 1e9, allow_nan=False)),
        max_size=40,
    ),
    st.lists(st.floats(-10.0, 1e6, allow_nan=False), max_size=8),
)
def test_monotone_promise_reads_like_the_reduction(points, grid):
    """``presorted(..., monotone=True)`` takes the clamp range from the
    first and last value; every query must read as if it had reduced —
    and the clamp must read as ``np.clip`` did."""
    times = np.sort(np.asarray([t for t, _ in points], dtype=float))
    values = np.sort(np.asarray([v for _, v in points], dtype=float))
    reduced = TimeSeries(times, values)
    promised = TimeSeries.presorted(times, values, monotone=True)
    grid = np.asarray(grid, dtype=float)
    assert np.array_equal(promised.values_at(grid), reduced.values_at(grid))
    assert promised.max() == reduced.max()
    if len(points):
        reference = np.clip(np.interp(grid, times, values), values.min(), values.max())
        assert np.array_equal(reduced.values_at(grid), reference)
