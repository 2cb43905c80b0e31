"""The row-wise sampler of a fold's stacked series.

``RecordBlock.counters_many`` answers every series of every row of a
block in one pass; each entry has to equal ``TimeSeries.values_at`` on
that row's series **bit for bit** — the per-row ``np.interp`` it
replaced is the oracle.  Also here: a record does not drag its block
through a pickle.
"""

from __future__ import annotations

import pickle

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import GromacsModel, SleeperApp
from repro.core.config import SynapseConfig
from repro.core.profiler import Profiler
from repro.runtime import comparable_artifact
from repro.sim.backend import SimBackend
from repro.sim.engine import Engine, ExecutionRecord, RecordBlock
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.util.timeseries import TimeSeries
from test_fold_oracle import property_settings

# Times on a coarse lattice, so that queries land on breakpoints and
# breakpoints on each other (the duplicates a step series has).
lattice = st.integers(-4, 24).map(lambda k: k / 4.0)
# (no negative zero: which zero a minimum of both signs returns is the
# reduction's business, and the clamp bounds are reductions)
values = st.floats(-1e9, 1e9, allow_nan=False, width=64).map(lambda v: v + 0.0)


@st.composite
def blocks(draw):
    """A block of 1–4 rows × 1–4 series of 1–7 breakpoints each (series
    of one block differ in length, two of them may share a time table),
    with ``(rows, samples)`` query times."""
    rows = draw(st.integers(1, 4))
    series: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    shared = None
    for lane in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, 7))
        if shared is not None and shared.shape[1] == width and draw(st.booleans()):
            times = shared
        else:
            times = np.sort(np.array(draw(st.lists(
                st.lists(lattice, min_size=width, max_size=width),
                min_size=rows, max_size=rows,
            ))), axis=1)
            shared = times
        levels = np.array(draw(st.lists(
            st.lists(values, min_size=width, max_size=width),
            min_size=rows, max_size=rows,
        )))
        if draw(st.booleans()):
            levels = np.maximum.accumulate(levels, axis=1)  # a counter
        series[f"s{lane}"] = (times, levels)
    samples = draw(st.integers(0, 6))
    queries = np.array(draw(st.lists(
        st.lists(lattice | st.floats(-2.0, 8.0), min_size=samples, max_size=samples),
        min_size=rows, max_size=rows,
    ))).reshape(rows, samples)
    durations = np.array(draw(st.lists(lattice, min_size=rows, max_size=rows)))
    return RecordBlock(durations, series), queries


def assert_bit_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@property_settings(300)
@given(case=blocks(), picked=st.data())
def test_block_sampler_equals_values_at_bit_for_bit(case, picked):
    block, queries = case
    rows = len(block.durations)
    chosen = sorted(picked.draw(
        st.lists(st.integers(0, rows - 1), min_size=1, max_size=rows)
    ))
    sampled = block.counters_many(chosen, queries[chosen])
    assert list(sampled) == [*block.series, "time.runtime"]
    for at, row in enumerate(chosen):
        for name, (times, levels) in block.series.items():
            oracle = TimeSeries(times[row], levels[row]).values_at(queries[row])
            assert_bit_equal(sampled[name][at], oracle)
        assert_bit_equal(
            sampled["time.runtime"][at],
            np.minimum(np.maximum(queries[row], 0.0), block.durations[row]),
        )


def test_empty_series_read_zero_and_keep_their_place():
    record = ExecutionRecord(
        machine=get_machine("thinkie"), duration=2.0,
        counters={"a": TimeSeries(), "b": TimeSeries([0.0, 2.0], [0.0, 8.0])},
        levels={"c": TimeSeries()}, io_events=[], phase_bounds=[],
    )
    sampled = record.counters_many(np.array([-1.0, 0.5, 3.0]))
    assert list(sampled) == ["a", "b", "c", "time.runtime"]
    assert sampled["a"].tolist() == sampled["c"].tolist() == [0.0, 0.0, 0.0]
    assert sampled["b"].tolist() == [0.0, 2.0, 8.0]
    assert sampled["time.runtime"].tolist() == [0.0, 0.5, 2.0]


def replay(app, machine: str, seeds) -> list[ExecutionRecord]:
    spec = get_machine(machine)
    plan = Engine(spec).prepare(app.build_packed(spec))
    return Engine(spec).replay_many(plan, [
        NoiseModel(seed=seed, duration_sigma=0.05, counter_sigma=0.02)
        for seed in seeds
    ])


def test_engine_block_equals_its_rows_series():
    """On real folds: the gromacs plan (several breakpoint grids, step
    series with duplicate breakpoints) and the sleeper's."""
    for app in (GromacsModel(iterations=20_000), SleeperApp(sleep_seconds=1.0)):
        for rows in (1, 8, 64):
            records = replay(app, "comet", range(rows))
            block = records[0].block
            assert all(r.block is block and r.row == i for i, r in enumerate(records))
            rng = np.random.default_rng(rows)
            queries = np.sort(rng.uniform(-0.5, 2.5, (rows, 9)), axis=1)
            # ... some of them on breakpoints, first and last included.
            for row, record in enumerate(records):
                grid = record.counters["cpu.cycles_used"].times
                queries[row, [1, 4, 7]] = grid[[0, len(grid) // 2, -1]]
            queries.sort(axis=1)
            sampled = block.counters_many(list(range(rows)), queries)
            for row, record in enumerate(records):
                lone = record.counters_many(queries[row])
                for group in (record.counters, record.levels):
                    for name, series in group.items():
                        oracle = series.values_at(queries[row])
                        assert_bit_equal(sampled[name][row], oracle)
                        assert_bit_equal(lone[name], oracle)


def test_a_record_pickles_as_its_own_row_only():
    app = GromacsModel(iterations=20_000)
    seeds = list(range(64))
    of_block = replay(app, "comet", seeds)[37]
    alone = replay(app, "comet", [37])[0]
    assert of_block.block is not alone.block and len(of_block.block.durations) == 64
    assert len(pickle.dumps(of_block)) == len(pickle.dumps(alone))

    shipped = pickle.loads(pickle.dumps(of_block))
    assert shipped.block is None and shipped.row == 0
    queries = np.linspace(-0.2, of_block.duration + 0.3, 23)
    want = of_block.counters_many(queries)
    got = shipped.counters_many(queries)
    assert list(got) == list(want)
    for name in want:
        assert_bit_equal(got[name], want[name])

    config = SynapseConfig(sample_rate=10.0)
    profiles = [
        Profiler(SimBackend("comet"), config=config).run(record)
        for record in (of_block, shipped, alone)
    ]
    first, *rest = [comparable_artifact(profile) for profile in profiles]
    assert rest == [first, first]


def test_a_replaced_record_samples_its_own_series():
    """``dataclasses.replace`` leaves the fold behind: the copy's batch
    sampling reads the series it was given, as its scalar sampling does."""
    import dataclasses

    record = replay(GromacsModel(iterations=20_000), "comet", range(4))[2]
    doubled = {
        name: TimeSeries(series.times, series.values * 2.0)
        for name, series in record.counters.items()
    }
    copy = dataclasses.replace(record, counters=doubled)
    assert record.block is not None and copy.block is None and copy.row == 0
    queries = np.linspace(0.0, record.duration, 11)
    sampled = copy.counters_many(queries)
    for at, t in enumerate(queries.tolist()):
        scalar = copy.counters_at(t)
        assert {name: float(values[at]) for name, values in sampled.items()} == scalar
    name = "cpu.cycles_used"
    assert_bit_equal(sampled[name], doubled[name].values_at(queries))
    assert sampled[name][-1] == 2.0 * record.counters_many(queries)[name][-1]
