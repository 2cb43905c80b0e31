"""Per-stream timeline oracle for the engine's run-folding timeline.

:meth:`Engine._timeline` used to walk every stream of every phase with
one ``concatenate`` + ``cumsum`` each.  It now cuts a plan's phases into
*runs* (consecutive phases whose every stream holds exactly one demand —
the sample phases of an emulation plan) folded with array operations,
and single phases of any other shape that keep the per-stream walk.  The
old walk lives here, written over the plan's raw stream table, and the
engine is compared against it — exactly, no tolerance — on generated
stream layouts and on whole records of real plans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_packed import assert_records_identical, random_workload
from test_replay_many import make_noises, record_digest

from repro.apps import GromacsModel
from repro.core.api import profile
from repro.core.config import SynapseConfig
from repro.core.plan import EmulationPlan
from repro.sim import engine as engine_module
from repro.sim.backend import SimBackend
from repro.sim.engine import Engine, Prepared, _Loop, _Run, _timeline_layout
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedBuilder
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.sinks import MemorySink

# -- the oracle ----------------------------------------------------------------


def timeline_per_stream(plan, durations, t_start=0.0):
    """The timeline before runs existed: every stream its own cumsum."""
    rows = len(durations)
    t0 = np.empty((rows, plan.n))
    t1 = np.empty((rows, plan.n))
    bounds = np.empty((rows, plan.n_phases, 2))
    t_phase = np.full(rows, float(t_start))
    stream_iter = iter(plan.streams.tolist())
    pending = next(stream_iter, None)
    for p_idx in range(plan.n_phases):
        phase_end = t_phase
        while pending is not None and pending[0] == p_idx:
            _, first, end = pending
            if end > first:
                steps = np.concatenate(
                    (t_phase[:, None], durations[:, first:end]), axis=1
                ).cumsum(axis=1)
                t0[:, first:end] = steps[:, :-1]
                t1[:, first:end] = steps[:, 1:]
                phase_end = np.maximum(phase_end, steps[:, -1])
            pending = next(stream_iter, None)
        bounds[:, p_idx, 0] = t_phase
        bounds[:, p_idx, 1] = phase_end
        t_phase = phase_end
    return t0, t1, bounds


def assert_timelines_identical(plan, durations, t_start=0.0):
    got = Engine._timeline(plan, durations, t_start)
    expected = timeline_per_stream(plan, durations, t_start)
    for name, ours, theirs in zip(("t0", "t1", "bounds"), got, expected):
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


# -- generated layouts ---------------------------------------------------------


def bare_plan(phases: list[list[int]]) -> Prepared:
    """A plan holding only what the timeline reads: ``phases[p][s]`` is
    the demand count of stream *s* of phase *p*."""
    streams, n = [], 0
    for p_idx, phase in enumerate(phases):
        for count in phase:
            streams.append((p_idx, n, n + count))
            n += count
    plan = Prepared()
    plan.n = n
    plan.n_phases = len(phases)
    plan.streams = np.asarray(streams, dtype=np.intp).reshape(-1, 3)
    plan.segments, plan.run_phases = _timeline_layout(plan.n_phases, plan.streams)
    return plan


#: A phase of any shape: no streams, empty streams, multi-demand streams.
any_phase = st.lists(st.integers(0, 4), max_size=4)
#: A phase a run may hold: one to five streams of one demand each.
single_phase = st.lists(st.just(1), min_size=1, max_size=5)
#: Runs shorter and longer than the cutoff, with other phases between.
layouts = st.lists(
    st.one_of(
        st.lists(single_phase, min_size=1, max_size=24),
        st.lists(any_phase, min_size=1, max_size=3),
    ),
    max_size=6,
).map(lambda groups: [phase for group in groups for phase in group])


def draw_durations(seed: int, rows: int, n: int) -> np.ndarray:
    """Durations across twelve orders of magnitude, a fifth of them zero."""
    rng = np.random.default_rng(seed)
    durations = rng.lognormal(0.0, 4.0, (rows, n))
    durations[rng.random((rows, n)) < 0.2] = 0.0
    return durations


@given(layouts, st.integers(0, 2**32 - 1), st.sampled_from([1, 5]),
       st.sampled_from([0.0, 0.1, 12345.678, 1e9 / 3.0]))
@settings(max_examples=300, deadline=None)
def test_run_fold_equals_per_stream_walk(phases, seed, rows, t_start):
    plan = bare_plan(phases)
    assert_timelines_identical(plan, draw_durations(seed, rows, plan.n), t_start)


MIN_RUN = engine_module._MIN_RUN


class TestLayout:
    def test_segments_tile_the_phases_in_order(self):
        run = [[1, 1], [1], [1, 1, 1], [1]] * (MIN_RUN // 4 + 1)
        plan = bare_plan([[2]] + run + [[3, 1], [1], [1], [], [1]])
        k = len(run)
        assert [type(s) for s in plan.segments] == [_Loop, _Run, _Loop]
        assert [s.phases for s in plan.segments] == [(0, 1), (1, 1 + k), (1 + k, 6 + k)]
        segment = plan.segments[1]
        assert segment.demands == (2, 2 + 7 * k // 4)
        assert segment.firsts.tolist()[:5] == [0, 2, 3, 6, 7]
        assert segment.phase_of.tolist()[:8] == [0, 0, 1, 2, 2, 2, 3, 4]
        assert len(segment.firsts) == k and len(segment.phase_of) == 7 * k // 4
        first = 2 + 7 * k // 4
        assert plan.segments[2].streams[0] == (1 + k, first, first + 3)
        assert plan.run_phases == k

    @pytest.mark.parametrize("length", range(1, 2 * MIN_RUN, 2))
    def test_short_runs_stay_in_the_loop(self, length):
        plan = bare_plan([[2]] + [[1, 1]] * length + [[2]])
        in_run = length >= MIN_RUN
        assert plan.run_phases == (length if in_run else 0)
        assert any(type(s) is _Run for s in plan.segments) == in_run
        assert_timelines_identical(plan, draw_durations(length, 2, plan.n))

    def test_multi_demand_phase_between_two_runs(self):
        plan = bare_plan([[1]] * MIN_RUN + [[1, 2]] + [[1, 1]] * (MIN_RUN + 2))
        assert [type(s) for s in plan.segments] == [_Run, _Loop, _Run]
        assert plan.run_phases == 2 * MIN_RUN + 2
        assert_timelines_identical(plan, draw_durations(1, 3, plan.n), 7.25)

    def test_empty_phase_and_empty_stream_break_a_run(self):
        run = [[1]] * MIN_RUN
        plan = bare_plan(run + [[]] + run + [[1, 0]] + run)
        assert [s.phases for s in plan.segments if type(s) is _Run] == [
            (0, MIN_RUN), (MIN_RUN + 1, 2 * MIN_RUN + 1), (2 * MIN_RUN + 2, 3 * MIN_RUN + 2)
        ]
        assert_timelines_identical(plan, draw_durations(2, 5, plan.n))

    def test_no_phases_no_streams(self):
        plan = bare_plan([])
        assert plan.segments == () and plan.run_phases == 0
        assert_timelines_identical(plan, np.empty((2, 0)), 3.0)
        plan = bare_plan([[], []])
        assert [s.phases for s in plan.segments] == [(0, 2)]
        assert_timelines_identical(plan, np.empty((1, 0)), 3.0)

    def test_streams_that_do_not_tile_the_demands_all_loop(self):
        """Hand-made columns may leave gaps or shuffle the streams'
        demands; only the stream walk reads them as they are."""
        plan = bare_plan([[1]] * (MIN_RUN + 2))
        assert plan.run_phases == MIN_RUN + 2
        streams = plan.streams.copy()
        streams[[2, 3], 1:] = streams[[3, 2], 1:]
        plan.streams = streams
        plan.segments, plan.run_phases = _timeline_layout(plan.n_phases, streams)
        assert plan.run_phases == 0
        assert_timelines_identical(plan, draw_durations(3, 2, plan.n))


# -- whole records -------------------------------------------------------------


@pytest.fixture(scope="module")
def emulation_plans():
    """Emulation workloads of a 44-sample gromacs profile: plain, with a
    ``cpu_load`` stream in every compute phase, and regridded."""
    prof = profile(
        GromacsModel(iterations=1_000_000),
        backend=SimBackend("thinkie", noisy=True, seed=2),
        config=SynapseConfig(sample_rate=2.0),
    )
    plan = EmulationPlan.from_profile(prof)
    return {
        "plain": (plan, SynapseConfig()),
        "cpu-load": (plan, SynapseConfig(cpu_load=0.5)),
        "regrid": (plan.regrid(3), SynapseConfig(openmp_threads=4)),
    }


@pytest.fixture
def per_stream_engine(monkeypatch):
    """Context in which the engine's timeline *is* the oracle."""

    def swap():
        monkeypatch.setattr(Engine, "_timeline", staticmethod(timeline_per_stream))

    return swap


@pytest.mark.parametrize("which", ["plain", "cpu-load", "regrid"])
@pytest.mark.parametrize("machine_name", ["thinkie", "comet"])
def test_emulation_records_equal_under_either_timeline(
    emulation_plans, per_stream_engine, which, machine_name
):
    plan, config = emulation_plans[which]
    machine = get_machine(machine_name)
    prepared = Engine(machine).prepare(plan.build_packed_workload(config))
    if which == "regrid":
        # A merged sample that both reads and writes has a two-demand
        # storage stream: a loop phase inside the samples.
        assert 0 < prepared.run_phases < prepared.n_phases - 1
    else:
        assert prepared.run_phases == prepared.n_phases - 1
        assert [type(s) for s in prepared.segments] == [_Loop, _Run]
    specs = [(seed, 0.03, 0.01) for seed in range(5)]
    block = Engine(machine).replay_many(prepared, make_noises(specs))
    single = Engine(machine, make_noises(specs[:1])[0]).run(prepared)
    per_stream_engine()
    oracle = Engine(machine).replay_many(prepared, make_noises(specs))
    assert [record_digest(r) for r in block] == [record_digest(r) for r in oracle]
    for got, ref in zip(block, oracle):
        assert_records_identical(got, ref)
    assert_records_identical(single, oracle[0])


@pytest.mark.parametrize("seed", range(6))
def test_random_workloads_equal_under_either_timeline(per_stream_engine, seed):
    """Mostly multi-demand phases: the loop side of the selection."""
    machine = get_machine("thinkie")
    prepared = Engine(machine).prepare(random_workload(np.random.default_rng(seed), machine))
    specs = [(seed, 0.05, 0.01), (seed + 1, 0.05, 0.01)]
    block = Engine(machine).replay_many(prepared, make_noises(specs))
    per_stream_engine()
    oracle = Engine(machine).replay_many(prepared, make_noises(specs))
    assert [record_digest(r) for r in block] == [record_digest(r) for r in oracle]


def sample_batch(rng: np.random.Generator, phases: int) -> PackedBuilder:
    b = PackedBuilder("batch")
    for _ in range(phases):
        b.phase()
        b.stream()
        b.compute(instructions=float(rng.uniform(1e7, 1e9)), workload_class="app.md")
        if rng.random() < 0.6:
            b.stream()
            b.io(bytes_written=int(rng.integers(1, 1 << 22)))
        if rng.random() < 0.4:
            b.stream()
            b.memory(allocate=int(rng.integers(1, 1 << 24)), free=int(rng.integers(0, 1 << 20)))
    return b


def test_stream_feed_continues_runs_from_a_nonzero_start(per_stream_engine):
    """``EngineStream.feed`` replays each batch from the previous end
    time with its carries: runs must continue bit for bit there too."""
    machine = get_machine("comet")

    def feed_all():
        rng = np.random.default_rng(5)
        stream = Engine(machine, NoiseModel(seed=3, duration_sigma=0.03)).open_stream()
        return [
            stream.feed(sample_batch(rng, phases).build())
            for phases in (MIN_RUN + 2, 2, MIN_RUN + 5)
        ]

    batch = sample_batch(np.random.default_rng(5), MIN_RUN + 2).build()
    assert Engine(machine).prepare(batch).run_phases == MIN_RUN + 2
    got = feed_all()
    assert got[1].phase_bounds[0][0] > 0.0
    per_stream_engine()
    for ours, theirs in zip(got, feed_all()):
        assert_records_identical(ours, theirs)


def test_timeline_counters_say_how_much_left_the_loop(emulation_plans):
    plan, config = emulation_plans["plain"]
    machine = get_machine("thinkie")
    prepared = Engine(machine).prepare(plan.build_packed_workload(config))
    registry = get_registry()
    names = ("engine.timeline.run_phases", "engine.timeline.loop_phases")
    before = [registry.snapshot()["counters"].get(name, 0) for name in names]
    bus, sink = get_bus(), MemorySink()
    bus.add_sink(sink)
    try:
        Engine(machine).replay_many(
            prepared, make_noises([(s, 0.01, 0.01) for s in range(3)])
        )
        Engine(machine).run(prepared)
    finally:
        bus.remove_sink(sink)
    after = [registry.snapshot()["counters"].get(name, 0) for name in names]
    assert after[0] - before[0] == 4 * prepared.run_phases
    assert after[1] - before[1] == 4 * 1
    for name in ("engine.replay", "engine.run"):
        (event,) = sink.named(name)
        assert event.attrs["run_phases"] == prepared.run_phases == plan.n_samples
