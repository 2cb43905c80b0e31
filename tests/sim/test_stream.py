"""Streaming engine runs: incremental batches, checkpoint/restore.

The contract under test is the strongest one the engine offers: feeding
a workload through :class:`EngineStream` in phase-group batches is
*bit-identical* to one :meth:`Engine.run` over the concatenated
workload — absolute times, cumulative counters, carried RSS/peak, noise
draws — and the same holds across a JSON checkpoint/restore boundary.
"""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import WorkloadError
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import pack_workload
from repro.sim.stream import EngineStream
from repro.sim.workload import SimWorkload

from gen_stream_checkpoint import FIXTURE, gromacs_batches, open_stream
from test_packed import assert_records_identical, random_workload


def split_phases(workload: SimWorkload, groups: int) -> list[SimWorkload]:
    """Cut a workload into ``groups`` consecutive phase-group batches."""
    per = max(1, -(-len(workload.phases) // groups))
    return [
        SimWorkload(
            name=workload.name,
            phases=workload.phases[start : start + per],
            base_rss=workload.base_rss,
            metadata=dict(workload.metadata),
        )
        for start in range(0, len(workload.phases), per)
    ]


def noise_for(noisy: bool, seed: int) -> NoiseModel:
    if not noisy:
        return NoiseModel.silent()
    return NoiseModel(seed=seed, duration_sigma=0.02, counter_sigma=0.007)


def assert_stream_matches_full(records, full, machine) -> None:
    """Batch records must tile the full record exactly."""
    assert records, "stream produced no records"
    assert records[-1].duration == full.duration
    bounds = [b for record in records for b in record.phase_bounds]
    assert bounds == full.phase_bounds
    events = [e for record in records for e in record.io_events]
    assert events == list(full.io_events)
    rng = np.random.default_rng(0)
    for record in records:
        t_lo = record.phase_bounds[0][0] if record.phase_bounds else record.duration
        t_hi = record.duration
        if t_hi <= t_lo:
            continue
        # Strictly interior sample grid: endpoints may carry duplicated
        # (harmless) points, interiors must interpolate identically.
        grid = t_lo + (t_hi - t_lo) * np.sort(rng.uniform(0.001, 0.999, size=64))
        for name, series in record.counters.items():
            assert name in full.counters, name
            assert np.array_equal(
                series.values_at(grid), full.counters[name].values_at(grid)
            ), name
        for name, series in record.levels.items():
            assert name in full.levels, name
            assert np.array_equal(
                series.values_at(grid), full.levels[name].values_at(grid)
            ), name


@pytest.mark.parametrize("machine_name", ["thinkie", "stampede"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("noisy", [False, True], ids=["silent", "noisy"])
def test_stream_matches_full_run(machine_name, seed, noisy):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    full = Engine(machine, noise_for(noisy, seed)).run(workload)

    engine = Engine(machine, noise_for(noisy, seed))
    stream = engine.open_stream(name=workload.name, base_rss=workload.base_rss)
    records = [stream.feed(batch) for batch in split_phases(workload, 3)]

    assert_stream_matches_full(records, full, machine)
    totals = stream.totals()
    full_totals = full.totals()
    for name, value in totals.items():
        assert value == full_totals.get(name, value), name


def test_stream_accepts_packed_batches():
    machine = get_machine("stampede")
    workload = random_workload(np.random.default_rng(4), machine)
    full = Engine(machine, NoiseModel.silent()).run(workload)
    stream = Engine(machine, NoiseModel.silent()).open_stream(
        name=workload.name, base_rss=workload.base_rss
    )
    records = [
        stream.feed(pack_workload(batch)) for batch in split_phases(workload, 4)
    ]
    assert_stream_matches_full(records, full, machine)


def test_run_stream_generator():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(6), machine)
    batches = split_phases(workload, 2)
    engine = Engine(machine, NoiseModel.silent())
    records = list(
        engine.run_stream(batches, name=workload.name, base_rss=workload.base_rss)
    )
    assert len(records) == len(batches)
    for index, record in enumerate(records):
        assert record.metadata["stream_batch"] == index
    full = Engine(machine, NoiseModel.silent()).run(workload)
    assert records[-1].duration == full.duration


@pytest.mark.parametrize("noisy", [False, True], ids=["silent", "noisy"])
def test_checkpoint_restore_is_bit_identical(noisy):
    machine = get_machine("stampede")
    workload = random_workload(np.random.default_rng(3), machine)
    batches = split_phases(workload, 4)
    cut = len(batches) // 2

    uninterrupted = Engine(machine, noise_for(noisy, 17)).open_stream(
        name=workload.name, base_rss=workload.base_rss
    )
    reference = [uninterrupted.feed(batch) for batch in batches]

    stream = Engine(machine, noise_for(noisy, 17)).open_stream(
        name=workload.name, base_rss=workload.base_rss
    )
    for batch in batches[:cut]:
        stream.feed(batch)
    # Full JSON round-trip: the checkpoint must survive serialisation.
    state = json.loads(json.dumps(stream.checkpoint()))
    resumed = EngineStream.restore(state)
    assert resumed.engine.machine.name == machine.name
    assert resumed.t == stream.t
    assert resumed.batches_done == cut

    tail = [resumed.feed(batch) for batch in batches[cut:]]
    for got, ref in zip(tail, reference[cut:]):
        assert_records_identical(got, ref)
    assert resumed.totals() == uninterrupted.totals()


def test_checkpoint_size_is_independent_of_demand_count():
    machine = get_machine("thinkie")
    stream = Engine(machine, NoiseModel.silent()).open_stream(name="bounded")
    sizes = []
    for seed in range(4):
        batch = random_workload(np.random.default_rng(seed), machine)
        stream.feed(batch)
        sizes.append(len(json.dumps(stream.checkpoint())))
    # O(distinct counter names): once every counter has appeared the
    # size stays flat apart from float digit-count jitter, regardless of
    # how many demands have streamed through.
    assert abs(sizes[-1] - sizes[-2]) < 64
    assert sizes[-1] < 8192


def test_restore_rejects_unknown_version():
    machine = get_machine("thinkie")
    stream = Engine(machine, NoiseModel.silent()).open_stream(name="v")
    state = stream.checkpoint()
    state["version"] = 999
    with pytest.raises(WorkloadError):
        EngineStream.restore(state)


def test_golden_checkpoint_resumes_the_uninterrupted_run():
    """A checkpoint saved by an earlier engine still restores, and its
    third batch equals the one an uninterrupted stream feeds."""
    uninterrupted = open_stream()
    reference = [uninterrupted.feed(batch) for batch in gromacs_batches()]
    state = json.loads(FIXTURE.read_text(encoding="utf-8"))
    resumed = EngineStream.restore(state)
    assert resumed.batches_done == 2
    assert_records_identical(resumed.feed(gromacs_batches()[2]), reference[2])
    assert resumed.totals() == uninterrupted.totals()


@pytest.mark.parametrize(
    "field, value",
    [("machine", None), ("counters", []), ("noise", None), ("metadata", 3),
     ("machine", "nowhere"), ("noise", {"rng": "x"})],
)
def test_restore_names_a_malformed_field(field, value):
    state = json.loads(FIXTURE.read_text(encoding="utf-8"))
    if value is None and field == "machine":
        del state[field]
    else:
        state[field] = value
    with pytest.raises(WorkloadError, match=f"field '{field}'"):
        EngineStream.restore(state)


GARBAGE = st.one_of(
    st.none(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_restoring_garbage_raises_workload_error(data):
    """Any field dropped or replaced: the restore works or says which
    field it could not read — never a bare ``KeyError`` or ``TypeError``."""
    state = json.loads(FIXTURE.read_text(encoding="utf-8"))
    field = data.draw(st.sampled_from(sorted(set(state) - {"version"})))
    if data.draw(st.booleans()):
        del state[field]
    else:
        state[field] = data.draw(GARBAGE)
    try:
        EngineStream.restore(state)
    except WorkloadError as exc:
        assert repr(field) in str(exc)


def test_stream_totals_track_time_and_peak():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(9), machine)
    stream = Engine(machine, NoiseModel.silent()).open_stream(
        name=workload.name, base_rss=workload.base_rss
    )
    for batch in split_phases(workload, 2):
        stream.feed(batch)
    totals = stream.totals()
    assert totals["time.runtime"] == stream.t
    assert "mem.peak" in totals


def _feed_peak(n_batches: int) -> int:
    """Traced peak bytes of feeding ``n_batches`` gromacs phase batches
    (iterations=20000, thinkie, noisy) through one stream, each record
    dropped as it is produced."""
    batches = gromacs_batches()
    stream = open_stream()
    stream.feed(batches[0])  # warm-up: first-feed allocations are not the stream
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(n_batches):
            stream.feed(batches[k % len(batches)])
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_the_stream_peak_does_not_grow_with_the_batches():
    """A stream carries O(counters) state between batches, so four times
    the batches peak at the same traced memory: 0.14 MB on 16 and
    0.13 MB on 64 (0.93×).  A stream that kept every record read
    0.30 MB and 0.91 MB (3.0×)."""
    small = _feed_peak(16)
    large = _feed_peak(64)
    assert large < 1.5 * small, (small, large)
