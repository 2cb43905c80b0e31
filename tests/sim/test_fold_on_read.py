"""Fold on first read: a replay computes what a Tx reader needs and
leaves the counter and level folds to whoever first reads a series.

Pinned here:

* the property — the record digest (every series, bounds, I/O events)
  is the same whichever attribute is read first, in whichever row
  order, before or after a pickle round trip, and equals the digest of
  a fold forced immediately after the replay; ragged rows included;
* who folds and who does not — ``duration`` / ``phase_bounds`` /
  ``io_events`` / ``metadata`` leave the block unfolded, every other
  reader folds it, once; ``totals()`` and ``rusage()`` fold but build no
  per-row ``TimeSeries``; the stream folds at once;
* the deferred half is robust — a first read from several threads
  (a forced double fold included) assigns equal tables, a fold that
  raises leaves the block unfolded and re-raises with a note, and an
  unfolded block holds three arrays and the plan, all dead after the
  fold.
"""

from __future__ import annotations

import dataclasses
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_packed import random_workload
from test_replay_many import make_noises, record_digest, twin_streams

from repro.sim import engine as engine_module
from repro.sim.clock import VirtualClock
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.process import SimProcess
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.sinks import MemorySink
from repro.telemetry.spans import span

MACHINES = ("thinkie", "stampede", "comet", "archer")


def fold_counts() -> tuple[float, float]:
    counters = get_registry().snapshot()["counters"]
    return (
        counters.get("engine.fold.blocks", 0.0),
        counters.get("engine.fold.rows", 0.0),
    )


def folds_of(fn) -> tuple[float, float]:
    before = fold_counts()
    fn()
    return tuple(b - a for a, b in zip(before, fold_counts()))


def unfolded(record) -> bool:
    """Whether the replay block of an engine's record is still to fold."""
    return record.__dict__["_replay"][0]._pending is not None


#: First reads of a record; every one of them folds its block.
READS = {
    "counters": lambda r: r.counters,
    "levels": lambda r: r.levels,
    "block": lambda r: r.block,
    "row": lambda r: r.row,
    "tables": lambda r: r.tables(),
    "totals": lambda r: r.totals(),
    "counters_at": lambda r: r.counters_at(0.5 * r.duration),
    "counters_many": lambda r: r.counters_many(np.linspace(0.0, r.duration, 5)),
    "eq": lambda r: r == r,
    "replace": lambda r: dataclasses.replace(r, metadata={}),
    "pickle": lambda r: pickle.dumps(r),
    "rusage": lambda r: SimProcess(r, VirtualClock(), 0.0).rusage(),
}
#: Reads of what the replay itself computed: none of them folds.
TX_READS = {
    "duration": lambda r: r.duration,
    "phase_bounds": lambda r: r.phase_bounds,
    "io_events": lambda r: list(r.io_events),
    "metadata": lambda r: r.metadata,
}
ALL_READS = {**READS, **TX_READS}


def replay(machine, plan, specs) -> list:
    return Engine(machine).replay_many(plan, make_noises(specs))


def folded_at_once(machine, plan, specs) -> list[str]:
    """The digests of a replay whose fold is forced before anything else."""
    records = replay(machine, plan, specs)
    records[0].tables()
    assert not any(unfolded(record) for record in records)
    return [record_digest(record) for record in records]


# -- the property ----------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    machine_name=st.sampled_from(MACHINES),
    rows=st.sampled_from([1, 3, 8]),
    sigma=st.sampled_from([0.0, 0.003, 0.05]),
    data=st.data(),
)
def test_digest_is_the_same_whatever_is_read_first(seed, machine_name, rows, sigma, data):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    plan = Engine(machine).prepare(workload)
    specs = [(seed + row, sigma, sigma / 3.0) for row in range(rows)]
    want = folded_at_once(machine, plan, specs)

    records = replay(machine, plan, specs)
    order = data.draw(st.permutations(range(rows)))
    for row in order:
        for name in data.draw(st.lists(st.sampled_from(sorted(ALL_READS)), max_size=3)):
            ALL_READS[name](records[row])
    shipped = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    got = [
        record_digest(pickle.loads(pickle.dumps(record)) if ship else record)
        for record, ship in zip(records, shipped)
    ]
    assert got == want
    assert not any(unfolded(record) for record in records)


@pytest.mark.parametrize("first", sorted(READS))
def test_ragged_rows_resolve_whichever_read_comes_first(first):
    """The silent row of ``twin_streams`` leaves the block of the noisy
    ones; where a row ended up is found by the fold, for every reader."""
    machine = get_machine("thinkie")
    plan = Engine(machine).prepare(twin_streams())
    specs = [(1, 0.02, 0.007), (0, 0.0, 0.0), (2, 0.02, 0.007), (3, 0.02, 0.007)]
    want = folded_at_once(machine, plan, specs)
    records = replay(machine, plan, specs)
    assert folds_of(lambda: READS[first](records[2])) == (2, 4)
    assert folds_of(lambda: [READS[first](record) for record in records]) == (0, 0)
    assert [record_digest(record) for record in records] == want
    blocks = [record.block for record in records]
    assert blocks[0] is blocks[2] is blocks[3] is not blocks[1]
    assert [record.row for record in records] == [0, 0, 1, 2]
    assert len(blocks[0].durations) == 3 and len(blocks[1].durations) == 1


# -- who folds, who does not -----------------------------------------------------


def gromacs_like(machine):
    return Engine(machine).prepare(
        random_workload(np.random.default_rng(31), machine)
    )


@pytest.mark.parametrize("name", sorted(TX_READS))
def test_a_tx_reader_never_folds(name):
    machine = get_machine("comet")
    plan = gromacs_like(machine)
    records: list = []
    counts = folds_of(lambda: records.extend(
        replay(machine, plan, [(s, 0.02, 0.007) for s in range(4)])
    ))
    counts_read = folds_of(lambda: [TX_READS[name](record) for record in records])
    assert counts == counts_read == (0, 0)
    assert all(unfolded(record) for record in records)
    assert not {"counters", "levels", "block", "row"} & set(records[0].__dict__)


@pytest.mark.parametrize("name", sorted(READS))
def test_every_other_reader_folds_the_block_once(name):
    machine = get_machine("comet")
    plan = gromacs_like(machine)
    records = replay(machine, plan, [(s, 0.02, 0.007) for s in range(4)])
    assert folds_of(lambda: READS[name](records[1])) == (1, 4)
    assert folds_of(lambda: [READS[name](record) for record in records]) == (0, 0)
    assert not any(unfolded(record) for record in records)


@pytest.mark.parametrize("name", ["totals", "rusage", "counters_many", "tables"])
def test_table_readers_build_no_per_row_series(name):
    machine = get_machine("comet")
    (record,) = replay(machine, gromacs_like(machine), [(5, 0.02, 0.007)])
    READS[name](record)
    assert not unfolded(record)
    assert not {"counters", "levels"} & set(record.__dict__)


def test_totals_and_rusage_equal_the_series_they_stand_for():
    for machine_name in MACHINES:
        machine = get_machine(machine_name)
        for seed in range(6):
            plan = Engine(machine).prepare(
                random_workload(np.random.default_rng(seed), machine)
            )
            for record in replay(machine, plan, [(seed, 0.05, 0.02), (0, 0.0, 0.0)]):
                totals = record.totals()
                rusage = SimProcess(record, VirtualClock(), 0.0).rusage()
                want = {
                    name: ts.last() if len(ts) else 0.0
                    for name, ts in record.counters.items()
                }
                want.update({name: ts.max() for name, ts in record.levels.items()})
                want["time.runtime"] = record.duration
                assert totals == want and list(totals) == list(want)
                assert all(type(value) is float for value in totals.values())
                cycles = record.counters.get("cpu.cycles_used")
                cpu_seconds = (cycles.last() if cycles else 0.0) / machine.cpu.frequency
                assert rusage == {
                    "time.runtime": record.duration,
                    "time.utime": cpu_seconds,
                    "time.stime": 0.02 * cpu_seconds,
                    "mem.peak": record.levels["mem.peak"].max(),
                }
                # A record that holds its own series reads the same.
                shipped = pickle.loads(pickle.dumps(record))
                assert shipped.totals() == totals
                assert SimProcess(shipped, VirtualClock(), 0.0).rusage() == rusage


def test_the_stream_folds_at_once():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(3), machine)
    stream = Engine(machine, NoiseModel(seed=4, duration_sigma=0.02)).open_stream()
    records: list = []
    assert folds_of(lambda: records.append(stream.feed(workload))) == (1, 1)
    assert not unfolded(records[0]) and stream.totals()["time.runtime"] > 0.0


def test_fold_span_is_parented_under_the_first_reader():
    machine = get_machine("comet")
    records = replay(machine, gromacs_like(machine), [(s, 0.02, 0.007) for s in range(3)])
    sink = MemorySink()
    bus = get_bus()
    bus.add_sink(sink)
    try:
        with span("first.reader") as reader:
            records[1].totals()
        records[0].counters  # noqa: B018 - folded already: no second span
    finally:
        bus.remove_sink(sink)
    (fold,) = sink.named("engine.fold")
    assert (fold.attrs["rows"], fold.attrs["blocks"]) == (3, 1)
    assert fold.parent_id == reader.span_id


# -- the deferred half is robust -------------------------------------------------


def test_first_read_from_many_threads_is_the_fold_at_once():
    machine = get_machine("comet")
    plan = gromacs_like(machine)
    specs = [(s, 0.02, 0.007) for s in range(8)]
    want = folded_at_once(machine, plan, specs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            records = replay(machine, plan, specs)
            got: dict[int, str] = {}
            start = threading.Barrier(6)

            def read(at: int) -> None:
                start.wait(timeout=30)
                for row in range(at, 8, 6):
                    got[row] = record_digest(records[row])

            threads = [threading.Thread(target=read, args=(at,)) for at in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert [got[row] for row in range(8)] == want
            assert [record_digest(record) for record in records] == want
    finally:
        sys.setswitchinterval(interval)


def test_a_double_fold_is_harmless_and_bit_identical(monkeypatch):
    """Two readers inside the fold at once: both assign, equal tables."""
    machine = get_machine("comet")
    plan = gromacs_like(machine)
    specs = [(s, 0.02, 0.007) for s in range(4)]
    want = folded_at_once(machine, plan, specs)
    inside = threading.Barrier(2)
    fold_rows = engine_module._fold_rows

    def meeting(*args):
        inside.wait(timeout=30)  # nobody assigns before both are in
        return fold_rows(*args)

    monkeypatch.setattr(engine_module, "_fold_rows", meeting)
    records = replay(machine, plan, specs)
    got: dict[int, str] = {}

    def read(row: int) -> None:
        got[row] = record_digest(records[row])

    before = fold_counts()
    threads = [threading.Thread(target=read, args=(row,)) for row in (0, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert tuple(b - a for a, b in zip(before, fold_counts())) == (2, 8)
    assert [got[0], got[3]] == [want[0], want[3]]
    assert [record_digest(record) for record in records] == want


def test_a_fold_that_raises_leaves_the_block_unfolded(monkeypatch):
    machine = get_machine("comet")
    plan = gromacs_like(machine)
    specs = [(s, 0.02, 0.007) for s in range(3)]
    want = folded_at_once(machine, plan, specs)
    records = replay(machine, plan, specs)

    def broken(*args, **kwargs):
        raise RuntimeError("levels are broken")

    with monkeypatch.context() as patch:
        patch.setattr(engine_module.Engine, "_build_levels", staticmethod(broken))
        for read in (READS["counters"], READS["totals"], READS["block"]):
            with pytest.raises(RuntimeError, match="levels are broken") as raised:
                read(records[1])
            if hasattr(raised.value, "add_note"):  # 3.11+
                (note,) = getattr(raised.value, "__notes__", [])
                assert repr(plan.name) in note and "3 row(s)" in note
            assert all(unfolded(record) for record in records)
            assert not {"counters", "levels", "block", "row"} & set(records[1].__dict__)
    # Nothing was half assigned: the next read folds the whole block.
    assert folds_of(lambda: records[1].counters) == (1, 3)
    assert [record_digest(record) for record in records] == want


def test_an_unfolded_block_holds_what_the_fold_reads_until_it_folds():
    machine = get_machine("comet")
    plan = gromacs_like(machine)
    rows = 8
    records = replay(machine, plan, [(s, 0.02, 0.007) for s in range(rows)])
    block = records[0].__dict__["_replay"][0]
    held_plan, *arrays, window = block._pending
    assert held_plan is plan and len(arrays) == 3 and len(window) == 5
    assert all(
        array.size <= rows * plan.slot_values.size <= engine_module._BLOCK_ELEMENTS
        for array in arrays
    )
    dead = [weakref.ref(each) for each in (plan, *arrays)]
    del plan, held_plan, arrays
    gc.collect()
    assert all(ref() is not None for ref in dead)  # the block needs them
    records[5].totals()
    gc.collect()
    assert [ref() for ref in dead] == [None] * 4
    assert block._pending is None and block.series is records[0].block.series
