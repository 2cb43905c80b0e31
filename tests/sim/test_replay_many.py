"""``Engine.replay_many``: a block of seeds equals the seeds one by one.

The engine's only replay path folds all the noise models it is handed
as the rows of one ``(rows, demands)`` block.  The contract is exact:
row *r* of ``replay_many(plan, noises)`` is the record
``Engine(machine, noises[r]).run(plan)`` returns — every series array,
phase bound, I/O event, and so the record digest.  Pinned here on
randomised workloads and on the cases that decide how a block is cut:
rows whose breakpoint structure differs, plans over the element budget,
silent rows, a noise model passed twice, counters with zero amounts,
streams that finish in a different order from seed to seed, and draws
that under- or overflow.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_packed import assert_records_identical, random_workload

from repro.sim import engine as engine_module
from repro.sim.demands import ComputeDemand, IODemand, MemoryDemand, SleepDemand
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedBuilder, pack_workload
from repro.sim.workload import SimWorkload
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.sinks import MemorySink

MACHINES = ("thinkie", "stampede", "comet", "archer")


def record_digest(record) -> str:
    """SHA-256 over the full observable timeline of a record."""
    h = hashlib.sha256()
    h.update(np.float64(record.duration).tobytes())
    h.update(repr(record.phase_bounds).encode())
    for group in (record.counters, record.levels):
        for name in sorted(group):
            series = group[name]
            h.update(name.encode())
            h.update(series.times.tobytes())
            h.update(series.values.tobytes())
    for event in record.io_events:
        h.update(repr(tuple(event)).encode())
    return h.hexdigest()


def make_noises(specs) -> list[NoiseModel]:
    """Fresh noise models from ``(seed, duration_sigma, counter_sigma)``."""
    return [
        NoiseModel(seed=seed, duration_sigma=d_sigma, counter_sigma=c_sigma)
        for seed, d_sigma, c_sigma in specs
    ]


def assert_block_equals_singles(machine, plan, specs) -> list:
    """``replay_many`` over fresh models of ``specs`` against one
    ``run`` per fresh model; returns the block's records."""
    block = Engine(machine).replay_many(plan, make_noises(specs))
    singles = [Engine(machine, noise).run(plan) for noise in make_noises(specs)]
    assert len(block) == len(specs)
    for got, ref in zip(block, singles):
        assert_records_identical(got, ref)
        assert list(got.counters) == list(ref.counters)
        assert list(got.levels) == list(ref.levels)
        assert got.metadata == ref.metadata
        assert record_digest(got) == record_digest(ref)
    return block


def replay_counts() -> tuple[float, float, float]:
    counters = get_registry().snapshot()["counters"]
    return tuple(
        counters.get(f"engine.replay.{name}", 0.0)
        for name in ("blocks", "rows", "split_rows")
    )


def counts_of(fn) -> tuple[float, float, float]:
    before = replay_counts()
    fn()
    return tuple(b - a for a, b in zip(before, replay_counts()))


sigmas = st.sampled_from([0.0, 0.003, 0.02, 0.4])


# -- the property ----------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    machine_name=st.sampled_from(MACHINES),
    packed=st.booleans(),
    specs=st.lists(
        st.tuples(st.integers(0, 2**31 - 1), sigmas, sigmas),
        min_size=1, max_size=9,
    ),
)
def test_block_equals_one_run_per_noise_model(seed, machine_name, packed, specs):
    machine = get_machine(machine_name)
    workload = random_workload(np.random.default_rng(seed), machine)
    plan = Engine(machine).prepare(pack_workload(workload) if packed else workload)
    assert_block_equals_singles(machine, plan, specs)
    assert plan.replays == 2 * len(specs)


def test_run_is_a_one_row_block():
    machine = get_machine("thinkie")
    plan = Engine(machine).prepare(
        random_workload(np.random.default_rng(4), machine)
    )
    (row,) = Engine(machine).replay_many(plan, make_noises([(9, 0.02, 0.007)]))
    assert_records_identical(
        row, Engine(machine, *make_noises([(9, 0.02, 0.007)])).run(plan)
    )
    assert Engine(machine).replay_many(plan, []) == []


# -- how a block is cut ----------------------------------------------------------


def twin_streams() -> SimWorkload:
    """Two streams of identical demands: silent, every breakpoint of
    one coincides with the other's; under noise none does."""
    workload = SimWorkload(name="twins")
    phase = workload.phase("p")
    for name in ("a", "b"):
        stream = phase.stream(name)
        stream.add(ComputeDemand(instructions=4e8, workload_class="app.md"))
        stream.add(MemoryDemand(allocate=1 << 20))
        stream.add(ComputeDemand(instructions=2e8, workload_class="app.md", threads=4))
    return workload


def test_row_with_extra_coincident_breakpoints_leaves_the_block(monkeypatch):
    machine = get_machine("thinkie")
    plan = Engine(machine).prepare(twin_streams())
    specs = [(1, 0.02, 0.007), (0, 0.0, 0.0), (2, 0.02, 0.007), (3, 0.02, 0.007)]
    records: list = []
    counts = counts_of(
        lambda: records.extend(assert_block_equals_singles(machine, plan, specs))
    )
    # The silent row has fewer distinct breakpoints than the noisy ones.
    sizes = [len(record.counters["cpu.instructions"]) for record in records]
    assert sizes[1] < sizes[0] == sizes[2] == sizes[3]
    # One call of four rows: a block of three and a block of one; then
    # four runs of one row each.  Read after the series: the regrouping
    # is found, and counted, by the fold.
    assert counts == (2 + 4, 4 + 4, 1)
    unread: list = []
    replayed = counts_of(
        lambda: unread.extend(Engine(machine).replay_many(plan, make_noises(specs)))
    )
    assert replayed == (1, 4, 0)  # one rectangle, as far as a replay goes
    assert counts_of(lambda: unread[0].counters) == (1, 0, 1)
    # Cut by the budget as well: two chunks of four, the second ragged.
    # The replay counts the rows beyond its first chunk, each fold the
    # rows of its own chunk outside that chunk's largest group.
    monkeypatch.setattr(
        engine_module, "_BLOCK_ELEMENTS", 4 * plan.slot_values.size
    )
    cut = [(seed, 0.02, 0.007) for seed in range(4, 8)] + specs
    chunked: list = []
    replayed = counts_of(
        lambda: chunked.extend(Engine(machine).replay_many(plan, make_noises(cut)))
    )
    assert replayed == (2, 8, 4)
    assert counts_of(lambda: chunked[0].counters) == (0, 0, 0)
    assert counts_of(lambda: chunked[4].counters) == (1, 0, 1)
    singles = [Engine(machine, noise).run(plan) for noise in make_noises(cut)]
    assert [record_digest(r) for r in chunked] == [record_digest(r) for r in singles]


def test_plan_over_the_element_budget_replays_row_by_row():
    machine = get_machine("thinkie")
    builder = PackedBuilder("big")
    builder.phase("p")
    builder.stream("s")
    n = engine_module._BLOCK_ELEMENTS // 6
    builder.compute_many(
        instructions=np.full(n, 1e6), workload_class="app.md",
    )
    plan = Engine(machine).prepare(builder.build())
    assert 2 * plan.slot_values.size > engine_module._BLOCK_ELEMENTS
    specs = [(seed, 0.01, 0.003) for seed in range(3)]
    sink = MemorySink()
    bus = get_bus()
    bus.add_sink(sink)
    try:
        counts = counts_of(
            lambda: Engine(machine).replay_many(plan, make_noises(specs))
        )
    finally:
        bus.remove_sink(sink)
    assert counts == (3, 3, 2)
    (event,) = sink.named("engine.replay")
    assert (event.attrs["rows"], event.attrs["blocks"]) == (3, 3)
    assert_block_equals_singles(machine, plan, specs)


def test_small_plan_is_one_block():
    machine = get_machine("comet")
    plan = Engine(machine).prepare(
        random_workload(np.random.default_rng(12), machine)
    )
    specs = [(seed, 0.01, 0.003) for seed in range(8)]
    counts = counts_of(lambda: Engine(machine).replay_many(plan, make_noises(specs)))
    assert counts == (1, 8, 0)


# -- noise ------------------------------------------------------------------------


def test_silent_rows_are_the_silent_run():
    machine = get_machine("stampede")
    plan = Engine(machine).prepare(
        random_workload(np.random.default_rng(21), machine)
    )
    silent = Engine(machine).run(plan)
    rows = Engine(machine).replay_many(plan, [NoiseModel.silent() for _ in range(4)])
    for row in rows:
        assert_records_identical(row, silent)
    # A silent row among noisy ones comes through unscaled, too.
    assert_block_equals_singles(
        machine, plan, [(5, 0.02, 0.007), (0, 0.0, 0.0), (6, 0.02, 0.0)]
    )


def test_noise_model_passed_twice_continues_its_stream():
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(8), machine)
    plan = Engine(machine).prepare(workload)
    (noise,) = make_noises([(77, 0.02, 0.007)])
    block = Engine(machine).replay_many(plan, [noise, noise, noise])
    sequential = Engine(machine, *make_noises([(77, 0.02, 0.007)])).run_many(
        [workload, workload, workload]
    )
    for got, ref in zip(block, sequential):
        assert_records_identical(got, ref)
    assert block[0].duration != block[1].duration != block[2].duration


def test_counters_with_zero_amounts_keep_their_own_grids():
    machine = get_machine("thinkie")
    workload = SimWorkload(name="partial")
    stream = workload.phase("p").stream("s")
    for i in range(6):
        stream.add(IODemand(
            bytes_read=(1 << 20) if i % 2 else 0,
            bytes_written=0 if i % 3 else (1 << 18),
            block_size=1 << 16, filesystem=sorted(machine.filesystems)[0],
        ))
        stream.add(ComputeDemand(
            instructions=1e8, workload_class="app.md",
            flops_per_instruction=0.0 if i < 2 else 0.5,
        ))
        stream.add(MemoryDemand(allocate=(1 << 20) if i == 0 else 0, free=1 << 10))
    plan = Engine(machine).prepare(workload)
    records = assert_block_equals_singles(
        machine, plan, [(seed, 0.02, 0.007) for seed in range(5)]
    )
    counters = records[0].counters
    assert len(counters["cpu.flops"]) < len(counters["cpu.instructions"])
    assert len(counters["io.bytes_read"]) != len(counters["io.bytes_written"])
    # One accruing span: window start, span start, span end, window end.
    assert len(counters["mem.allocated"]) == 4


def test_stream_order_may_differ_between_rows():
    machine = get_machine("thinkie")
    workload = SimWorkload(name="race")
    phase = workload.phase("p")
    for name in ("a", "b", "c"):
        stream = phase.stream(name)
        for _ in range(3):
            stream.add(ComputeDemand(instructions=3e8, workload_class="app.md"))
            stream.add(SleepDemand(0.05))
    workload.phase("q").stream("s").add(SleepDemand(0.1))
    plan = Engine(machine).prepare(workload)
    specs = [(seed, 0.05, 0.01) for seed in range(8)]
    records: list = []
    counts = counts_of(
        lambda: records.extend(assert_block_equals_singles(machine, plan, specs))
    )
    assert counts[0] == 1 + len(specs)  # one block, then one per single run
    # Which stream finishes the phase last is not the same in every row.
    pos = plan.pos[0]
    noisy = Engine._draw_noise(plan, make_noises(specs))
    t0, _, _ = Engine._timeline(plan, noisy[:, plan.slot_bases])
    orders = {tuple(np.argsort(row[pos], kind="stable").tolist()) for row in t0}
    assert len(orders) > 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_draws_that_underflow_change_structure_not_results():
    """A counter sigma this absurd zeroes some amounts and overflows
    others, so rows differ in which spans accrue at all."""
    machine = get_machine("thinkie")
    workload = random_workload(np.random.default_rng(2), machine)
    plan = Engine(machine).prepare(workload)
    specs = [(seed, 0.01, 400.0) for seed in range(4)] + [(9, 0.01, 0.003)]
    block = Engine(machine).replay_many(plan, make_noises(specs))
    singles = [Engine(machine, noise).run(plan) for noise in make_noises(specs)]
    assert [record_digest(r) for r in block] == [record_digest(r) for r in singles]
    noisy = Engine._draw_noise(plan, make_noises(specs))
    live, planned = noisy != 0.0, plan.slot_values != 0.0
    assert (live[:4] != planned).any() and (live[4] == planned).all()
