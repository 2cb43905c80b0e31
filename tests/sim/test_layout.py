"""Lay out once, bind per machine; draw noise from the plan's table.

``Engine.prepare(w)`` is ``_bind(layout(w))``: the machine-free half of
a plan (:class:`~repro.sim.engine.Layout`) is worked out once and bound
to each machine, and a replay draws its noise only for the slots the
plan's draw table names.  Both are pinned here against the code they
replaced, kept in this file as the oracle:

* ``parent_prepare`` — one pass that bound, costed and laid out a
  packed workload for one machine at once.  A layout bound on every
  machine in turn must give, field by field, the plan it gave (and the
  plan a fresh ``prepare`` gives) for packed, object and streamed
  window workloads;
* ``parent_draw_noise`` — every slot scaled by ``exp(sigma · z)``, with
  ``z`` zero where nothing is drawn.  The table must give the same
  array bit for bit and leave every model at the same place in its
  stream, for blocks that mix sigma pairs and plans with zero slots.

Tier-1 runs a small derandomized set; the wide search is
``--hypothesis-profile=emulation-layout --hypothesis-seed=N``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_packed import assert_records_identical, random_workload
from test_stream import split_phases

from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.engine import _COUNTER_SLOTS, _KIND_COUNTERS, Engine, Layout
from repro.sim.machines import MACHINES, get_machine
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedWorkload, pack_workload

#: The wide search's profile (registered in ``tests/conftest.py``).
PROFILE = "emulation-layout"


def property_settings(examples: int):
    """Tier-1's derandomized set, or the loaded wide-search profile."""
    if settings.get_current_profile_name() == PROFILE:
        return settings.default
    return settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


# -- the parent's prepare (the oracle) --------------------------------------------


def parent_prepare(machine, p: PackedWorkload) -> dict:
    """The fields the one-pass ``Engine.prepare`` gave a packed workload
    on ``machine`` (every array as it made it)."""
    cpu, cores = machine.cpu, machine.cpu.cores
    streams = np.empty((p.stream_phase.size, 3), dtype=np.intp)
    streams[:, 0], streams[:, 1], streams[:, 2] = (
        p.stream_phase, p.stream_first, p.stream_end,
    )
    demand_phase = np.repeat(p.stream_phase, p.stream_end - p.stream_first)
    contention = np.ones(p.n)
    workers = np.minimum(p.c_threads, cores)
    costs: dict[int, dict[str, np.ndarray]] = {}
    if p.c_pos.size:
        specs = [cpu.spec(name) for name in p.class_names]
        cls = p.c_class
        ipc = np.array([s.ipc for s in specs])[cls]
        bias = np.array([s.cycle_bias for s in specs])[cls]
        ff = np.array([s.stall_front_fraction for s in specs])[cls]
        sr = np.where(
            np.isnan(p.c_sr), np.array([s.stall_ratio for s in specs])[cls], p.c_sr
        )
        factor, over = np.ones(workers.size), np.zeros(workers.size)
        for i, w in enumerate(workers.tolist()):
            if w > 1:
                scaling = machine.scaling_model(p.paradigm_names[p.c_paradigm[i]])
                factor[i] = scaling.time_factor(w)
                over[i] = scaling.overhead_cycles_fraction(w)
        with np.errstate(invalid="ignore"):
            has_cc = ~np.isnan(p.c_cc)
            cycles = np.where(has_cc, p.c_cc * bias, p.c_instr / ipc)
            instructions = np.where(has_cc, cycles * ipc, p.c_instr)
        cycles_total = cycles * (1.0 + over)
        instr_total = instructions * (1.0 + over)
        stalled = cycles_total * sr
        costs[0] = {
            "duration": (cycles / cpu.frequency) * factor,
            "cpu.instructions": instr_total,
            "cpu.cycles_used": cycles_total,
            "cpu.cycles_stalled_front": stalled * ff,
            "cpu.cycles_stalled_back": stalled * (1.0 - ff),
            "cpu.flops": instr_total * p.c_fpi,
        }
        c_stream = np.searchsorted(p.stream_first, p.c_pos, side="right") - 1
        seg_starts = np.concatenate(([0], np.flatnonzero(np.diff(c_stream)) + 1))
        seg_max = np.maximum.reduceat(workers.astype(float), seg_starts)
        phase_workers = np.bincount(
            p.stream_phase[c_stream[seg_starts]], weights=seg_max, minlength=p.n_phases
        )
        f_cpu = np.maximum(1.0, phase_workers / cores)
        contention[p.c_pos] = f_cpu[demand_phase[p.c_pos]]
    if p.i_pos.size:
        fss = [machine.filesystem(name) for name in p.fs_names]
        rlat = np.array([fs.read_latency for fs in fss])[p.i_fs]
        wlat = np.array([fs.write_latency for fs in fss])[p.i_fs]
        rblend = np.array([
            fs.cache_hit_fraction / fs.cache_bandwidth
            + (1.0 - fs.cache_hit_fraction) / fs.read_bandwidth
            for fs in fss
        ])[p.i_fs]
        wbw = np.array([fs.write_bandwidth for fs in fss])[p.i_fs]
        nread, nwritten = p.i_read.astype(float), p.i_written.astype(float)
        block = p.i_block.astype(float)
        read_time = np.where(
            nread > 0, np.ceil(nread / block) * rlat + nread * rblend, 0.0
        )
        write_time = np.where(
            nwritten > 0, np.ceil(nwritten / block) * wlat + nwritten / wbw, 0.0
        )
        costs[1] = {
            "duration": read_time + write_time,
            "io.bytes_read": nread, "io.bytes_written": nwritten,
        }
        n_fs = len(p.fs_names)
        i_stream = np.searchsorted(p.stream_first, p.i_pos, side="right") - 1
        pair = np.unique(i_stream * n_fs + p.i_fs)
        fs_streams = np.zeros((p.n_phases, n_fs))
        np.add.at(fs_streams, (p.stream_phase[pair // n_fs], pair % n_fs), 1.0)
        contention[p.i_pos] = np.maximum(1.0, fs_streams)[demand_phase[p.i_pos], p.i_fs]
    if p.m_pos.size:
        mem, alloc, freed, block = machine.memory, p.m_alloc, p.m_free, p.m_block
        alloc_time = np.where(
            alloc > 0,
            np.maximum(1, -(-alloc // block)) * mem.alloc_latency
            + alloc / mem.touch_bandwidth,
            0.0,
        )
        free_time = np.where(
            freed > 0, np.maximum(1, -(-freed // block)) * mem.free_latency, 0.0
        )
        costs[2] = {
            "duration": alloc_time + free_time,
            "mem.allocated": alloc.astype(float), "mem.freed": freed.astype(float),
        }
    if p.net_pos.size:
        nbytes = p.net_sent + p.net_recv
        costs[3] = {
            "duration": -(-nbytes // p.net_block) * machine.net_latency
            + nbytes / machine.net_bandwidth,
            "net.bytes_written": p.net_sent.astype(float),
            "net.bytes_read": p.net_recv.astype(float),
        }
    offsets = np.concatenate(([0], np.cumsum(_COUNTER_SLOTS[p.kinds] + 1)))
    bases = offsets[:-1]
    values = np.zeros(int(offsets[-1]))
    groups = {}
    positions = (p.c_pos, p.i_pos, p.m_pos, p.net_pos)
    for kind, kind_costs in costs.items():
        group_bases = bases[positions[kind]]
        values[group_bases] = kind_costs["duration"]
        for slot, name in enumerate(_KIND_COUNTERS[kind], start=1):
            values[group_bases + slot] = kind_costs[name]
        groups[kind] = group_bases
    values[bases[p.s_pos]] = p.s_secs
    values[bases] *= contention
    multi = workers > 1
    return {
        "name": p.name, "base_rss": float(p.base_rss), "metadata": dict(p.metadata),
        "n": p.n, "n_phases": p.n_phases, "streams": streams,
        "pos": (p.c_pos, p.i_pos, p.m_pos, p.net_pos, p.s_pos),
        "slot_values": values, "slot_bases": bases, "slot_groups": groups,
        "m_phase": demand_phase[p.m_pos],
        "m_deltas": (p.m_alloc - p.m_free).astype(float),
        "t_pos": p.c_pos[multi], "t_extra": workers[multi].astype(float) - 1.0,
        "i_read": p.i_read, "i_written": p.i_written, "i_block": p.i_block,
        "i_fs": np.asarray(p.fs_names, dtype=object)[p.i_fs],
    }


def same_array(got: np.ndarray, want: np.ndarray, name: str) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, name
    assert got.dtype == want.dtype or got.size == 0, name
    if got.dtype == object:
        assert got.tolist() == want.tolist(), name
    else:
        assert got.tobytes() == want.astype(got.dtype).tobytes(), name


def assert_plan_is(plan, want: dict, machine) -> None:
    """``plan`` holds exactly the parent's fields, read-only, plus the
    draw table those imply."""
    assert plan.machine is machine
    for name in ("name", "base_rss", "metadata", "n", "n_phases"):
        assert getattr(plan, name) == want[name], name
    for name in (
        "streams", "slot_values", "slot_bases", "m_phase", "m_deltas",
        "t_pos", "t_extra", "i_read", "i_written", "i_block", "i_fs",
    ):
        same_array(getattr(plan, name), want[name], name)
        assert not getattr(plan, name).flags.writeable, name
    for kind, (got, expect) in enumerate(zip(plan.pos, want["pos"], strict=True)):
        same_array(got, expect, f"pos[{kind}]")
    assert list(plan.slot_groups) == list(want["slot_groups"])
    for kind, group in want["slot_groups"].items():
        same_array(plan.slot_groups[kind], group, f"slot_groups[{kind}]")
    draws = np.flatnonzero(want["slot_values"] != 0.0)
    same_array(plan.draws, draws, "draws")
    durations = np.zeros(want["slot_values"].size, dtype=bool)
    durations[want["slot_bases"]] = True
    same_array(plan.draw_durations, durations[draws], "draw_durations")


def assert_same_plan(got, fresh) -> None:
    """Two plans of this code, field by field."""
    for name in (
        "machine", "name", "base_rss", "metadata", "n", "n_phases", "run_phases",
    ):
        assert getattr(got, name) == getattr(fresh, name), name
    for name in (
        "streams", "slot_values", "slot_bases", "draws", "draw_durations",
        "m_phase", "m_deltas", "t_pos", "t_extra", "i_read", "i_written",
        "i_block", "i_fs",
    ):
        same_array(getattr(got, name), getattr(fresh, name), name)
    for ours, theirs in zip(got.segments, fresh.segments, strict=True):
        assert type(ours) is type(theirs)
        for left, right in zip(ours, theirs, strict=True):
            assert np.array_equal(left, right)


# -- lay out once, bind per machine -------------------------------------------------

#: Every catalogue machine; the workloads use the filesystem all mount.
ALL_MACHINES = tuple(MACHINES)


def zero_phase(workload) -> None:
    """A phase of demands whose every amount is zero (slots that never
    draw), next to one that is not."""
    stream = workload.phase("zeros").stream("z")
    stream.add(SleepDemand(0.0))
    stream.add(IODemand(bytes_read=0, bytes_written=0))
    stream.add(MemoryDemand(allocate=0, free=0))
    stream.add(NetworkDemand(bytes_sent=0, bytes_received=1))
    stream.add(ComputeDemand(instructions=0.0, flops_per_instruction=0.5))


def drawn_workload(seed: int, zeros: bool):
    workload = random_workload(np.random.default_rng(seed), get_machine("thinkie"))
    if zeros:
        zero_phase(workload)
    return workload


@property_settings(25)
@given(
    seed=st.integers(0, 2**32 - 1),
    form=st.sampled_from(["object", "packed", "window"]),
    zeros=st.booleans(),
    order=st.permutations(ALL_MACHINES),
)
def test_a_layout_binds_to_the_parents_plan_on_every_machine(seed, form, zeros, order):
    workload = drawn_workload(seed, zeros)
    if form == "window":
        sources = [pack_workload(batch) for batch in split_phases(workload, 2)]
    elif form == "packed":
        sources = [pack_workload(workload)]
    else:
        sources = [workload]
    for source in sources:
        layout = Engine.layout(source)
        assert isinstance(layout, Layout)
        packed = source if isinstance(source, PackedWorkload) else pack_workload(source)
        for name in order:
            machine = get_machine(name)
            plan = Engine(machine).prepare(layout)
            assert_plan_is(plan, parent_prepare(machine, packed), machine)
            assert_same_plan(plan, Engine(machine).prepare(source))


@property_settings(10)
@given(seed=st.integers(0, 2**32 - 1), zeros=st.booleans())
def test_records_of_a_shared_layout_equal_fresh_runs(seed, zeros):
    workload = drawn_workload(seed, zeros)
    layout = Engine.layout(workload)
    for name in ALL_MACHINES:
        machine = get_machine(name)
        noise = dict(seed=seed % 1000, duration_sigma=0.02, counter_sigma=0.007)
        shared = Engine(machine, NoiseModel(**noise)).run(Engine(machine).prepare(layout))
        fresh = Engine(machine, NoiseModel(**noise)).run(pack_workload(workload))
        assert_records_identical(shared, fresh)


def test_binding_leaves_the_layout_as_it_was():
    layout = Engine.layout(drawn_workload(3, zeros=True))
    arrays = {
        name: getattr(layout, name).copy()
        for name in Layout.__slots__
        if isinstance(getattr(layout, name, None), np.ndarray)
    }
    plans = [Engine(get_machine(name)).prepare(layout) for name in ALL_MACHINES]
    for name, array in arrays.items():
        assert getattr(layout, name).tobytes() == array.tobytes(), name
    # Plans on different machines differ where the machines do.
    assert len({plan.slot_values.tobytes() for plan in plans}) > 1


# -- the draw table ---------------------------------------------------------------


def parent_draw_noise(plan, noises) -> np.ndarray:
    """The slot array under each model as the parent drew it."""
    values = plan.slot_values
    shape = (len(noises), values.size)
    if all(noise.silent_model for noise in noises):
        return np.broadcast_to(values, shape)
    is_duration = np.zeros(values.size, dtype=bool)
    is_duration[plan.slot_bases] = True
    sigmas = np.where(
        is_duration,
        np.array([[noise.duration_sigma] for noise in noises]),
        np.array([[noise.counter_sigma] for noise in noises]),
    )
    drawn = (values != 0.0) & (sigmas != 0.0)
    z = np.zeros(shape)
    for row, noise in enumerate(noises):
        z[row, drawn[row]] = noise.normals(int(np.count_nonzero(drawn[row])))
    return values * np.exp(sigmas * z)


#: A nonzero sigma: tiny, ordinary, and large enough to overflow a draw.
SIGMA = st.one_of(
    st.floats(1e-6, 0.5),
    st.sampled_from([1e-300, 0.01, 0.0033, 3.0, 400.0]),
)
#: One row of a block: its seed and its (duration, counter) sigmas, of
#: each shape — both, duration only, counter only, silent.
ROW = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["both", "duration", "counter", "silent"]),
    SIGMA,
    SIGMA,
)


def models(rows) -> list[NoiseModel]:
    out = []
    for seed, shape, duration, counter in rows:
        out.append(NoiseModel(
            seed=seed,
            duration_sigma=duration if shape in ("both", "duration") else 0.0,
            counter_sigma=counter if shape in ("both", "counter") else 0.0,
        ))
    return out


@property_settings(60)
@given(
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
    machine=st.sampled_from(ALL_MACHINES),
    rows=st.lists(ROW, min_size=1, max_size=6).flatmap(
        # Rows repeat a pair often: the table is built once per pair.
        lambda drawn: st.lists(st.sampled_from(drawn), min_size=1, max_size=8)
    ),
)
def test_the_draw_table_draws_what_the_parent_drew(seed, zeros, machine, rows):
    plan = Engine(get_machine(machine)).prepare(drawn_workload(seed, zeros))
    ours, theirs = models(rows), models(rows)
    with np.errstate(over="ignore", under="ignore"):
        got = Engine._draw_noise(plan, ours)
        want = parent_draw_noise(plan, theirs)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # Every model drew as many normals as the parent's twin did.
    for mine, twin in zip(ours, theirs):
        assert mine.normals(3).tobytes() == twin.normals(3).tobytes()


def test_a_silent_row_in_a_noisy_block_draws_nothing():
    plan = Engine(get_machine("comet")).prepare(drawn_workload(5, zeros=True))
    noisy = NoiseModel(seed=1, duration_sigma=0.05, counter_sigma=0.0)
    silent = NoiseModel(seed=1, duration_sigma=0.0, counter_sigma=0.0)
    block = Engine._draw_noise(plan, [noisy, silent])
    assert block[1].tobytes() == plan.slot_values.tobytes()
    untouched = np.ones(plan.slot_values.size, dtype=bool)
    untouched[plan.draws[plan.draw_durations]] = False
    assert block[0][untouched].tobytes() == plan.slot_values[untouched].tobytes()
