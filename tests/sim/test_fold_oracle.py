"""The counter fold against the obvious per-row accumulation.

``Engine._build_counters`` folds every counter of every row of a replay
block at once.  What it must compute is, for one row and one counter,
the fold written out here: the distinct breakpoints (``np.unique``),
each span's rate added into its start breakpoint and taken out at its
end (``np.add.at``: a breakpoint's span ends before its span starts, the
entries of one bin added in span order from zero), and the running rate,
the raw value and the guard as left folds over the breakpoints.  The
property compares the two **byte for byte** on drawn blocks: ties and
coincident breakpoints, zero-length spans (the ``1e-12`` clamp), rows
whose points sort in another order than the first row's, carried
``(raw, guarded, rate)`` starts (``-0.0`` among them), single rows,
amounts that are zero in some row or whose rate underflows to zero, and
lane caps smaller than a grid's counters.

Wide search (the ``fold`` profile, registered in ``tests/conftest.py``)::

    PYTHONPATH=src python -m pytest -q tests/sim/test_fold_oracle.py \
        --hypothesis-profile=fold --hypothesis-seed=1
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import engine as engine_module
from repro.sim.demands import ComputeDemand, IODemand, MemoryDemand, NetworkDemand
from repro.sim.engine import _KIND_COUNTERS, Engine, _Ragged
from repro.sim.machines import get_machine
from repro.sim.workload import SimWorkload

#: The wide search's profile (registered in ``tests/conftest.py``).
PROFILE = "fold"


def property_settings(examples: int) -> settings:
    """Tier-1's derandomized set, or the loaded wide-search profile."""
    if settings.get_current_profile_name() == PROFILE:
        return settings.default
    return settings(max_examples=examples, deadline=None, derandomize=True)


# -- the oracle ----------------------------------------------------------------


def fold_one(t0, t1, amounts, t_lo, t_hi, carry):
    """One row's one counter over spans ``[t0, t1)`` accruing ``amounts``
    in the window ``[t_lo, t_hi]``: its breakpoints, its cumulative
    values there and its end carry ``(raw, guarded, rate)``."""
    k = t0.size
    t1 = np.maximum(t1, t0 + 1e-12)
    bps, at = np.unique(np.concatenate(([t_lo, t_hi], t0, t1)), return_inverse=True)
    at = at.ravel()
    starts, ends = at[2 : 2 + k], at[2 + k :]
    rates = amounts / (t1 - t0)
    bins = np.zeros((bps.size, 2))  # per breakpoint: what ends, then what starts
    np.add.at(bins, (ends, 0), -rates)
    np.add.at(bins, (starts, 1), rates)
    active = np.zeros(bps.size, dtype=int)
    np.add.at(active, starts, 1)
    np.add.at(active, ends, -1)
    raw, guarded, rate = (np.float64(value) for value in carry)
    values, live = [raw], 0
    for j in range(bps.size):
        rate = rate + bins[j, 0]
        rate = rate + bins[j, 1]
        live += active[j]
        if j + 1 < bps.size:
            # An interval no span covers accrues exactly nothing.
            raw = raw + (rate * (bps[j + 1] - bps[j]) if live else 0.0)
            values.append(raw)
    level = None
    for at_j, value in enumerate(values):
        value = np.maximum(value, guarded)
        level = value if level is None else np.maximum(level, value)
        values[at_j] = level
    return bps, np.array(values), np.array([raw, level, rate])


def oracle(plan, t0, t1, noisy, t_lo, t_hi, initial):
    """``_build_counters``' tables and carries, row by row, counter by
    counter: each counter folds over the spans it accrues on."""
    rows = len(noisy)
    names: dict[str, list] = {}
    for kind, bases in plan.slot_groups.items():
        pos = plan.pos[kind]
        for lane, name in enumerate(_KIND_COUNTERS[kind], start=1):
            per_row = []
            for row in range(rows):
                amounts = noisy[row, bases + lane]
                live = amounts != 0.0
                carry = initial.get(name, (0.0, 0.0, 0.0))
                if live.any():
                    cols = pos[live]
                    per_row.append(fold_one(
                        t0[row, cols], t1[row, cols], amounts[live],
                        t_lo, t_hi[row], carry,
                    ))
                else:
                    per_row.append(flat(t_lo, t_hi[row], carry))
            names[name] = per_row
    for name in set(initial).difference(names):
        names[name] = [flat(t_lo, t_hi[row], initial[name]) for row in range(rows)]
    return {name: names[name] for name in sorted(names)}


def flat(t_lo, t_hi, carry):
    """A counter that accrues nothing in the window: its level, held."""
    return np.array([t_lo, t_hi]), np.full(2, carry[1]), np.array(carry, dtype=float)


def fold_block(plan, t0, t1, noisy, t_lo, t_hi, initial):
    """``_build_counters`` over the block, regrouped the way
    ``_fold_rows`` regroups rows that do not fit one rectangle: per
    folded group, its rows, tables and carries."""
    try:
        tables, carries = Engine._build_counters(plan, t0, t1, noisy, t_lo, t_hi, initial)
    except _Ragged as ragged:
        assert len(np.unique(ragged.keys)) > 1
        groups = []
        for key in np.unique(ragged.keys):
            rows = np.flatnonzero(ragged.keys == key)
            for members, *out in fold_block(
                plan, t0[rows], t1[rows], noisy[rows], t_lo, t_hi[rows], initial
            ):
                groups.append((rows[members], *out))
        return groups
    return [(np.arange(len(noisy)), tables, carries)]


# -- the draw ------------------------------------------------------------------

DEMANDS = {
    "compute": lambda: ComputeDemand(instructions=1e8, workload_class="app.md"),
    "io": lambda: IODemand(bytes_read=1 << 20, bytes_written=1 << 18, filesystem="local"),
    "memory": lambda: MemoryDemand(allocate=1 << 20, free=1 << 10),
    "network": lambda: NetworkDemand(bytes_sent=1 << 16, bytes_received=1 << 15),
}
MACHINE = get_machine("thinkie")
CARRIES = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, 1e6, 3e-9])
NAMES = sorted(name for names in _KIND_COUNTERS.values() for name in names)


@st.composite
def blocks(draw):
    """A plan of 1–5 demands and a block of 1–5 rows of spans on it.

    Span points sit on a lattice of quarters, so that breakpoints tie and
    spans end where others start; a span may have no length, or end
    before it starts (the clamp makes both ``t0 + 1e-12``).  Every row
    maps the lattice through a permutation of its own — the identity for
    the first row and often for the others — so that ties stay ties
    while the points sort in another order; or the row draws its points
    afresh, which may change its breakpoint count.
    """
    kinds = draw(st.lists(st.sampled_from(sorted(DEMANDS)), min_size=1, max_size=5))
    workload = SimWorkload(name="fold")
    stream = workload.phase("p").stream("s")
    for kind in kinds:
        stream.add(DEMANDS[kind]())
    plan = Engine(MACHINE).prepare(workload)
    n = len(kinds)
    rows = draw(st.integers(1, 5))
    lattice = np.array(sorted(draw(st.sets(st.integers(0, 40), min_size=2, max_size=8)))) / 4.0
    q = lattice.size
    index = st.integers(0, q - 1)
    spans = np.array(draw(st.lists(st.tuples(index, index), min_size=n, max_size=n)))
    ends = np.array(draw(st.lists(index, min_size=rows, max_size=rows)))
    t_lo = float(lattice[draw(index)])
    t0 = np.empty((rows, n))
    t1 = np.empty((rows, n))
    t_hi = np.empty(rows)
    for row in range(rows):
        how = draw(st.sampled_from(["same", "permuted", "fresh"])) if row else "same"
        if how == "fresh":
            spans = np.array(draw(st.lists(st.tuples(index, index), min_size=n, max_size=n)))
        mapping = np.arange(q) if how != "permuted" else np.array(draw(st.permutations(range(q))))
        t0[row] = lattice[mapping[spans[:, 0]]]
        t1[row] = lattice[mapping[spans[:, 1]]]
        t_hi[row] = lattice[mapping[ends[row]]]
    # (5e-324 over a span's length underflows to a rate of zero)
    amount = st.floats(1e-3, 1e9) | st.floats(-1e9, -1e-3) | st.sampled_from([1.0, 3.0, 5e-324, -5e-324])
    noisy = np.array(draw(st.lists(
        st.lists(amount, min_size=plan.slot_values.size, max_size=plan.slot_values.size),
        min_size=rows, max_size=rows,
    )))
    # Some counters accrue nothing on some spans — in every row, or
    # (a draw that underflowed) in one row only.
    zeros = draw(st.lists(st.integers(0, plan.slot_values.size - 1), max_size=3))
    noisy[:, zeros] = 0.0
    if rows > 1 and draw(st.booleans()):
        noisy[draw(st.integers(1, rows - 1)), draw(st.integers(0, plan.slot_values.size - 1))] = 0.0
    initial = draw(st.dictionaries(
        st.sampled_from(NAMES), st.tuples(CARRIES, CARRIES, CARRIES), max_size=4,
    ))
    lanes = draw(st.sampled_from([None, 1, 2, 3]))
    return plan, t0, t1, noisy, t_lo, t_hi, initial, lanes


def negative_zero_case():
    """One span whose rate underflows to -0.0, folded from a carried
    ``-0.0`` rate and raw value: a bin adds from +0.0, so the interval
    accrues +0.0 and the raw value turns +0.0."""
    workload = SimWorkload(name="fold")
    workload.phase("p").stream("s").add(DEMANDS["compute"]())
    plan = Engine(MACHINE).prepare(workload)
    noisy = np.ones((1, plan.slot_values.size))
    noisy[0, plan.slot_groups[0][0] + 1] = -5e-324
    initial = {"cpu.instructions": (-0.0, -1.0, -0.0)}
    return plan, np.zeros((1, 1)), np.full((1, 1), 2.0), noisy, 0.0, np.full(1, 3.0), initial, None


def assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64, what
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (what, got, want)


def assert_folds_as_the_oracle(case):
    plan, t0, t1, noisy, t_lo, t_hi, initial, lanes = case
    rows, n = t0.shape
    # At most ``lanes`` counters a call on a grid of every span, however
    # small the grid.
    cap = lanes * rows * (2 * n + 2) if lanes else engine_module._FOLD_ELEMENTS
    with mock.patch.object(engine_module, "_FOLD_ELEMENTS", cap):
        groups = fold_block(plan, t0, t1, noisy, t_lo, t_hi, initial)
    want = oracle(plan, t0, t1, noisy, t_lo, t_hi, initial)
    seen = np.concatenate([members for members, _, _ in groups])
    assert sorted(seen.tolist()) == list(range(rows))
    for members, tables, carries in groups:
        assert list(tables) == list(carries) == list(want)
        for at, row in enumerate(members.tolist()):
            for name, per_row in want.items():
                times, values, ends = per_row[row]
                what = f"row {row} of {rows}, {name}"
                assert_same_bytes(tables[name][0][at], times, what + " times")
                assert_same_bytes(tables[name][1][at], values, what + " values")
                assert_same_bytes(carries[name][at], ends, what + " carries")


@property_settings(300)
@given(case=blocks())
def test_the_block_fold_is_the_per_row_fold(case):
    assert_folds_as_the_oracle(case)


def test_a_carried_negative_zero_rate_folds_from_zero():
    assert_folds_as_the_oracle(negative_zero_case())
