"""Property-based round-trip tests across the full pipeline.

The chain profile -> plan -> packed workload -> engine -> record must
conserve resources end to end for *arbitrary* profiles, not just the
ones our app models produce.  Hypothesis generates random profiles and
checks that every resource total survives the replay and that plan
samples replay as one barrier phase each, in order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SynapseConfig
from repro.core.plan import EmulationPlan
from repro.core.samples import Profile, Sample
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel

sample_values = st.fixed_dictionaries(
    {},
    optional={
        "cpu.cycles_used": st.floats(0, 1e10, allow_nan=False),
        "io.bytes_read": st.integers(0, 1 << 28).map(float),
        "io.bytes_written": st.integers(0, 1 << 28).map(float),
        "mem.allocated": st.integers(0, 1 << 26).map(float),
        "mem.freed": st.integers(0, 1 << 26).map(float),
        "net.bytes_written": st.integers(0, 1 << 22).map(float),
        "net.bytes_read": st.integers(0, 1 << 22).map(float),
    },
)

profiles = st.lists(sample_values, min_size=1, max_size=10).map(
    lambda values: Profile(
        command="random app",
        samples=[
            Sample(index=i, t=float(i), dt=1.0, values=dict(v))
            for i, v in enumerate(values)
        ],
    )
)

MACHINE = get_machine("thinkie")
CONFIG = SynapseConfig(atoms=("compute", "memory", "storage", "network"))


def replay_record(profile: Profile):
    plan = EmulationPlan.from_profile(profile)
    workload = plan.build_packed_workload(CONFIG, MACHINE)
    return plan, Engine(MACHINE, NoiseModel.silent()).run(workload)


@given(profiles)
@settings(max_examples=40, deadline=None)
def test_cycles_conserved_with_kernel_bias(profile):
    plan, record = replay_record(profile)
    target = plan.totals().cycles
    bias = MACHINE.cpu.spec("kernel.asm").cycle_bias
    consumed = record.totals().get("cpu.cycles_used", 0.0)
    # Emulator startup adds a small constant; everything else is the
    # calibrated-bias replay of the plan's cycle budget.
    startup = 5.0e7 / MACHINE.cpu.spec("app.startup").ipc
    assert consumed == pytest.approx(target * bias + startup, rel=1e-6, abs=1e3)


@given(profiles)
@settings(max_examples=40, deadline=None)
def test_bytes_conserved_exactly(profile):
    plan, record = replay_record(profile)
    totals = record.totals()
    expected = plan.totals()
    assert totals.get("io.bytes_read", 0.0) == pytest.approx(expected.read_bytes, abs=1)
    assert totals.get("io.bytes_written", 0.0) == pytest.approx(
        expected.write_bytes, abs=1
    )
    assert totals.get("mem.allocated", 0.0) == pytest.approx(expected.alloc_bytes, abs=1)
    assert totals.get("net.bytes_written", 0.0) == pytest.approx(expected.sent_bytes, abs=1)


@given(profiles)
@settings(max_examples=40, deadline=None)
def test_replay_order_preserved(profile):
    plan, record = replay_record(profile)
    bounds = record.phase_bounds
    # Monotone, gap-free phase chain: barrier semantics (§4.4).
    for (_, prev_end), (start, _) in zip(bounds, bounds[1:]):
        assert start == pytest.approx(prev_end)
    # One phase per non-empty plan sample plus the startup phase.
    non_empty = sum(1 for s in plan.samples if not s.work.empty)
    assert len(bounds) == non_empty + 1


@given(profiles, st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_regrid_invariant_replay(profile, factor):
    """Coarser plans consume identical totals (only concurrency differs)."""
    plan = EmulationPlan.from_profile(profile)
    merged = plan.regrid(factor)
    workload_a = plan.build_packed_workload(CONFIG, MACHINE)
    workload_b = merged.build_packed_workload(CONFIG, MACHINE)
    engine = Engine(MACHINE, NoiseModel.silent())
    totals_a = engine.run(workload_a).totals()
    totals_b = engine.run(workload_b).totals()
    for name in ("cpu.cycles_used", "io.bytes_read", "io.bytes_written"):
        assert totals_a.get(name, 0.0) == pytest.approx(totals_b.get(name, 0.0), rel=1e-9)
