"""``Engine.run`` keeps the plan of the last object workload it ran.

The kept plan may be replayed only while the workload still packs to
it: the same name, base RSS and metadata, and the very same demand
objects in the same streams and phases.  The property edits one
workload between runs in every way a caller can — through the
builders, through the lists directly, with equal-valued twins — and
checks each record of one long-lived engine against a second engine
with the same seeded noise that prepares afresh every time.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_packed import assert_records_identical, random_workload

from repro.sim.demands import ComputeDemand, SleepDemand
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import Phase

MACHINE = get_machine("thinkie")

DEMANDS = st.one_of(
    st.sampled_from([0.0, 0.25, 1.0]).map(SleepDemand),
    st.sampled_from([1e6, 3e8]).map(lambda n: ComputeDemand(instructions=n)),
)
# Pairs that compare equal and print apart: ``==`` would alias them.
META_VALUES = st.sampled_from([0.0, -0.0, 1, 1.0, True, "x"])

# ``run`` is listed three times, so that runs often fall between two
# edits and a kept plan is checked against each edit on its own.
EDITS = (
    "run", "run", "run", "stream.add", "phase.stream", "workload.phase",
    "demands.append", "demands.del", "demands.set", "demands.twin",
    "demands.negative_zero", "phases.append", "phases.pop",
    "name", "base_rss", "metadata",
)


def _noise(seed: int) -> NoiseModel:
    return NoiseModel(seed=seed, duration_sigma=0.02, counter_sigma=0.007)


def _edit(workload, edit: str, pick: int, demand, value) -> None:
    """Apply one edit at position ``pick`` (taken modulo what there is
    to pick from); an edit with nothing to act on does nothing."""
    streams = [stream for phase in workload.phases for stream in phase.streams]
    filled = [stream for stream in streams if stream.demands]
    if edit == "stream.add" and streams:
        streams[pick % len(streams)].add(demand)
    elif edit == "phase.stream" and workload.phases:
        workload.phases[pick % len(workload.phases)].stream("new").add(demand)
    elif edit == "workload.phase":
        workload.phase("new").stream().add(demand)
    elif edit == "demands.append" and streams:
        streams[pick % len(streams)].demands.append(demand)
    elif edit.startswith("demands.") and filled:
        demands = filled[pick % len(filled)].demands
        i = pick % len(demands)
        if edit == "demands.del":
            del demands[i]
        elif edit == "demands.set":
            demands[i] = demand
        elif edit == "demands.twin":
            demands[i] = dataclasses.replace(demands[i])
        else:
            demands[i] = SleepDemand(-0.0)
    elif edit == "phases.append":
        phase = Phase(name="appended")
        phase.stream().add(demand)
        workload.phases.append(phase)
    elif edit == "phases.pop" and workload.phases:
        workload.phases.pop(pick % len(workload.phases))
    elif edit == "name":
        workload.name = ("rand", "".join("rand"), "other")[pick % 3]
    elif edit == "base_rss":
        workload.base_rss = (1 << 20, 3 << 20)[pick % 2]
    elif edit == "metadata":
        workload.metadata["ab"[pick % 2]] = value


def _twin_edits(first, twin):
    """Set a metadata item, run, then set it to an equal-valued twin."""
    return [("metadata", 0, SleepDemand(0.0), first), ("run", 0, None, None),
            ("metadata", 0, SleepDemand(0.0), twin)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    edits=st.lists(
        st.tuples(
            st.sampled_from(EDITS), st.integers(0, 7), DEMANDS, META_VALUES
        ),
        max_size=12,
    ),
)
@example(seed=0, edits=_twin_edits(0.0, -0.0))
@example(seed=0, edits=_twin_edits(1, 1.0))
@example(seed=0, edits=[("demands.negative_zero", 0, SleepDemand(0.0), None)])
def test_kept_plan_replays_exactly_what_a_fresh_plan_would(seed, edits):
    workload = random_workload(np.random.default_rng(seed), MACHINE)
    engine = Engine(MACHINE, _noise(seed))
    oracle = Engine(MACHINE, _noise(seed))

    def run() -> None:
        got = engine.run(workload)
        ref = oracle.run(oracle.prepare(workload))
        assert_records_identical(got, ref)
        assert repr(got.metadata) == repr(ref.metadata)

    run()
    for edit in edits:
        if edit[0] == "run":
            run()
        else:
            _edit(workload, *edit)
    run()
