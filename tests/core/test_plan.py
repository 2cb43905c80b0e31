"""Emulation plan tests: conservation, order, malleability."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atoms.base import AtomWork
from repro.core.config import SynapseConfig
from repro.core.errors import EmulationError
from repro.core.plan import EmulationPlan, PlanColumns, PlanSample
from repro.core.samples import Profile, Sample
from repro.sim.packed import KIND_COMPUTE, KIND_IO, KIND_MEM, KIND_SLEEP


def profile_from_values(values_per_sample) -> Profile:
    samples = [
        Sample(index=i, t=float(i), dt=1.0, values=dict(vals))
        for i, vals in enumerate(values_per_sample)
    ]
    return Profile(command="planned app", tags=("t=1",), samples=samples)


sample_values = st.fixed_dictionaries(
    {},
    optional={
        "cpu.cycles_used": st.floats(0, 1e10, allow_nan=False),
        "cpu.flops": st.floats(0, 1e9, allow_nan=False),
        "io.bytes_read": st.integers(0, 1 << 30).map(float),
        "io.bytes_written": st.integers(0, 1 << 30).map(float),
        "mem.allocated": st.integers(0, 1 << 28).map(float),
        "mem.freed": st.integers(0, 1 << 28).map(float),
    },
)


# -- per-sample oracles ------------------------------------------------------
#
# The plan code as it stood before the plan became columnar (PR 19): one
# ``AtomWork`` per sample, built and combined in Python.  The columnar
# plan must hand out exactly these samples.


def from_profile_per_sample(profile: Profile) -> list[PlanSample]:
    samples = []
    for sample in profile.samples:
        get = sample.values.get

        def positive(name: str) -> float:
            value = get(name, 0.0)
            return value if value > 0.0 else 0.0

        work = AtomWork(
            cycles=positive("cpu.cycles_used"),
            flops=positive("cpu.flops"),
            alloc_bytes=int(positive("mem.allocated")),
            free_bytes=int(positive("mem.freed")),
            read_bytes=int(positive("io.bytes_read")),
            write_bytes=int(positive("io.bytes_written")),
            sent_bytes=int(positive("net.bytes_written")),
            received_bytes=int(positive("net.bytes_read")),
        )
        samples.append(PlanSample(index=sample.index, work=work))
    return samples


def totals_per_sample(samples) -> AtomWork:
    total = AtomWork()
    for sample in samples:
        total = total + sample.work
    return total


def scaled_per_sample(samples, cpu=1.0, io=1.0, mem=1.0, net=1.0) -> list[PlanSample]:
    return [
        PlanSample(
            index=s.index,
            work=AtomWork(
                cycles=s.work.cycles * cpu,
                flops=s.work.flops * cpu,
                alloc_bytes=int(s.work.alloc_bytes * mem),
                free_bytes=int(s.work.free_bytes * mem),
                read_bytes=int(s.work.read_bytes * io),
                write_bytes=int(s.work.write_bytes * io),
                sent_bytes=int(s.work.sent_bytes * net),
                received_bytes=int(s.work.received_bytes * net),
            ),
        )
        for s in samples
    ]


def regrid_per_sample(samples, factor: int) -> list[PlanSample]:
    merged: list[PlanSample] = []
    for start in range(0, len(samples), factor):
        merged.append(
            PlanSample(index=len(merged), work=totals_per_sample(samples[start : start + factor]))
        )
    return merged


def assert_same_samples(got, expected) -> None:
    """Field for field, bit for bit (``==`` would let -0.0 pass as 0.0)."""
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for left, right in zip(got, expected):
        assert left.index == right.index
        for name in AtomWork.__dataclass_fields__:
            a, b = getattr(left.work, name), getattr(right.work, name)
            assert a == b and math.copysign(1.0, a) == math.copysign(1.0, b), name


#: Counter deltas as a stored document may hold them: absent, negative
#: (clock noise), NaN, integral or fractional.
quantum = st.one_of(
    st.floats(-1e6, 1e15),
    st.just(float("nan")),
    st.integers(0, 1 << 40).map(float),
    st.just(0.0),
    st.just(-0.0),
)
any_sample_values = st.dictionaries(
    st.sampled_from([
        "cpu.cycles_used", "cpu.flops", "mem.allocated", "mem.freed",
        "io.bytes_read", "io.bytes_written", "net.bytes_written",
        "net.bytes_read", "mem.rss", "time.runtime",
    ]),
    quantum,
)
profiles = st.lists(
    st.tuples(st.integers(0, 10_000), any_sample_values), min_size=1, max_size=20
).map(
    lambda rows: Profile(
        command="generated",
        samples=[
            # Non-contiguous indices: a truncated or filtered document.
            Sample(index=index, t=float(i), dt=1.0, values=values)
            for i, (index, values) in enumerate(rows)
        ],
    )
)
scale = st.sampled_from([0.0, 0.5, 1.0, 2.0, 1.0 / 3.0, 3, 1e3])


class TestColumnarPlanEqualsPerSampleOracle:
    @given(profiles)
    @settings(max_examples=150)
    def test_from_profile(self, profile):
        plan = EmulationPlan.from_profile(profile)
        expected = from_profile_per_sample(profile)
        assert_same_samples(plan.samples, expected)
        assert plan.samples == expected
        assert plan.n_samples == len(plan.samples) == len(expected)
        assert plan.info["source_samples"] == profile.n_samples
        assert plan.info["source_tx"] == profile.tx

    def test_all_empty_samples(self):
        profile = profile_from_values([{}, {"mem.rss": 5.0}, {"cpu.flops": -1.0}])
        plan = EmulationPlan.from_profile(profile)
        assert_same_samples(plan.samples, from_profile_per_sample(profile))
        assert plan.totals().empty
        assert plan.build_packed_workload(SynapseConfig()).n_phases == 1

    @given(profiles, scale, scale, scale, scale)
    @settings(max_examples=100)
    def test_scaled(self, profile, cpu, io, mem, net):
        plan = EmulationPlan.from_profile(profile)
        got = plan.scaled(cpu=cpu, io=io, mem=mem, net=net)
        assert_same_samples(
            got.samples, scaled_per_sample(list(plan.samples), cpu, io, mem, net)
        )
        assert got.info["scaled"] == {"cpu": cpu, "io": io, "mem": mem, "net": net}
        assert "scaled" not in plan.info

    @given(profiles, st.integers(1, 25))
    @settings(max_examples=100)
    def test_regrid(self, profile, factor):
        plan = EmulationPlan.from_profile(profile)
        got = plan.regrid(factor)
        assert_same_samples(got.samples, regrid_per_sample(list(plan.samples), factor))
        assert got.sample_rate == plan.sample_rate / factor

    @given(profiles)
    @settings(max_examples=100)
    def test_totals(self, profile):
        plan = EmulationPlan.from_profile(profile)
        expected = PlanSample(0, totals_per_sample(list(plan.samples)))
        assert_same_samples([PlanSample(0, plan.totals())], [expected])

    def test_float_sums_are_sequential_not_pairwise(self):
        """Twenty values whose pairwise and left-to-right sums differ."""
        cycles = [1e16, 1.0, -1e16 + 3.0, 1.0] * 5
        samples = [PlanSample(i, AtomWork(cycles=c)) for i, c in enumerate(cycles)]
        plan = EmulationPlan(samples=samples)
        assert plan.totals().cycles == totals_per_sample(samples).cycles
        assert_same_samples(plan.regrid(9).samples, regrid_per_sample(samples, 9))


class TestPlanColumns:
    SAMPLES = [
        PlanSample(3, AtomWork(cycles=2.5, flops=1.0, read_bytes=7)),
        PlanSample(9, AtomWork()),
        PlanSample(4, AtomWork(alloc_bytes=1 << 40, sent_bytes=5, received_bytes=6)),
    ]

    def test_list_of_samples_round_trips_through_the_columns(self):
        plan = EmulationPlan(samples=list(self.SAMPLES), command="cmd")
        assert isinstance(plan.samples, PlanColumns)
        assert_same_samples(plan.samples, self.SAMPLES)
        assert plan.samples == self.SAMPLES
        assert plan.samples[1] == self.SAMPLES[1]
        assert plan.samples[-1] == self.SAMPLES[-1]
        assert plan.samples[1:] == self.SAMPLES[1:]
        assert plan.samples[::-1] == self.SAMPLES[::-1]
        assert len(plan.samples) == plan.n_samples == 3
        assert isinstance(plan.samples[0].work.cycles, float)
        assert isinstance(plan.samples[0].work.read_bytes, int)
        assert plan.samples.index.tolist() == [3, 9, 4]
        with pytest.raises(IndexError):
            plan.samples[3]

    def test_plans_compare_by_value(self):
        plan = EmulationPlan(samples=list(self.SAMPLES), command="cmd")
        assert plan == EmulationPlan(samples=list(self.SAMPLES), command="cmd")
        assert plan != EmulationPlan(samples=self.SAMPLES[:2], command="cmd")
        assert plan != EmulationPlan(samples=list(self.SAMPLES), command="other")
        assert plan.samples != self.SAMPLES[::-1]

    def test_a_plan_pickles(self, gromacs_profile):
        plan = EmulationPlan.from_profile(gromacs_profile).scaled(cpu=2.0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert_same_samples(clone.samples, plan.samples)
        assert clone.info == plan.info
        config = SynapseConfig()
        ours = clone.build_packed_workload(config).column_arrays()
        theirs = plan.build_packed_workload(config).column_arrays()
        assert ours.keys() == theirs.keys()
        for name, column in ours.items():
            assert column.tobytes() == theirs[name].tobytes(), name

    def test_mismatched_columns_rejected(self):
        with pytest.raises(EmulationError):
            PlanColumns([0, 1], *([0] for _ in range(8)))
        with pytest.raises(EmulationError):
            PlanColumns([0], [0.0])

    def test_empty_plan(self):
        plan = EmulationPlan(samples=[])
        assert plan.n_samples == 0 and list(plan.samples) == []
        assert plan.totals() == AtomWork()
        assert plan.regrid(2).n_samples == 0
        assert plan.scaled(cpu=2.0).n_samples == 0


class TestConstruction:
    def test_empty_profile_rejected(self):
        with pytest.raises(EmulationError):
            EmulationPlan.from_profile(Profile(command="x"))

    def test_order_preserved(self):
        profile = profile_from_values([{"cpu.cycles_used": float(i)} for i in range(5)])
        plan = EmulationPlan.from_profile(profile)
        assert [s.index for s in plan.samples] == [0, 1, 2, 3, 4]
        assert [s.work.cycles for s in plan.samples] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_negative_deltas_clamped(self):
        profile = profile_from_values([{"cpu.cycles_used": -5.0, "io.bytes_read": -1.0}])
        plan = EmulationPlan.from_profile(profile)
        assert plan.samples[0].work.cycles == 0.0
        assert plan.samples[0].work.read_bytes == 0

    def test_nan_deltas_clamped(self):
        nan = float("nan")
        profile = profile_from_values([{"cpu.cycles_used": nan, "mem.freed": nan}])
        work = EmulationPlan.from_profile(profile).samples[0].work
        assert work.cycles == 0.0 and work.free_bytes == 0

    @pytest.mark.parametrize("metric", ["cpu.cycles_used", "cpu.flops", "io.bytes_read",
                                        "net.bytes_read"])
    def test_infinite_quantum_rejected(self, metric):
        """A corrupted stored document: named, not a bare OverflowError
        (and never an int64 that wrapped)."""
        profile = Profile(command="planned app", samples=[
            Sample(0, 0.0, 1.0, {metric: 1.0}),
            Sample(1, 1.0, 1.0, {metric: 2.0}),
            Sample(17, 2.0, 1.0, {metric: float("inf")}),
        ])
        with pytest.raises(EmulationError, match=f"sample 17: {metric}"):
            EmulationPlan.from_profile(profile)

    def test_negative_infinity_clamps_like_any_negative(self):
        profile = profile_from_values([{"io.bytes_read": float("-inf")}])
        assert EmulationPlan.from_profile(profile).samples[0].work.read_bytes == 0

    def test_byte_count_beyond_int64_rejected(self):
        profile = profile_from_values([{"mem.allocated": 2.0**63}])
        with pytest.raises(EmulationError, match="sample 0: mem.allocated"):
            EmulationPlan.from_profile(profile)
        plan = EmulationPlan.from_profile(profile_from_values([{"mem.allocated": 2.0**62}]))
        assert plan.samples[0].work.alloc_bytes == 1 << 62
        with pytest.raises(EmulationError):
            plan.scaled(mem=4.0)
        two = EmulationPlan(samples=[plan.samples[0], plan.samples[0]])
        with pytest.raises(EmulationError):
            two.regrid(2)
        assert two.totals().alloc_bytes == 1 << 63

    def test_metadata_carried(self):
        profile = profile_from_values([{"cpu.cycles_used": 1.0}])
        plan = EmulationPlan.from_profile(profile)
        assert plan.command == "planned app"
        assert plan.tags == ("t=1",)

    @given(st.lists(sample_values, min_size=1, max_size=12))
    @settings(max_examples=50)
    def test_conservation_property(self, values):
        """Plan totals equal profile totals per resource (core invariant)."""
        profile = profile_from_values(values)
        plan = EmulationPlan.from_profile(profile)
        totals = plan.totals()
        expected = profile.totals()
        assert totals.cycles == pytest.approx(expected.get("cpu.cycles_used", 0.0))
        assert totals.read_bytes == int(expected.get("io.bytes_read", 0.0))
        assert totals.write_bytes == int(expected.get("io.bytes_written", 0.0))
        assert totals.alloc_bytes == int(expected.get("mem.allocated", 0.0))


class TestMalleability:
    def test_scaled_cpu_only(self):
        profile = profile_from_values([{"cpu.cycles_used": 10.0, "io.bytes_read": 100.0}])
        plan = EmulationPlan.from_profile(profile).scaled(cpu=2.0)
        assert plan.totals().cycles == pytest.approx(20.0)
        assert plan.totals().read_bytes == 100

    def test_scaled_negative_rejected(self):
        profile = profile_from_values([{"cpu.cycles_used": 1.0}])
        plan = EmulationPlan.from_profile(profile)
        with pytest.raises(EmulationError):
            plan.scaled(cpu=-1.0)

    def test_regrid_conserves_totals(self):
        profile = profile_from_values(
            [{"cpu.cycles_used": float(i), "io.bytes_written": 10.0} for i in range(7)]
        )
        plan = EmulationPlan.from_profile(profile)
        merged = plan.regrid(3)
        assert merged.n_samples == 3
        assert merged.totals().cycles == pytest.approx(plan.totals().cycles)
        assert merged.totals().write_bytes == plan.totals().write_bytes

    def test_regrid_factor_one_identity(self):
        profile = profile_from_values([{"cpu.cycles_used": 1.0}] * 3)
        plan = EmulationPlan.from_profile(profile)
        assert plan.regrid(1).n_samples == plan.n_samples

    def test_regrid_invalid(self):
        profile = profile_from_values([{"cpu.cycles_used": 1.0}])
        with pytest.raises(EmulationError):
            EmulationPlan.from_profile(profile).regrid(0)


def phase_streams(packed, phase: int) -> list[list[int]]:
    """Demand-kind codes of each stream of ``phase``, in stream order."""
    return [
        packed.kinds[first:end].tolist()
        for p, first, end in zip(
            packed.stream_phase.tolist(),
            packed.stream_first.tolist(),
            packed.stream_end.tolist(),
        )
        if p == phase
    ]


class TestSimWorkloadBuild:
    """``build_packed_workload``: packed workloads keep no phase or
    stream names, so streams are told apart by their demand kinds."""

    def test_phase_per_nonempty_sample(self):
        profile = profile_from_values(
            [
                {"cpu.cycles_used": 10.0},
                {},  # empty sample -> no phase
                {"io.bytes_written": 100.0},
            ]
        )
        plan = EmulationPlan.from_profile(profile)
        workload = plan.build_packed_workload(SynapseConfig())
        # startup phase + two non-empty sample phases
        assert workload.n_phases == 3
        # The emulator's startup: one stream, a sleep then compute.
        assert phase_streams(workload, 0) == [[KIND_SLEEP, KIND_COMPUTE]]
        assert phase_streams(workload, 1) == [[KIND_COMPUTE]]
        assert phase_streams(workload, 2) == [[KIND_IO]]

    def test_atoms_become_streams(self):
        profile = profile_from_values(
            [
                {
                    "cpu.cycles_used": 10.0,
                    "io.bytes_read": 5.0,
                    "mem.allocated": 7.0,
                }
            ]
        )
        plan = EmulationPlan.from_profile(profile)
        workload = plan.build_packed_workload(SynapseConfig())
        # compute, storage and memory: one concurrent stream each.
        assert phase_streams(workload, 1) == [[KIND_COMPUTE], [KIND_IO], [KIND_MEM]]

    def test_kernel_class_applied(self):
        profile = profile_from_values([{"cpu.cycles_used": 10.0}])
        plan = EmulationPlan.from_profile(profile)
        workload = plan.build_packed_workload(SynapseConfig(compute_kernel="c"))
        assert phase_streams(workload, 1) == [[KIND_COMPUTE]]
        # Compute demand 0 is the emulator's startup.
        assert workload.class_names[workload.c_class[1]] == "kernel.c"
        assert workload.c_cc[1] == pytest.approx(10.0)

    def test_block_sizes_applied(self):
        profile = profile_from_values([{"io.bytes_read": 10.0, "io.bytes_written": 10.0}])
        plan = EmulationPlan.from_profile(profile)
        config = SynapseConfig(io_block_size_read="4KB", io_block_size_write="1MB")
        workload = plan.build_packed_workload(config)
        assert phase_streams(workload, 1) == [[KIND_IO, KIND_IO]]
        assert workload.i_read.tolist() == [10, 0]
        assert workload.i_block.tolist() == [4096, 1 << 20]

    def test_mpi_config_sets_paradigm(self):
        profile = profile_from_values([{"cpu.cycles_used": 10.0}])
        plan = EmulationPlan.from_profile(profile)
        workload = plan.build_packed_workload(SynapseConfig(mpi_processes=4))
        assert workload.paradigm_names[workload.c_paradigm[1]] == "mpi"
        assert workload.c_threads[1] == 4

    def test_cpu_load_adds_stream(self):
        profile = profile_from_values([{"cpu.cycles_used": 10.0}])
        plan = EmulationPlan.from_profile(profile)
        workload = plan.build_packed_workload(SynapseConfig(cpu_load=0.5))
        assert phase_streams(workload, 1) == [[KIND_COMPUTE], [KIND_COMPUTE]]
        assert workload.c_cc[1:].tolist() == [10.0, 5.0]

    def test_disk_load_adds_stream(self):
        """The I/O twin of ``cpu_load``: written bytes sized from the
        sample's read plus written bytes, to the same filesystem at the
        write block size."""
        profile = profile_from_values([{"io.bytes_read": 10.0, "io.bytes_written": 30.0}])
        plan = EmulationPlan.from_profile(profile)
        config = SynapseConfig(disk_load=0.25, io_block_size_write="4KB")
        workload = plan.build_packed_workload(config)
        assert phase_streams(workload, 1) == [[KIND_IO, KIND_IO], [KIND_IO]]
        assert workload.i_read.tolist() == [10, 0, 0]
        assert workload.i_written.tolist() == [0, 30, 10]
        assert workload.i_block.tolist() == [1 << 20, 4096, 4096]
        assert len(set(workload.i_fs.tolist())) == 1

    def test_mem_load_is_held_for_the_whole_run(self):
        profile = profile_from_values([{"cpu.cycles_used": 10.0, "mem.allocated": 7.0}])
        plan = EmulationPlan.from_profile(profile)
        plain = plan.build_packed_workload(SynapseConfig())
        loaded = plan.build_packed_workload(SynapseConfig(mem_load="512MB"))
        assert loaded.base_rss == plain.base_rss + (512 << 20)
        assert phase_streams(loaded, 1) == phase_streams(plain, 1)
        assert loaded.n == plain.n

    def test_memory_demand_block_size(self):
        profile = profile_from_values([{"mem.allocated": 100.0}])
        plan = EmulationPlan.from_profile(profile)
        workload = plan.build_packed_workload(SynapseConfig(mem_block_size="4KB"))
        assert phase_streams(workload, 1) == [[KIND_MEM]]
        assert workload.m_alloc.tolist() == [100]
        assert workload.m_block.tolist() == [4096]
