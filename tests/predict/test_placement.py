"""Placement-planner tests (repro.predict.placement)."""

from __future__ import annotations

import pytest

from repro.core.errors import WorkloadError
from repro.predict.models import DemandVector, Task
from repro.predict.placement import (
    levelize,
    plan,
    plan_greedy_eft,
    plan_min_makespan,
)

#: A deliberately heterogeneous 3-machine set: Titan is the slow AMD node,
#: Comet and Supermic the fast Xeon nodes (paper §5 platforms).
HETERO = ("titan", "comet", "supermic")


def compute_task(name: str, instructions: float = 4e9, **kwargs) -> Task:
    return Task(
        name=name,
        demand=DemandVector(
            instructions=instructions, workload_class="app.md", **kwargs
        ),
    )


def ensemble_tasks(width: int = 8) -> list[Task]:
    """A flat, dependency-free ensemble stage of ``width`` equal tasks."""
    return [compute_task(f"t{i}") for i in range(width)]


class TestLevelize:
    def test_flat_tasks_are_one_level(self):
        levels = levelize(ensemble_tasks(4))
        assert len(levels) == 1
        assert len(levels[0]) == 4

    def test_dependencies_create_levels(self):
        tasks = [
            compute_task("a"),
            Task(name="b", demand=DemandVector(instructions=1e9), depends_on=("a",)),
            Task(name="c", demand=DemandVector(instructions=1e9), depends_on=("b",)),
            Task(name="d", demand=DemandVector(instructions=1e9), depends_on=("a",)),
        ]
        levels = levelize(tasks)
        assert [sorted(t.name for t in level) for level in levels] == [
            ["a"],
            ["b", "d"],
            ["c"],
        ]

    def test_unknown_dependency_raises(self):
        tasks = [Task(name="a", demand=DemandVector(), depends_on=("ghost",))]
        with pytest.raises(WorkloadError):
            levelize(tasks)

    def test_cycle_raises(self):
        tasks = [
            Task(name="a", demand=DemandVector(), depends_on=("b",)),
            Task(name="b", demand=DemandVector(), depends_on=("a",)),
        ]
        with pytest.raises(WorkloadError):
            levelize(tasks)

    def test_deep_chains_do_not_hit_recursion_limit(self):
        tasks = [compute_task("t0", instructions=1e6)]
        for i in range(1, 3000):
            tasks.append(
                Task(
                    name=f"t{i}",
                    demand=DemandVector(instructions=1e6),
                    depends_on=(f"t{i - 1}",),
                )
            )
        levels = levelize(tasks)
        assert len(levels) == 3000
        assert all(len(level) == 1 for level in levels)

    def test_duplicate_names_raise(self):
        with pytest.raises(WorkloadError):
            levelize([compute_task("a"), compute_task("a")])

    def test_empty_raises(self):
        with pytest.raises(WorkloadError):
            levelize([])


class TestHeuristics:
    @pytest.mark.parametrize("planner", [plan_greedy_eft, plan_min_makespan])
    def test_plan_covers_all_tasks_once(self, planner):
        tasks = ensemble_tasks(8)
        result = planner(tasks, HETERO)
        assert sorted(a.task for a in result.assignments) == sorted(
            t.name for t in tasks
        )
        assert set(a.machine for a in result.assignments) <= set(HETERO)
        assert result.makespan > 0

    @pytest.mark.parametrize("planner", [plan_greedy_eft, plan_min_makespan])
    def test_respects_barrier_levels(self, planner):
        tasks = [
            compute_task("first"),
            Task(
                name="second",
                demand=DemandVector(instructions=4e9, workload_class="app.md"),
                depends_on=("first",),
            ),
        ]
        result = planner(tasks, HETERO)
        first = next(a for a in result.assignments if a.task == "first")
        second = next(a for a in result.assignments if a.task == "second")
        assert second.start >= first.finish
        assert result.n_levels == 2

    def test_unrefined_eft_spreads_io_heavy_identical_tasks(self):
        # Regression: EFT once treated machines as infinitely concurrent
        # (finish never grew), piling every identical task on one machine.
        tasks = [
            Task(
                name=f"t{i}",
                demand=DemandVector(
                    instructions=4e9,
                    workload_class="app.md",
                    io_write_bytes=64 << 20,
                ),
            )
            for i in range(30)
        ]
        raw = plan_greedy_eft(tasks, HETERO, refine=False)
        assert len({a.machine for a in raw.assignments}) >= 2

    def test_many_small_tasks_spread_beyond_one_machine(self):
        # 64 single-core tasks oversubscribe any one machine (max 24
        # cores in the set), so a contention-aware plan must spread them.
        tasks = ensemble_tasks(64)
        result = plan_min_makespan(tasks, HETERO)
        assert len({a.machine for a in result.assignments}) >= 2

    def test_fast_machines_take_the_load(self):
        tasks = ensemble_tasks(16)
        result = plan_min_makespan(tasks, HETERO)
        loads = result.load()
        # Titan's app.md throughput is ~1/3 of the Xeons'; it must not
        # carry more busy time than both fast machines together.
        assert loads["titan"] <= loads["comet"] + loads["supermic"] + 1e-9

    def test_makespan_heuristic_not_worse_than_eft(self):
        tasks = [compute_task(f"t{i}", instructions=(1 + i % 5) * 1e9) for i in range(24)]
        eft = plan_greedy_eft(tasks, HETERO, refine=False)
        makespan = plan_min_makespan(tasks, HETERO, refine=False)
        assert makespan.makespan <= eft.makespan * 1.05

    def test_refinement_never_hurts(self):
        tasks = ensemble_tasks(32)
        raw = plan_greedy_eft(tasks, HETERO, refine=False)
        refined = plan_greedy_eft(tasks, HETERO, refine=True)
        assert refined.makespan <= raw.makespan + 1e-9

    def test_unknown_method_raises(self):
        with pytest.raises(WorkloadError):
            plan(ensemble_tasks(2), HETERO, method="quantum")

    def test_empty_machine_set_raises(self):
        with pytest.raises(WorkloadError):
            plan(ensemble_tasks(2), [])

    def test_single_machine_is_fine(self):
        result = plan(ensemble_tasks(4), ["comet"])
        assert result.machines == ("comet",)
        assert all(a.machine == "comet" for a in result.assignments)


class TestPlanIntrospection:
    def test_machine_of_and_tasks_on(self):
        result = plan_greedy_eft(ensemble_tasks(6), HETERO)
        for assignment in result.assignments:
            assert result.machine_of(assignment.task) == assignment.machine
            assert assignment.task in [
                a.task for a in result.tasks_on(assignment.machine)
            ]
        with pytest.raises(KeyError):
            result.machine_of("ghost")

    def test_level_spans_tile_the_makespan(self):
        tasks = [
            compute_task("a"),
            Task(name="b", demand=DemandVector(instructions=2e9), depends_on=("a",)),
        ]
        result = plan_greedy_eft(tasks, HETERO)
        assert result.level_spans[0][0] == 0.0
        assert result.level_spans[-1][1] == pytest.approx(result.makespan)
        for (_, end), (start, _) in zip(result.level_spans, result.level_spans[1:]):
            assert start == pytest.approx(end)

    def test_table_renders(self):
        result = plan_min_makespan(ensemble_tasks(3), HETERO)
        text = result.table().render()
        assert "makespan" in text
        assert "t0" in text
