"""The process-pool fan-out of ``RunService.run``: pooled batches equal
serial ones, and a pool that cannot be used degrades to the parent."""

from __future__ import annotations

import pytest

from repro.runtime.service import ParallelFallbackWarning, RunRequest, RunService
from repro.sim.demands import ComputeDemand
from repro.sim.workload import SimWorkload

WORKLOAD = SimWorkload(name="fan-out")
WORKLOAD.phase("main").stream("main").add(
    ComputeDemand(instructions=2e8, workload_class="app.md")
)


def _duration(record) -> float:
    return record.duration


def _explode(record) -> float:
    raise RuntimeError("boom")


def requests(n: int, reduce=_duration, bad: int | None = None) -> list[RunRequest]:
    """``n`` seeds of one workload; request ``bad`` reduces with
    :func:`_explode`."""
    return [
        RunRequest(
            kind="engine", target=WORKLOAD, machine="thinkie", seed=4,
            index=i + 1, reduce=_explode if i == bad else reduce, key=f"r{i}",
        )
        for i in range(n)
    ]


def parallel_run(batch: list[RunRequest], processes: int) -> list:
    """``RunService.run`` on a throwaway service sized ``processes``."""
    with RunService(processes=processes) as service:
        return [result.value for result in service.run(batch)]


def one_by_one(batch: list[RunRequest]) -> list:
    with RunService(processes=1) as service:
        return [service.run([request])[0].value for request in batch]


def _pool_unavailable(monkeypatch, exc: Exception) -> None:
    import concurrent.futures

    def explode(*args, **kwargs):
        raise exc

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", explode)


class TestParallelMap:
    def test_preserves_order_serial(self):
        batch = requests(8)
        assert parallel_run(batch, processes=1) == one_by_one(batch)

    def test_preserves_order_pooled(self):
        batch = requests(20)
        assert parallel_run(batch, processes=2) == one_by_one(batch)

    def test_empty_items(self):
        assert parallel_run([], processes=4) == []

    def test_single_item_runs_serially(self):
        with RunService(processes=8) as service:
            [result] = service.run(requests(1))
            assert result.ok
            assert service.stats["pool_starts"] == 0

    def test_fn_exception_propagates_from_pool(self):
        """A request's own error re-raises in the parent instead of
        silently re-running the batch through the serial fallback."""
        with pytest.raises(RuntimeError, match="boom"):
            parallel_run(requests(4, bad=3), processes=2)

    def test_fn_exception_propagates_serially(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_run(requests(4, bad=3), processes=1)

    def test_unpicklable_fn_falls_back_to_serial(self):
        offset = 10.0
        batch = requests(3, reduce=lambda record: record.duration + offset)
        with pytest.warns(ParallelFallbackWarning):
            out = parallel_run(batch, processes=2)
        assert out == parallel_run(batch, processes=1)

    def test_pool_creation_failure_degrades_with_warning(self, monkeypatch):
        """Constrained hosts (no fork / missing start method) get a
        serial result plus a warning, never an exception."""
        batch = requests(4)
        serial = parallel_run(batch, processes=1)
        _pool_unavailable(monkeypatch, PermissionError("fork blocked by sandbox"))
        with pytest.warns(ParallelFallbackWarning, match="running 4 items serially"):
            out = parallel_run(batch, processes=2)
        assert out == serial

    def test_fallback_still_reraises_fn_exceptions(self, monkeypatch):
        _pool_unavailable(monkeypatch, RuntimeError("no start method"))
        with pytest.warns(ParallelFallbackWarning):
            with pytest.raises(RuntimeError, match="boom"):
                parallel_run(requests(4, bad=3), processes=2)
