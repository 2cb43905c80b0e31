"""The process-pool fan-out primitive (``RunService.map``)."""

from __future__ import annotations

import pytest

from repro.runtime.service import ParallelFallbackWarning, RunService, get_shared


def parallel_map(fn, items, processes, shared=None):
    """``RunService.map`` on a throwaway service sized ``processes``."""
    with RunService(processes=processes) as service:
        return service.map(fn, items, shared=shared)


def _square(x: int) -> int:
    return x * x


def _scaled(x: int) -> int:
    return x * get_shared()["factor"]


def _explode(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


class TestParallelMap:
    def test_preserves_order_serial(self):
        assert parallel_map(_square, range(8), processes=1) == [
            x * x for x in range(8)
        ]

    def test_preserves_order_pooled(self):
        assert parallel_map(_square, range(20), processes=2) == [
            x * x for x in range(20)
        ]

    def test_empty_items(self):
        assert parallel_map(_square, [], processes=4) == []

    def test_single_item_runs_serially(self):
        assert parallel_map(_square, [3], processes=8) == [9]

    def test_shared_payload_serial(self):
        out = parallel_map(_scaled, [1, 2, 3], processes=1, shared={"factor": 10})
        assert out == [10, 20, 30]
        assert get_shared() is None  # restored after the map

    def test_shared_payload_pooled(self):
        out = parallel_map(_scaled, list(range(10)), processes=2, shared={"factor": 3})
        assert out == [3 * x for x in range(10)]

    def test_fn_exception_propagates_from_pool(self):
        """An error raised by fn re-raises in the parent instead of
        silently re-running the batch through the serial fallback."""
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_explode, [0, 1, 2, 3], processes=2)

    def test_fn_exception_propagates_serially(self):
        with pytest.raises(RuntimeError, match="boom"):
            parallel_map(_explode, [0, 1, 2, 3], processes=1)

    def test_unpicklable_fn_falls_back_to_serial(self):
        offset = 10
        with pytest.warns(ParallelFallbackWarning):
            out = parallel_map(lambda x: x + offset, [1, 2, 3], processes=2)
        assert out == [11, 12, 13]

    def test_pool_creation_failure_degrades_with_warning(self, monkeypatch):
        """Constrained hosts (no fork / missing start method) get a
        serial result plus a warning, never an exception."""
        import concurrent.futures

        def explode(*args, **kwargs):
            raise PermissionError("fork blocked by sandbox")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", explode)
        with pytest.warns(ParallelFallbackWarning, match="running 4 items serially"):
            out = parallel_map(_square, [1, 2, 3, 4], processes=2)
        assert out == [1, 4, 9, 16]

    def test_fallback_still_reraises_fn_exceptions(self, monkeypatch):
        import concurrent.futures

        def explode(*args, **kwargs):
            raise RuntimeError("no start method")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", explode)
        with pytest.warns(ParallelFallbackWarning):
            with pytest.raises(RuntimeError, match="boom"):
                parallel_map(_explode, [0, 1, 2, 3], processes=2)
