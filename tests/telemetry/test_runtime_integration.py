"""Telemetry end to end: pool stitching, campaign events, store metrics."""

from __future__ import annotations

from repro.core.samples import Profile
from repro.runtime import CampaignSpec, RunRequest, RunService, run_campaign
from repro.sim.demands import ComputeDemand
from repro.sim.workload import SimWorkload
from repro.storage import FileStore
from repro.storage.base import MemoryStore
from repro.telemetry import get_registry, span

SPEC = {
    "name": "tel-camp",
    "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "repeats": 1,
    "config": {"sample_rate": 2.0},
}


def _workload(name: str = "tel-wl") -> SimWorkload:
    workload = SimWorkload(name=name)
    workload.phase("main").stream("main").add(
        ComputeDemand(instructions=5e8, workload_class="app.md")
    )
    return workload


def _duration(record) -> float:
    with span("item.work", duration=record.duration):
        return record.duration


class TestPoolSpanStitching:
    def test_parallel_map_spans_stitch_under_submitting_span(self, sink):
        """Worker-side spans replay into the parent's sinks, parented
        under the span that was open when the batch was submitted."""
        requests = [
            RunRequest(
                kind="engine", target=_workload(), machine="thinkie",
                seed=7, index=index, reduce=_duration,
            )
            for index in range(6)
        ]
        with span("batch.submit") as submit, RunService(processes=2) as service:
            durations = [result.value for result in service.run(requests)]
        items = sink.spans("item.work")
        assert len(items) == 6
        assert sorted(e.attrs["duration"] for e in items) == sorted(durations)
        for item in items:
            chain = [e.name for e in sink.ancestors(item)]
            assert chain == ["run.request", "service.run", "batch.submit"]
        assert {e.parent_id for e in sink.spans("service.run")} == {submit.span_id}

    def test_persistent_pool_spans_stitch_across_batches(self, sink):
        requests = [
            RunRequest(
                kind="engine", target=_workload(), machine="thinkie",
                noisy=True, seed=7, index=index,
            )
            for index in range(3)
        ]
        with RunService(processes=2) as service:
            with span("first.batch"):
                service.run(requests)
            with span("second.batch"):
                service.run(requests)
        for batch in ("first.batch", "second.batch"):
            batch_span = sink.spans(batch)[0]
            nested = [
                e for e in sink.spans("run.request")
                if any(a.span_id == batch_span.span_id for a in sink.ancestors(e))
            ]
            assert len(nested) == 3

    def test_request_spans_record_outcome_attrs(self, sink):
        with RunService() as service:
            service.run([
                RunRequest(kind="engine", target=_workload(), machine="thinkie")
            ])
        request = sink.spans("run.request")[0]
        assert request.attrs["kind"] == "engine"
        assert request.attrs["ok"] is True
        assert request.attrs["attempt"] == 1


class TestCampaignEvents:
    def test_wave_events_track_progress(self, sink):
        spec = CampaignSpec.from_dict(SPEC)
        store = MemoryStore()
        seen: list[dict] = []
        report = run_campaign(spec, store, checkpoint=2, progress=seen.append)
        assert report.complete
        start = sink.named("campaign.start")[0]
        assert start.attrs["total"] == spec.n_cells
        finishes = sink.named("campaign.wave.finish")
        assert len(finishes) == 2  # 4 cells / checkpoint 2
        assert [e.attrs["wave"] for e in finishes] == [1, 2]
        assert finishes[-1].attrs["completed"] == spec.n_cells
        assert finishes[-1].attrs["pending"] == 0
        assert sink.named("campaign.finish")[0].attrs["executed"] == spec.n_cells
        # The progress callback got exactly the wave summaries.
        assert [s["wave"] for s in seen] == [1, 2]
        assert seen == [
            {k: e.attrs[k] for k in s} for s, e in zip(seen, finishes)
        ]

    def test_wave_spans_nest_under_campaign_run(self, sink):
        spec = CampaignSpec.from_dict(SPEC)
        run_campaign(spec, MemoryStore(), checkpoint=2)
        campaign_span = sink.spans("campaign.run")[0]
        waves = sink.spans("campaign.wave")
        assert len(waves) == 2
        assert all(e.parent_id == campaign_span.span_id for e in waves)


class TestStoreMetrics:
    def test_put_find_get_latency_observed(self, tmp_path):
        registry = get_registry()
        store = FileStore(tmp_path / "store")
        profile = Profile(command="mdrun", tags=("grid=a",))
        pid = store.put(profile)
        store.find("mdrun")
        store.get_many([pid])
        store.entries("mdrun")
        for name in (
            "store.put.seconds",
            "store.find.seconds",
            "store.get.seconds",
            "store.entries.seconds",
        ):
            stat = registry.histogram(name)
            assert stat is not None and stat.count >= 1, name

    def test_index_hit_and_miss_counters(self, tmp_path):
        registry = get_registry()
        FileStore(tmp_path / "store").put_many(
            [Profile(command="mdrun", tags=("grid=a",))] * 3
        )
        assert registry.counter("store.put.records") == 3
        [segment] = (tmp_path / "store").iterdir()
        assert registry.counter("store.put.bytes") == segment.stat().st_size
        store = FileStore(tmp_path / "store")
        store.entries("mdrun")  # a cold handle reads the segment's index line
        assert registry.counter("store.index.miss") == 1
        assert registry.counter("store.segments.loaded") == 1
        hits = registry.counter("store.index.hit")
        store.entries("mdrun")  # unchanged listing -> cached index
        assert registry.counter("store.index.hit") == hits + 1
        assert registry.counter("store.index.miss") == 1
        assert registry.counter("store.segments.loaded") == 1

    def test_memory_store_observes_too(self):
        registry = get_registry()
        store = MemoryStore()
        pid = store.put(Profile(command="mdrun"))
        store.find("mdrun")
        store.get_many([pid])
        assert registry.histogram("store.put.seconds").count == 1
        assert registry.histogram("store.find.seconds").count == 1
        assert registry.histogram("store.get.seconds").count == 1

    def test_service_metrics_after_run(self):
        registry = get_registry()
        with RunService() as service:
            service.run([
                RunRequest(kind="engine", target=_workload(), machine="thinkie")
            ])
        assert registry.counter("service.requests.ok") == 1
        assert registry.histogram("service.request.seconds").count == 1
