"""CSV and Chrome-trace export tests."""

from __future__ import annotations

import json

import pytest

from repro.core.samples import Profile, Sample
from repro.core.statistics import aggregate
from repro.export.csvout import columns, profile_to_csv, rows_from_csv, stats_to_csv, write_csv
from repro.export.trace import dump_trace, profile_to_trace, record_to_trace
from repro.sim.demands import ComputeDemand, IODemand
from repro.sim.engine import Engine
from repro.sim.machines import get_machine
from repro.sim.noise import NoiseModel
from repro.sim.workload import SimWorkload


def make_profile():
    return Profile(
        command="exported app",
        tags=("k=1",),
        machine={"name": "thinkie"},
        samples=[
            Sample(0, 0.0, 1.0, {"cpu.cycles_used": 5.0, "io.bytes_read": 10.0}),
            Sample(1, 1.0, 1.0, {"cpu.cycles_used": 7.0}),
        ],
    )


def make_record():
    workload = SimWorkload(name="traced")
    stream = workload.phase("p1").stream("s")
    stream.add(ComputeDemand(instructions=1e9, workload_class="app.md"))
    stream.add(IODemand(bytes_written=1 << 20, filesystem="local"))
    workload.phase("p2").stream("s").add(
        ComputeDemand(instructions=5e8, workload_class="app.md")
    )
    return Engine(get_machine("thinkie"), NoiseModel.silent()).run(workload)


class TestCSV:
    def test_profile_columns(self):
        text = profile_to_csv(make_profile())
        header = list(columns(text))
        assert header[:3] == ["index", "t", "dt"]
        assert "cpu.cycles_used" in header
        assert "io.bytes_read" in header

    def test_profile_rows_roundtrip(self):
        text = profile_to_csv(make_profile())
        rows = rows_from_csv(text)
        assert len(rows) == 2
        assert float(rows[0]["cpu.cycles_used"]) == 5.0
        assert rows[1]["io.bytes_read"] == ""  # missing metric stays empty

    def test_values_lossless(self):
        profile = Profile(
            command="exported app",
            samples=[Sample(0, 0.0, 1.0, {"cpu.cycles_used": 1.2345678901234567e18})],
        )
        rows = rows_from_csv(profile_to_csv(profile))
        assert float(rows[0]["cpu.cycles_used"]) == 1.2345678901234567e18

    def test_stats_csv(self):
        stats = aggregate([make_profile(), make_profile()])
        rows = rows_from_csv(stats_to_csv(stats))
        names = {row["metric"] for row in rows}
        assert "cpu.cycles_used" in names
        assert "tx" in names
        by_name = {row["metric"]: row for row in rows}
        assert int(by_name["cpu.cycles_used"]["n"]) == 2
        assert float(by_name["cpu.cycles_used"]["mean"]) == 12.0

    def test_write_csv_creates_dirs(self, tmp_path):
        path = tmp_path / "nested" / "out.csv"
        write_csv("a,b\n1,2\n", path)
        assert path.read_text() == "a,b\n1,2\n"


class TestTrace:
    def test_record_trace_structure(self):
        record = make_record()
        trace = record_to_trace(record)
        events = trace["traceEvents"]
        phase_events = [e for e in events if e.get("cat") == "phase"]
        io_events = [e for e in events if e.get("cat") == "io"]
        counter_events = [e for e in events if e["ph"] == "C"]
        assert len(phase_events) == 2
        assert len(io_events) == 1
        assert counter_events
        assert trace["otherData"]["machine"] == "thinkie"

    def test_phase_durations_match_bounds(self):
        record = make_record()
        trace = record_to_trace(record)
        phase_events = [e for e in trace["traceEvents"] if e.get("cat") == "phase"]
        for event, (t0, t1) in zip(phase_events, record.phase_bounds):
            assert event["ts"] == pytest.approx(t0 * 1e6)
            assert event["dur"] == pytest.approx((t1 - t0) * 1e6)

    def test_counter_points_capped(self):
        record = make_record()
        trace = record_to_trace(record)
        by_name: dict[str, int] = {}
        for event in trace["traceEvents"]:
            if event["ph"] == "C":
                by_name[event["name"]] = by_name.get(event["name"], 0) + 1
        assert all(count <= 512 for count in by_name.values())

    def test_profile_trace(self):
        trace = profile_to_trace(make_profile())
        sample_events = [e for e in trace["traceEvents"] if e.get("cat") == "sample"]
        assert len(sample_events) == 2
        assert trace["otherData"]["command"] == "exported app"

    def test_trace_is_json_serialisable(self, tmp_path):
        path = tmp_path / "trace.json"
        dump_trace(record_to_trace(make_record()), str(path))
        with open(path) as handle:
            loaded = json.load(handle)
        assert "traceEvents" in loaded
