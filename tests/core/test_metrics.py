"""Metric registry (Table 1) and derived-metric tests."""

from __future__ import annotations

import pytest

from repro.core.metrics import (
    REGISTRY,
    Support,
    cumulative_metrics,
    derive_metrics,
    level_metrics,
    metric,
    metric_names,
    table1_rows,
)


class TestRegistry:
    def test_row_count_matches_paper(self):
        # Table 1 lists 33 metrics: System 7, Compute 10, Storage 5,
        # Memory 6, Network 5.
        assert len(REGISTRY) == 33
        by_resource = {}
        for spec in REGISTRY.values():
            by_resource[spec.resource] = by_resource.get(spec.resource, 0) + 1
        assert by_resource == {
            "System": 7,
            "Compute": 10,
            "Storage": 5,
            "Memory": 6,
            "Network": 5,
        }

    def test_resource_groups(self):
        groups = {spec.resource for spec in REGISTRY.values()}
        assert groups == {"System", "Compute", "Storage", "Memory", "Network"}

    @pytest.mark.parametrize(
        ("name", "tot", "samp", "der", "emul"),
        [
            # Spot-check rows against the paper's Table 1.
            ("sys.cores", "+", "-", "-", "-"),
            ("time.runtime", "+", "+", "-", "-"),
            ("sys.load_disk", "-", "-", "-", "+"),
            ("cpu.instructions", "+", "+", "-", "+"),
            ("cpu.cycles_stalled_back", "+", "+", "-", "-"),
            ("cpu.efficiency", "+", "+", "+", "(+)"),
            ("cpu.utilization", "+", "+", "+", "-"),
            ("cpu.openmp", "(+)", "-", "-", "+"),
            ("io.bytes_read", "+", "+", "-", "+"),
            ("io.block_size_read", "-", "(+)", "-", "+"),
            ("io.filesystem", "+", "-", "-", "+"),
            ("mem.peak", "+", "+", "-", "-"),
            ("mem.allocated", "+", "+", "+", "+"),
            ("mem.block_size_alloc", "-", "(-)", "-", "(-)"),
            ("net.endpoint", "(-)", "(-)", "-", "(+)"),
            ("net.bytes_read", "(-)", "(-)", "-", "(+)"),
            ("net.block_size_write", "-", "(-)", "-", "(-)"),
        ],
    )
    def test_flags_match_paper(self, name, tot, samp, der, emul):
        spec = metric(name)
        assert str(spec.totalled) == tot
        assert str(spec.sampled) == samp
        assert str(spec.derived) == der
        assert str(spec.emulated) == emul

    def test_metric_names_order_is_table_order(self):
        names = metric_names()
        assert names[0] == "sys.cores"
        assert names[-1] == "net.block_size_write"

    def test_kind_partition(self):
        cum = set(cumulative_metrics())
        lev = set(level_metrics())
        assert cum.isdisjoint(lev)
        assert "cpu.cycles_used" in cum
        assert "mem.rss" in lev

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            metric("no.such.metric")

    def test_filesystem_not_numeric(self):
        assert not metric("io.filesystem").numeric
        assert metric("io.bytes_read").numeric

    def test_table1_rows_shape(self):
        rows = table1_rows()
        assert len(rows) == len(REGISTRY)
        assert all(len(row) == 6 for row in rows)

    def test_support_str(self):
        assert str(Support.YES) == "+"
        assert str(Support.PLANNED) == "(-)"


class TestDerivedMetrics:
    def test_efficiency_formula(self):
        derived = derive_metrics(
            {
                "cpu.cycles_used": 80.0,
                "cpu.cycles_stalled_front": 10.0,
                "cpu.cycles_stalled_back": 10.0,
            }
        )
        assert derived["cpu.efficiency"] == pytest.approx(0.8)

    def test_efficiency_without_stalls(self):
        derived = derive_metrics({"cpu.cycles_used": 10.0})
        assert derived["cpu.efficiency"] == pytest.approx(1.0)

    def test_utilization_formula(self):
        derived = derive_metrics(
            {
                "cpu.cycles_used": 5e9,
                "time.runtime": 2.0,
                "sys.cpu_freq": 2.5e9,
            }
        )
        assert derived["cpu.utilization"] == pytest.approx(1.0)

    def test_ipc(self):
        derived = derive_metrics({"cpu.instructions": 20.0, "cpu.cycles_used": 10.0})
        assert derived["cpu.ipc"] == pytest.approx(2.0)

    def test_flop_rate(self):
        derived = derive_metrics({"cpu.flops": 100.0, "time.runtime": 4.0})
        assert derived["cpu.flop_rate"] == pytest.approx(25.0)

    def test_missing_inputs_omit_outputs(self):
        derived = derive_metrics({})
        assert derived == {}

    def test_zero_cycles_no_division(self):
        derived = derive_metrics({"cpu.cycles_used": 0.0, "cpu.instructions": 5.0})
        assert "cpu.ipc" not in derived

    def test_efficiency_bounded(self):
        derived = derive_metrics(
            {
                "cpu.cycles_used": 1.0,
                "cpu.cycles_stalled_front": 1000.0,
                "cpu.cycles_stalled_back": 1000.0,
            }
        )
        assert 0.0 < derived["cpu.efficiency"] < 1.0
