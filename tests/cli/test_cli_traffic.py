"""CLI traffic command: open loop, closed loop, autoscale, JSON output."""

from __future__ import annotations

import json

import pytest

from conftest import run_cli


class TestTrafficCommand:
    def test_open_loop_table(self):
        code, text = run_cli(
            "traffic", "poisson:rate=200", "--machines", "thinkie", "comet",
            "--requests", "2000", "--no-engine",
        )
        assert code == 0
        assert "traffic run:" in text
        assert "latency p99" in text
        assert "thinkie" in text and "comet" in text

    def test_json_report(self, tmp_path):
        path = tmp_path / "report.json"
        code, _ = run_cli(
            "traffic", "--machines", "thinkie", "--requests", "1000",
            "--no-engine", "--json", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["requests"] == 1000
        assert doc["latency"]["p99"] > 0
        assert len(doc["latency_digest"]) == 32

    @pytest.mark.parametrize("process, machines, requests", [
        ("poisson:rate=150", ["thinkie"], "1500"),
        ("poisson:rate=200", ["thinkie", "comet"], "3000"),
    ], ids=["thinkie", "thinkie-comet"])
    def test_seed_reproducibility(self, tmp_path, process, machines, requests):
        """The same seed gives the same latency and engine-ledger digests
        (engine accounting on)."""
        digests = []
        for run in range(2):
            path = tmp_path / f"r{run}.json"
            code, _ = run_cli(
                "traffic", process, "--machines", *machines,
                "--requests", requests, "--seed", "7", "--json", str(path),
            )
            assert code == 0
            doc = json.loads(path.read_text(encoding="utf-8"))
            digests.append((doc["latency_digest"], doc["ledger_digest"]))
        assert digests[0] == digests[1]

    def test_closed_loop(self):
        code, text = run_cli(
            "traffic", "--machines", "thinkie", "--closed-loop", "4",
            "--think", "0.01", "--requests", "1000", "--no-engine",
        )
        assert code == 0
        assert "closed-loop" in text

    def test_autoscale_flags(self, tmp_path):
        path = tmp_path / "scale.json"
        code, text = run_cli(
            "traffic", "poisson:rate=500", "--machines", "thinkie",
            "--requests", "6000", "--no-engine", "--slo-p99", "0.05",
            "--scale-every", "1000", "--json", str(path),
        )
        assert code == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        ups = [e for e in doc["autoscale_events"] if e["action"] == "up"]
        assert ups
        assert "autoscale @req" in text

    def test_ps_discipline_and_rr_dispatch(self):
        code, text = run_cli(
            "traffic", "poisson:rate=100", "--machines", "thinkie", "comet",
            "--discipline", "ps", "--dispatch", "rr", "--requests", "800",
            "--no-engine",
        )
        assert code == 0
        assert "traffic run:" in text

    def test_bad_process_spec_fails(self, capsys):
        code, _ = run_cli(
            "traffic", "weibull:rate=1", "--machines", "thinkie",
        )
        assert code == 1
        assert "unknown arrival process" in capsys.readouterr().err

    def test_unknown_machine_fails(self):
        code, _ = run_cli(
            "traffic", "--machines", "not-a-machine", "--requests", "100",
        )
        assert code == 1
