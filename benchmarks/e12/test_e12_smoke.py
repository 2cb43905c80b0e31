"""Tier-1 smoke test of the E12 benchmark: every workload at tiny size.

Sizes are ~100x below the benchmark's (16 cells, 10 k demands, 5 k
requests, one timed pass) so the whole module runs in a few seconds; the
code paths, metric names, digest checks and leak guard are the real ones.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import e12

DECLARED = e12.load_declared()
#: All six, the three the driver does not run included.
WORKLOADS = list(e12.WORKLOADS)


def test_driver_workloads_are_known():
    assert {w["name"] for w in DECLARED["workloads"]} <= set(WORKLOADS)


def _run(capsys, tmp_path: Path, *argv: str) -> tuple[dict, dict]:
    """Run the command in-process; returns (result line, run record)."""
    out = tmp_path / "runs.jsonl"
    code = e12.main(["--size", "tiny", "--seconds", "0", "--out", str(out), *argv])
    assert code == 0, "non-zero exit: leak guard or undeclared metric"
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    record = json.loads(out.read_text().splitlines()[-1])
    return json.loads(last_line), record


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(capsys, tmp_path, workload):
    result, record = _run(capsys, tmp_path, "--workload", workload)
    _assert_metrics(result, DECLARED["end_to_end"])
    for metric in DECLARED["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]
    # The default seed at a pinned size is checked against goldens.json.
    assert record["golden_checked"] and not record["problems"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(capsys, tmp_path, workload):
    result, record = _run(capsys, tmp_path, "--workload", workload, "--trace", "1")
    _assert_metrics(result, DECLARED["per_layer"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    # Self times of the traced pass sum to its wall time.
    assert 95.0 <= values["trace.accounted_pct"] <= 105.0
    # The traced (proxy-wrapped) and untraced (bare) passes of the run
    # produced the same outputs — and the pinned ones.
    assert len(record["pass_wall_s"]) == 2
    assert record["golden_checked"] and not record["problems"]
    # Some layer beyond the tracer's own rows was entered.
    entered = [n for n, v in values.items() if v and not n.startswith("trace.")]
    assert len(entered) > 3, entered


def test_campaign_workloads_share_one_ledger_digest(capsys, tmp_path):
    _, unsharded = _run(capsys, tmp_path, "--workload", "campaign_unsharded")
    _, elastic = _run(capsys, tmp_path, "--workload", "campaign_elastic")
    assert unsharded["digests"] == elastic["digests"]


def test_another_seed_checks_that_passes_agree(capsys, tmp_path):
    result, record = _run(
        capsys, tmp_path, "--workload", "small_runs", "--seed", "7"
    )
    assert result["correct"] and not record["golden_checked"]
    default = json.loads(e12.GOLDENS.read_text())["tiny"]
    assert record["digests"]["small_runs_tx"] != default["small_runs_tx"]


def test_compare_two_sets(capsys, tmp_path):
    for name in ("a", "b"):
        code = e12.main([
            "--size", "tiny", "--seconds", "0", "--workload", "traffic_open_loop",
            "--out", str(tmp_path / f"{name}.jsonl"),
        ])
        assert code == 0
    capsys.readouterr()
    e12.compare(str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    report = capsys.readouterr().out
    for metric in DECLARED["end_to_end"]:
        assert f"traffic_open_loop   {metric['name']}" in report
    assert "must repeat exactly" not in report  # digests and sim_p99_ms agree


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(e12.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        e12.HERE, tmp_path / "benchmarks" / "e12",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/e12/e12.py", "--workload", "small_runs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
