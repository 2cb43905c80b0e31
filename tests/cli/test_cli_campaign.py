"""CLI campaign command (run, elastic, report) and registry listings."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.runtime import CampaignSpec

from tests.cli.cli_helpers import run_cli


def _spec_file(tmp_path, **overrides) -> str:
    spec = {
        "name": "cli-camp",
        "apps": ["sleeper:sleep_seconds=1", "gromacs:iterations=20000"],
        "machines": ["thinkie", "comet"],
        "config": {"sample_rate": 2.0},
        **overrides,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


class TestCampaignCommand:
    def test_runs_and_writes_summary_json(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        summary = tmp_path / "summary.json"
        code, text = run_cli(
            "--store", store, "campaign", _spec_file(tmp_path),
            "--json", str(summary),
        )
        assert code == 0
        assert "campaign 'cli-camp'" in text and "complete" in text
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["total"] == 4 and doc["executed"] == 4 and doc["complete"]

    def test_rerun_skips_ledger_cells(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        spec = _spec_file(tmp_path)
        assert run_cli("--store", store, "campaign", spec)[0] == 0
        summary = tmp_path / "resume.json"
        code, _ = run_cli(
            "--store", store, "campaign", spec, "--json", str(summary)
        )
        assert code == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["skipped"] == 4 and doc["executed"] == 0

    def test_limit_then_resume(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        spec = _spec_file(tmp_path)
        code, _ = run_cli("--store", store, "campaign", spec, "--limit", "1")
        assert code == 0
        summary = tmp_path / "resume.json"
        run_cli("--store", store, "campaign", spec, "--json", str(summary))
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["skipped"] == 1 and doc["executed"] == 3 and doc["complete"]

    def test_failed_cells_exit_nonzero(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        spec = _spec_file(tmp_path)
        [cell, *_] = CampaignSpec.from_json(spec).cells()
        plan = {"rules": [{"point": "worker.execute", "match_key": cell.digest}]}
        code, text = run_cli(
            "--store", store, "--faults", json.dumps(plan),
            "campaign", spec, "--processes", "1",
        )
        assert code == 1
        assert "failed cell" in text

    def test_missing_spec_file_errors(self, tmp_path):
        code, _ = run_cli("campaign", str(tmp_path / "nope.json"))
        assert code == 1

    @pytest.mark.parametrize("field", [
        {"seeds": "12"}, {"repeats": 2.9}, {"config": {"nope": 1}},
        {"apps": [None, 3]}, {"machines": ["nosuch"]},
    ], ids=["seeds", "repeats", "config", "apps", "machines"])
    def test_malformed_spec_field_exits_1_before_any_cell(self, tmp_path, capsys, field):
        """``"seeds": "12"`` used to run seeds (1, 2); a bad profile
        config, app or machine used to fail every cell."""
        store = tmp_path / "store"
        code, text = run_cli(
            "--store", f"file://{store}", "campaign", _spec_file(tmp_path, **field),
        )
        assert code == 1
        assert f"error: campaign {next(iter(field))}" in capsys.readouterr().err
        assert "executed" not in text and not store.exists()


    def test_mode_dependent_flags_fail_fast(self, tmp_path, capsys):
        """Report-only / execution-only flags outside their mode must
        error, not silently run (or skip) a sweep."""
        spec = _spec_file(tmp_path)
        code, _ = run_cli("campaign", spec, "--format", "json")
        assert code == 2
        assert "require --report" in capsys.readouterr().err
        code, _ = run_cli("campaign", spec, "--reference", "comet")
        assert code == 2
        code, _ = run_cli("campaign", spec, "--report", "--limit", "1")
        assert code == 2
        assert "--report does not execute" in capsys.readouterr().err


class TestElasticFlag:
    def test_elastic_runs_and_reports_waves(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        summary = tmp_path / "summary.json"
        code, text = run_cli(
            "--store", store, "campaign", _spec_file(tmp_path),
            "--elastic", "--lease-ttl", "5", "--json", str(summary),
        )
        assert code == 0
        assert "wave 1/1:" in text and "completed 4/4" in text
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["executed"] == 4 and doc["complete"]

    def test_join_attaches_to_converged_campaign(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        spec = _spec_file(tmp_path)
        assert run_cli("--store", store, "campaign", spec, "--elastic")[0] == 0
        summary = tmp_path / "late.json"
        code, _ = run_cli(
            "--store", store, "campaign", spec,
            "--elastic", "--join", "late", "--json", str(summary),
        )
        assert code == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["executed"] == 0 and doc["skipped"] == 4
        assert doc["complete"]

    def test_workers_spawn_a_local_fleet(self, tmp_path):
        store = f"file://{tmp_path / 'store'}"
        summary = tmp_path / "fleet.json"
        code, _ = run_cli(
            "--store", store, "campaign", _spec_file(tmp_path),
            "--elastic", "--workers", "2", "--json", str(summary),
        )
        assert code == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["executed"] == 4 and doc["complete"]

    def test_fleet_rejects_process_private_store(self, tmp_path):
        code, _ = run_cli(
            "--store", "memory://", "campaign", _spec_file(tmp_path),
            "--elastic", "--workers", "2",
        )
        assert code == 1

    @pytest.mark.parametrize("ttl", ["nan", "inf", "0", "-1", "1e300"])
    @pytest.mark.parametrize("fleet", [[], ["--workers", "2"]], ids=["join", "fleet"])
    def test_bad_lease_ttl_exits_1(self, tmp_path, capsys, ttl, fleet):
        code, _ = run_cli(
            "--store", f"file://{tmp_path / 'store'}", "campaign",
            _spec_file(tmp_path), "--elastic", "--lease-ttl", ttl, *fleet,
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["-3", "-1"])
    @pytest.mark.parametrize("elastic", [[], ["--elastic"]], ids=["lone", "elastic"])
    def test_negative_limit_exits_1(self, tmp_path, capsys, limit, elastic):
        """It used to exit 0 with "executed 0, remaining N"."""
        code, text = run_cli(
            "--store", f"file://{tmp_path / 'store'}", "campaign",
            _spec_file(tmp_path), "--limit", limit, *elastic,
        )
        assert code == 1
        assert "error: limit must be a whole number >= 0" in capsys.readouterr().err
        assert "executed" not in text

    def test_elastic_flag_validation(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        code, _ = run_cli("campaign", spec, "--workers", "2")
        assert code == 2
        assert "require --elastic" in capsys.readouterr().err
        code, _ = run_cli(
            "campaign", spec, "--elastic", "--workers", "2", "--join", "x"
        )
        assert code == 2
        assert "pick one" in capsys.readouterr().err
        code, _ = run_cli(
            "campaign", spec, "--elastic", "--workers", "2", "--limit", "1"
        )
        assert code == 2
        code, _ = run_cli("campaign", spec, "--report", "--elastic")
        assert code == 2
        assert "--report does not execute" in capsys.readouterr().err


class TestCampaignReport:
    def _finished(self, tmp_path) -> tuple[str, str]:
        store = f"file://{tmp_path / 'store'}"
        spec = _spec_file(tmp_path, seeds=[0, 1])
        assert run_cli("--store", store, "campaign", spec)[0] == 0
        return store, spec

    def test_table_report(self, tmp_path):
        store, spec = self._finished(tmp_path)
        code, text = run_cli("--store", store, "campaign", spec, "--report")
        assert code == 0
        assert "campaign 'cli-camp': consistency/error vs reference 'thinkie'" in text
        assert "8/8 cells" in text
        assert "Tx CV %" in text and "err max %" in text
        for name in ("sleeper:sleep_seconds=1", "gromacs:iterations=20000",
                     "thinkie", "comet"):
            assert name in text

    def test_json_report(self, tmp_path):
        store, spec = self._finished(tmp_path)
        code, text = run_cli(
            "--store", store, "campaign", spec, "--report", "--format", "json"
        )
        assert code == 0
        doc = json.loads(text)
        assert doc["complete"] is True and doc["present_cells"] == 8
        assert len(doc["groups"]) == 4
        assert doc["groups"][0]["metrics"]["tx"]["n"] == 2

    def test_csv_report(self, tmp_path):
        store, spec = self._finished(tmp_path)
        code, text = run_cli(
            "--store", store, "campaign", spec, "--report", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(text)))
        assert {row["machine"] for row in rows} == {"thinkie", "comet"}
        assert any(row["metric"] == "tx" for row in rows)

    def test_json_flag_receives_the_analysis(self, tmp_path):
        store, spec = self._finished(tmp_path)
        out = tmp_path / "analysis.json"
        code, text = run_cli(
            "--store", store, "campaign", spec, "--report", "--json", str(out)
        )
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["complete"] is True and len(doc["groups"]) == 4
        # stdout still carries the rendered table.
        assert "consistency/error" in text

    def test_reference_flag(self, tmp_path):
        store, spec = self._finished(tmp_path)
        code, text = run_cli(
            "--store", store, "campaign", spec, "--report",
            "--reference", "comet",
        )
        assert code == 0
        assert "vs reference 'comet'" in text
        code, _ = run_cli(
            "--store", store, "campaign", spec, "--report",
            "--reference", "titan",
        )
        assert code == 1

    def test_empty_ledger_report_errors(self, tmp_path, capsys):
        spec = _spec_file(tmp_path)
        code, text = run_cli(
            "--store", f"file://{tmp_path / 'empty'}", "campaign", spec,
            "--report",
        )
        assert code == 1
        assert text == ""
        assert "no completed cells" in capsys.readouterr().err

    def test_partial_ledger_report_warns_but_renders(self, tmp_path, capsys):
        store = f"file://{tmp_path / 'store'}"
        spec = _spec_file(tmp_path)
        run_cli("--store", store, "campaign", spec, "--limit", "2")
        capsys.readouterr()  # drop the run's own output
        code, text = run_cli(
            "--store", store, "campaign", spec, "--report", "--format", "json"
        )
        assert code == 0
        # The warning goes to stderr so machine formats stay parseable.
        assert "ledger incomplete (2/4 cells)" in capsys.readouterr().err
        doc = json.loads(text)
        assert doc["complete"] is False and doc["present_cells"] == 2


def _listed_names(text: str) -> list[str]:
    """First column of a rendered table, minus the header/rule rows."""
    names = []
    for line in text.splitlines()[2:]:
        if line.strip():
            names.append(line.split("|")[0].strip())
    return names


class TestDeterministicListings:
    """``machines``/``kernels``/``apps`` print sorted regardless of
    registration order, so campaign specs built from them are stable."""

    def test_machines_sorted(self):
        _, text = run_cli("machines")
        names = _listed_names(text)
        assert names == sorted(names) and "thinkie" in names

    def test_kernels_sorted_with_late_registration(self):
        from repro.kernels import registry as kernels
        from repro.kernels.base import ComputeKernel

        class AaaKernel(ComputeKernel):
            name = "aaa-test-kernel"
            workload_class = "kernel.c"
            description = "registered out of order"

            def execute_units(self, units: float) -> None:
                pass

        kernels.register(AaaKernel)
        try:
            _, text = run_cli("kernels")
            names = _listed_names(text)
            assert names == sorted(names)
            assert names[0] == "aaa-test-kernel"
        finally:
            kernels._REGISTRY.pop("aaa-test-kernel", None)
            kernels._INSTANCES.pop("aaa-test-kernel", None)

    def test_apps_sorted_with_late_registration(self):
        from repro.apps import registry as apps
        from repro.apps.sleeper import SleeperApp

        apps.register_app("aaa-test-app", SleeperApp)
        try:
            _, text = run_cli("apps")
            names = _listed_names(text)
            assert names == sorted(names)
            assert names[0] == "aaa-test-app"
        finally:
            apps._FACTORIES.pop("aaa-test-app", None)
