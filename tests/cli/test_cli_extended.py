"""Tests for the extended CLI: profile-app, compare, report, export, apps."""

from __future__ import annotations

import json

from conftest import run_cli


class TestProfileApp:
    def test_sim_profile_via_spec(self, tmp_path):
        store = f"file://{tmp_path}/p"
        code, text = run_cli(
            "--store", store,
            "profile-app", "gromacs:iterations=100000",
            "--machine", "thinkie",
            "--rate", "2.0",
        )
        assert code == 0
        assert "gmx mdrun" in text
        code, text = run_cli("--store", store, "list")
        assert "gmx mdrun -nsteps 100000" in text

    def test_repeats_and_extra_tags(self, tmp_path):
        store = f"file://{tmp_path}/p"
        code, _ = run_cli(
            "--store", store,
            "profile-app", "sleeper:sleep_seconds=1",
            "--machine", "localhost",
            "--tags", "exp=7",
            "--repeats", "2",
        )
        assert code == 0
        code, text = run_cli("--store", store, "stats", "sleep 1")
        assert code == 0
        assert "tx" in text

    def test_bad_spec_errors(self, tmp_path):
        code, _ = run_cli(f"--store=file://{tmp_path}/p", "profile-app", "lammps")
        assert code == 1


class TestCompare:
    def test_compare_app_and_emulation(self, tmp_path):
        store = f"file://{tmp_path}/p"
        run_cli(
            "--store", store,
            "profile-app", "gromacs:iterations=200000",
            "--machine", "thinkie",
        )
        # Store a second profile under a different command for comparison.
        run_cli(
            "--store", store,
            "profile-app", "gromacs:iterations=100000",
            "--machine", "thinkie",
        )
        code, text = run_cli(
            "--store", store,
            "compare", "gmx mdrun -nsteps 200000", "gmx mdrun -nsteps 100000",
        )
        assert code == 0
        assert "cpu.cycles_used" in text
        assert "max error" in text

    def test_compare_missing_profiles(self, tmp_path):
        code, _ = run_cli(
            f"--store=file://{tmp_path}/p", "compare", "ghost-a", "ghost-b"
        )
        assert code == 1


class TestReportAndExport:
    def _seed(self, tmp_path) -> str:
        store = f"file://{tmp_path}/p"
        run_cli(
            "--store", store,
            "profile-app", "gromacs:iterations=100000",
            "--machine", "thinkie",
            "--rate", "2.0",
        )
        return store

    def test_report(self, tmp_path):
        store = self._seed(tmp_path)
        code, text = run_cli("--store", store, "report", "gmx mdrun -nsteps 100000")
        assert code == 0
        assert "sample dominance" in text
        assert "detected phases" in text

    def test_export_csv(self, tmp_path):
        store = self._seed(tmp_path)
        output = tmp_path / "out.csv"
        code, text = run_cli(
            "--store", store,
            "export", "gmx mdrun -nsteps 100000",
            "--format", "csv",
            "--output", str(output),
        )
        assert code == 0
        content = output.read_text()
        assert content.startswith("index,t,dt")
        assert "cpu.cycles_used" in content

    def test_export_trace(self, tmp_path):
        store = self._seed(tmp_path)
        output = tmp_path / "trace.json"
        code, _ = run_cli(
            "--store", store,
            "export", "gmx mdrun -nsteps 100000",
            "--format", "trace",
            "--output", str(output),
        )
        assert code == 0
        trace = json.loads(output.read_text())
        assert trace["traceEvents"]


class TestApps:
    def test_apps_listing(self):
        code, text = run_cli("apps")
        assert code == 0
        for name in ("gromacs", "synthetic", "sleeper", "ensemble"):
            assert name in text
