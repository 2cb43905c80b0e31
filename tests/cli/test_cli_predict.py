"""CLI tests for ``repro predict`` / ``repro place`` / ``--version``."""

from __future__ import annotations

import pytest


import repro
from repro.cli.main import build_parser, main

from tests.cli.cli_helpers import run_cli


@pytest.fixture
def store_url(tmp_path):
    return f"file://{tmp_path}/profiles"


class TestVersion:
    def test_version_flag_prints_and_exits(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_help_epilog_documents_prediction(self):
        assert "repro place" in build_parser().epilog
        assert "repro predict" in build_parser().epilog


class TestPredict:
    def test_predict_stored_profile(self, store_url):
        code, _ = run_cli(
            "--store", store_url,
            "profile-app", "ensemble:width=4,stages=1", "--machine", "thinkie",
        )
        assert code == 0
        code, text = run_cli(
            "--store", store_url,
            "predict", "ensemble x1", "--machines", "titan", "comet",
        )
        assert code == 0
        assert "titan" in text
        assert "comet" in text
        assert "total [s]" in text

    def test_predict_defaults_to_all_machines(self, store_url):
        run_cli(
            "--store", store_url,
            "profile-app", "synthetic:instructions=1e9", "--machine", "thinkie",
        )
        code, text = run_cli("--store", store_url, "predict", "synapse_synthetic")
        assert code == 0
        for name in ("thinkie", "stampede", "archer", "supermic", "comet", "titan"):
            assert name in text

    def test_predict_missing_profile_fails(self, store_url):
        code, _ = run_cli("--store", store_url, "predict", "ghost")
        assert code == 1


class TestPlace:
    def test_place_ensemble_over_three_machines(self, store_url):
        code, text = run_cli(
            "--store", store_url,
            "place", "ensemble:width=8,stages=1",
            "--machines", "titan", "comet", "supermic",
        )
        assert code == 0
        assert "placement plan (eft" in text
        assert "predicted makespan" in text
        assert "per-machine busy time" in text

    def test_place_with_validation_reports_error(self, store_url):
        code, text = run_cli(
            "--store", store_url,
            "place", "ensemble:width=8,stages=3",
            "--machines", "titan", "comet", "supermic",
            "--method", "makespan", "--validate",
        )
        assert code == 0
        assert "plan validation" in text
        assert "makespan error" in text

    def test_place_unknown_machine_fails(self, store_url):
        code, _ = run_cli(
            "--store", store_url,
            "place", "ensemble:width=2", "--machines", "warp-core",
        )
        assert code == 1
