"""CLI tests driving the ``synapse`` entry point in-process."""

from __future__ import annotations

import io

import pytest

from repro.cli.main import build_parser, main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_profile_args(self):
        args = build_parser().parse_args(
            ["profile", "sleep 1", "--tags", "a=1", "--rate", "2.0"]
        )
        assert args.command == "sleep 1"
        assert args.rate == 2.0


class TestInformational:
    def test_machines(self):
        code, text = run_cli("machines")
        assert code == 0
        for name in ("thinkie", "titan", "comet"):
            assert name in text

    def test_metrics_table(self):
        code, text = run_cli("metrics")
        assert code == 0
        assert "cycles stalled backend" in text
        assert "(+)" in text  # partial markers present

    def test_kernels(self):
        code, text = run_cli("kernels")
        assert code == 0
        assert "asm" in text and "kernel.asm" in text


class TestWorkflow:
    def test_sim_profile_emulate_show_stats(self, tmp_path):
        store_url = f"file://{tmp_path}/profiles"
        code, text = run_cli(
            "--store", store_url,
            "profile", "sleep 2",
            "--machine", "thinkie",
            "--rate", "2.0",
        )
        # A plain 'sleep 2' has no sim workload -> error is expected; use
        # the host plane for real commands instead.
        assert code == 1

    def test_host_profile_and_emulate(self, tmp_path):
        store_url = f"file://{tmp_path}/profiles"
        code, text = run_cli(
            "--store", store_url, "profile", "sleep 0.2", "--rate", "10"
        )
        assert code == 0
        assert "profiled" in text

        code, text = run_cli("--store", store_url, "list")
        assert code == 0
        assert "sleep 0.2" in text

        code, text = run_cli("--store", store_url, "show", "sleep 0.2")
        assert code == 0
        assert "Tx" in text

        code, text = run_cli(
            "--store", store_url, "emulate", "sleep 0.2", "--kernel", "sleep"
        )
        assert code == 0
        assert "emulated" in text

    def test_stats_over_repeats(self, tmp_path):
        store_url = f"file://{tmp_path}/profiles"
        run_cli(
            "--store", store_url,
            "profile", "sleep 0.1",
            "--rate", "10",
            "--repeats", "2",
        )
        code, text = run_cli("--store", store_url, "stats", "sleep 0.1")
        assert code == 0
        assert "tx" in text

    def test_show_missing_profile_errors(self, tmp_path):
        code, _ = run_cli(f"--store=file://{tmp_path}/p", "show", "ghost")
        assert code == 1


class TestMigrate:
    def test_refused_until_migrated(self, tmp_path, capsys):
        """A store holding a v2 segment and a v1 group is refused with a
        pointer to ``migrate``; ``migrate`` rewrites both, once."""
        import shutil
        from pathlib import Path

        from repro.core.samples import Profile
        from tests.storage.conftest import write_v1

        root = tmp_path / "s"
        fixture = Path(__file__).parents[1] / "storage" / "fixtures" / "v2_ledger"
        shutil.copytree(fixture, root)
        write_v1(root, [Profile(command="old app", created=5.0)])
        url = f"file://{root}"
        assert run_cli("--store", url, "list")[0] == 1
        assert f"repro --store {url} migrate" in capsys.readouterr().err
        code, text = run_cli("--store", url, "migrate")
        assert code == 0
        assert "rewrote 1 v2 segment(s) and 1 v1 group(s), 3 profile(s)" in text
        code, text = run_cli("--store", url, "list")
        assert code == 0 and "old app" in text
        assert "rewrote 0 v2 segment(s) and 0 v1 group(s), 0 profile(s)" in (
            run_cli("--store", url, "migrate")[1]
        )

    def test_only_file_stores(self, capsys):
        assert run_cli("--store", "memory://", "migrate")[0] == 1
        assert "only a file:// store" in capsys.readouterr().err
