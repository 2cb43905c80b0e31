"""CLI robustness surface: ``--faults`` and graceful SIGTERM draining."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.faults import ENV_VAR, active_plan

from tests.cli.cli_helpers import run_cli


def _spec_file(tmp_path, **overrides) -> str:
    spec = {
        "name": "robust-camp",
        "apps": ["sleeper:sleep_seconds=1"],
        "machines": ["thinkie"],
        "seeds": [0, 1],
        "config": {"sample_rate": 2.0},
        **overrides,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


class TestFaultsFlag:
    def test_bad_plan_fails_fast(self, capsys):
        code, _ = run_cli("--faults", "{bad json", "machines")
        assert code == 2
        assert "bad fault plan" in capsys.readouterr().err

    def test_unreadable_plan_file_fails_fast(self, tmp_path, capsys):
        code, _ = run_cli("--faults", str(tmp_path / "missing.json"), "machines")
        assert code == 2

    def test_campaign_completes_under_injected_store_faults(self, tmp_path):
        """An ``at=1`` store fault fails the first artifact write; the
        campaign's store retries absorb it and the sweep completes."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 7, "rules": [
            {"point": "store.put", "mode": "error", "at": 1},
        ]}), encoding="utf-8")
        store = f"file://{tmp_path / 'store'}"
        summary = tmp_path / "summary.json"
        code, text = run_cli(
            "--store", store, "--faults", str(plan),
            "campaign", _spec_file(tmp_path), "--json", str(summary), "-q",
        )
        assert code == 0, text
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["complete"] is True
        # The flag's activation is scoped to the invocation.
        assert active_plan() is None
        assert ENV_VAR not in os.environ

    def test_flag_works_after_the_subcommand(self, tmp_path):
        code, _ = run_cli(
            "machines", "--faults", '{"seed": 1, "rules": []}'
        )
        assert code == 0
        assert active_plan() is None


class TestBadInputs:
    """Each used to run (on NaN, a misspelt option, a negative count,
    zero workers) or to fail naming no field: now exit 1 before
    anything runs, the error naming the flag or key, no store made."""

    @pytest.mark.parametrize("argv, named", [
        (["traffic", "poisson:rte=10"], "rte"),
        (["traffic", "diurnal:rate=10,amplitud=0.9"], "amplitud"),
        (["traffic", "poisson:rate=nan"], "rate"),
        (["traffic", "mmpp:rates=inf/5,dwells=1/1"], "rates"),
        (["traffic", "--closed-loop", "2", "--think", "nan"], "think"),
        (["traffic", "--requests", "-5"], "requests"),
        (["campaign", "SPEC", "--processes", "0"], "processes"),
        (["campaign", "SPEC", "--processes", "-3"], "processes"),
        (["campaign", "SPEC", "--elastic", "--join", "w", "--lease-ttl", "nan"],
         "lease_ttl"),
        (["profile-app", "sleeper:sleep_seconds=nan"], "sleep_seconds"),
        (["profile-app", "gromacs:iterations=0"], "iterations"),
    ], ids=lambda value: value if isinstance(value, str) else " ".join(value[1:]))
    def test_exits_1_naming_the_field(self, tmp_path, capsys, argv, named):
        store = tmp_path / "store"
        argv = [_spec_file(tmp_path) if arg == "SPEC" else arg for arg in argv]
        if argv[0] == "traffic":
            argv += ["--machines", "thinkie", "--json", str(tmp_path / "t.json")]
        code, out = run_cli("--store", f"file://{store}", *argv)
        err = capsys.readouterr().err
        assert code == 1, out
        assert err.startswith("error: ") and named in err, err
        assert not store.exists() and not (tmp_path / "t.json").exists()


class TestSigtermDrain:
    def test_sigterm_drains_checkpoints_and_resumes(self, tmp_path):
        """End to end through a real process: SIGTERM mid-sweep drains
        the in-flight wave, writes the checkpoint, exits cleanly with an
        ``interrupted`` summary — and a plain re-run finishes the rest."""
        spec = _spec_file(
            tmp_path,
            apps=["sleeper:sleep_seconds=1", "gromacs:iterations=20000"],
            machines=["thinkie", "comet"],
            seeds=[0, 1, 2, 3, 4, 5, 6, 7],  # 32 cells = 4 waves of 8
        )
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            # Slow every cell down so the sweep outlives the signal.
            {"point": "worker.execute", "mode": "delay", "delay": 0.12},
        ]}), encoding="utf-8")
        store = f"file://{tmp_path / 'store'}"
        summary = tmp_path / "summary.json"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from repro.cli.main import main; raise SystemExit(main())",
             "--store", store, "--faults", str(plan),
             "campaign", spec, "--processes", "1",
             "--json", str(summary)],
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        # Wait for the first checkpointed wave to land on disk: hard
        # proof the process is past startup (handler installed) and
        # mid-sweep — then signal during a later wave.
        store_dir = tmp_path / "store"
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if any(store_dir.glob("*.seg")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        else:
            proc.kill()
            raise AssertionError("campaign never wrote its first wave")
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, (stdout, stderr)
        assert "draining" in stderr
        assert "interrupted" in stdout
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["interrupted"] is True
        assert doc["failed"] == []
        # The drain checkpointed whole waves: a multiple of the default
        # checkpoint (8), at least one, not all.
        assert 0 < doc["executed"] + doc["skipped"] < doc["total"]
        # A plain re-run (no faults, no signal) completes the remainder.
        code, _ = run_cli(
            "--store", store, "campaign", spec,
            "--json", str(summary), "-q",
        )
        assert code == 0
        doc = json.loads(summary.read_text(encoding="utf-8"))
        assert doc["complete"] is True
        assert doc["skipped"] >= 8  # the drained waves survived
