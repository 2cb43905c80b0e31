"""CLI telemetry surface: --log-level/--log-json/--trace and progress."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.cli.main import main
from repro.telemetry import get_bus, reset_telemetry


@pytest.fixture(autouse=True)
def clean_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


def _spec_file(tmp_path) -> str:
    spec = {
        "name": "tel-cli",
        "apps": ["sleeper:sleep_seconds=1", "gromacs:iterations=20000"],
        "machines": ["thinkie", "comet"],
        "config": {"sample_rate": 2.0},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


class TestCampaignProgress:
    def test_progress_lines_printed_by_default(self, tmp_path):
        code, text, _ = run_cli(
            "--store", f"file://{tmp_path / 's'}", "campaign", _spec_file(tmp_path)
        )
        assert code == 0
        assert "wave 1/1:" in text
        assert "completed 4/4" in text
        assert "elapsed" in text

    def test_quiet_suppresses_progress(self, tmp_path):
        code, text, _ = run_cli(
            "--store", f"file://{tmp_path / 's'}", "campaign",
            _spec_file(tmp_path), "-q",
        )
        assert code == 0
        assert "wave 1/1" not in text
        assert "campaign 'tel-cli'" in text  # the summary table stays


class TestTelemetryFlags:
    def test_trace_flag_writes_chrome_trace(self, tmp_path):
        trace = tmp_path / "trace.json"
        code, _, _ = run_cli(
            "--store", f"file://{tmp_path / 's'}", "campaign",
            _spec_file(tmp_path), "--trace", str(trace), "-q",
        )
        assert code == 0
        doc = json.loads(trace.read_text(encoding="utf-8"))
        names = {event["name"] for event in doc["traceEvents"]}
        assert {"campaign.run", "campaign.wave", "run.request"} <= names
        # Per-request spans chain up to their wave span through args.
        by_id = {
            e["args"]["span_id"]: e
            for e in doc["traceEvents"]
            if "span_id" in e.get("args", {})
        }
        request = next(
            e for e in doc["traceEvents"] if e["name"] == "run.request"
        )
        chain = []
        parent = request["args"].get("parent_id")
        while parent in by_id:
            chain.append(by_id[parent]["name"])
            parent = by_id[parent]["args"].get("parent_id")
        assert "campaign.wave" in chain and chain[-1] == "campaign.run"

    def test_log_json_lines_parse(self, tmp_path):
        code, _, err = run_cli(
            "--store", f"file://{tmp_path / 's'}", "campaign",
            _spec_file(tmp_path), "--log-json", "-q",
        )
        assert code == 0
        lines = [line for line in err.splitlines() if line.strip()]
        assert lines
        docs = [json.loads(line) for line in lines]
        assert any(doc["name"] == "campaign.wave.finish" for doc in docs)

    def test_log_level_filters(self, tmp_path):
        _, _, info_err = run_cli(
            "--store", f"file://{tmp_path / 's1'}", "campaign",
            _spec_file(tmp_path), "--log-level", "info", "-q",
        )
        assert "campaign.wave" in info_err
        _, _, error_err = run_cli(
            "--store", f"file://{tmp_path / 's2'}", "campaign",
            _spec_file(tmp_path), "--log-level", "error", "-q",
        )
        assert "campaign.wave" not in error_err

    def test_flags_accepted_before_the_subcommand(self, tmp_path):
        trace = tmp_path / "trace.json"
        code, _, _ = run_cli(
            "--store", f"file://{tmp_path / 's'}", "--trace", str(trace),
            "campaign", _spec_file(tmp_path), "-q",
        )
        assert code == 0
        assert json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]

    def test_flags_on_non_campaign_subcommands(self, tmp_path):
        trace = tmp_path / "machines.json"
        code, text, _ = run_cli("machines", "--trace", str(trace))
        assert code == 0 and "localhost" in text
        assert json.loads(trace.read_text(encoding="utf-8"))[
            "otherData"
        ]["source"] == "repro.telemetry"

    def test_sinks_detached_after_main_returns(self, tmp_path):
        trace = tmp_path / "trace.json"
        run_cli("machines", "--trace", str(trace))
        assert not get_bus().active


class TestEmulateTrace:
    """A stored profile emulated twice: the same output, and one
    ``engine.run`` span each (a single emulation is the engine's one-row
    replay) whose sample phases ran as runs, with nothing folded."""

    def test_two_emulations_print_the_same_and_fold_nothing(self, tmp_path):
        store = f"file://{tmp_path / 's'}"
        code, _, _ = run_cli(
            "--store", store, "profile-app", "gromacs:iterations=10000000",
            "--machine", "thinkie", "--rate", "2",
        )
        assert code == 0
        outputs = []
        for index in range(2):
            trace = tmp_path / f"emulate{index}.json"
            code, text, _ = run_cli(
                "--store", store, "emulate", "gmx mdrun -nsteps 10000000",
                "--machine", "comet", "--trace", str(trace),
            )
            assert code == 0, text
            outputs.append(text)
            events = json.loads(trace.read_text(encoding="utf-8"))["traceEvents"]
            [span] = [e for e in events if e["name"] in ("engine.run", "engine.replay")]
            assert span["name"] == "engine.run"
            run = span["args"]
            # A few hundred samples, one phase each, every stream one demand.
            assert run["run_phases"] > 100, run
            assert run["demands"] > run["run_phases"], run
            # The CLI prints Tx and the startup delay only: no series read.
            assert not [e for e in events if e["name"] == "engine.fold"]
        assert outputs[0] == outputs[1]
