"""What a cold start may import.

Every CLI invocation, every spawn-started elastic worker and every pool
worker pays ``import repro`` again, so the package imports numpy and the
standard library only: ``scipy`` waits for the first ``aggregate`` with a
spread, ``networkx`` for the first skeleton graph.  Each case runs in a
subprocess — this test session has long since imported both.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy", "networkx")

#: Prints the heavy top-level packages ``sys.modules`` holds, as JSON.
REPORT = (
    "import json, sys; "
    f"print(json.dumps(sorted({{m.split('.')[0] for m in sys.modules}} & set({HEAVY!r}))))"
)


def run_python(*argv: str, cwd: Path | None = None) -> str:
    """stdout of ``python <argv>`` with ``src`` importable; fails loudly."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def heavy_after(code: str) -> list[str]:
    return json.loads(run_python("-c", f"{code}\n{REPORT}").splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    ["repro", "repro.runtime", "repro.cli.main", "repro.apps.skeleton", "repro.core.statistics"],
)
def test_import_loads_no_heavy_package(module):
    assert heavy_after(f"import {module}") == []


def test_spawned_worker_loads_no_heavy_package(tmp_path):
    """A spawn child starts from a fresh import of what its target needs."""
    script = tmp_path / "probe.py"
    script.write_text(
        "import multiprocessing\n"
        "def child(queue):\n"
        "    import repro.runtime.coordinator\n"
        "    import sys\n"
        "    queue.put(sorted({m.split('.')[0] for m in sys.modules}))\n"
        "if __name__ == '__main__':\n"
        "    context = multiprocessing.get_context('spawn')\n"
        "    queue = context.Queue()\n"
        "    process = context.Process(target=child, args=(queue,))\n"
        "    process.start()\n"
        "    loaded = queue.get(timeout=60)\n"
        "    process.join(timeout=60)\n"
        "    assert process.exitcode == 0, process.exitcode\n"
        "    import json\n"
        "    print(json.dumps(loaded))\n"
    )
    loaded = json.loads(run_python(str(script), cwd=tmp_path).splitlines()[-1])
    assert "repro" in loaded and "numpy" in loaded
    assert set(loaded) & set(HEAVY) == set()


def test_heavy_packages_load_at_first_use():
    """The other half of the budget: both still load, just later."""
    assert heavy_after(
        "from repro.core.samples import Profile, Sample\n"
        "from repro.core.statistics import aggregate\n"
        "ps = [Profile(command='a', samples=[Sample(0, 0.0, t, {'time.runtime': t})])\n"
        "      for t in (1.0, 2.0)]\n"
        "assert aggregate(ps[:1]).metric('tx').ci99 == 0.0\n"
        "import sys; assert 'scipy' not in sys.modules\n"
        "assert aggregate(ps).metric('tx').ci99 > 0\n"
    ) == ["scipy"]
    assert heavy_after(
        "from repro.apps import *\n"
        "import sys; assert 'networkx' not in sys.modules\n"
        "app = chain({'a': SleeperApp(), 'b': SleeperApp()})\n"
        "assert app.generations() == [['a'], ['b']]\n"
    ) == ["networkx"]


def test_skeleton_names_behave_as_before():
    import pickle

    import repro.apps
    from repro.apps import SkeletonApp, SleeperApp, fan_out_fan_in

    assert repro.apps.SkeletonApp is SkeletonApp
    assert {"SkeletonApp", "chain", "fan_out_fan_in"} <= set(dir(repro.apps))
    assert {"SkeletonApp", "chain", "fan_out_fan_in"} <= set(repro.apps.__all__)
    with pytest.raises(AttributeError):
        repro.apps.NoSuchApp
    app = fan_out_fan_in(SleeperApp(), {"w0": SleeperApp(), "w1": SleeperApp()}, SleeperApp())
    clone = pickle.loads(pickle.dumps(app))
    assert type(clone) is SkeletonApp
    assert clone.generations() == app.generations()
    assert clone.command() == app.command()
    assert [clone.component(n) for n in clone.graph] == [app.component(n) for n in app.graph]


def test_module_entry_points_run_without_warnings():
    """``-W error`` turns the old ``sys.modules`` RuntimeWarning into a failure."""
    import repro

    for entry in ("repro", "repro.cli.main"):
        assert run_python("-W", "error", "-m", entry, "--version").strip() == (
            f"repro {repro.__version__}"
        )


def test_cli_package_still_exports_its_functions():
    out = run_python(
        "-c",
        "import sys, repro.cli\n"
        "assert 'repro.cli.main' not in sys.modules\n"
        "from repro.cli import build_parser, main\n"
        "assert callable(main) and build_parser().prog == 'repro'\n"
        "assert repro.cli.main is main\n"
        "try:\n"
        "    repro.cli.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n",
    )
    assert "no attribute 'nope'" in out
