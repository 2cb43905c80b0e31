"""The paper's figures and tables as tier-1 checks.

Each module regenerates one figure or table of the paper's §5 on the
simulation plane and asserts the paper's claims about it.  The shared
experiment helpers live in ``benchmarks/harness.py``, which this
conftest puts on ``sys.path``; the result tables print in pytest's
terminal summary and land in ``benchmarks/results/<figure>.txt``.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))

from harness import print_reports  # noqa: E402 (needs the path above)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    print_reports(terminalreporter)
