"""Benchmark-harness plumbing.

The benchmarks register their result tables with
:func:`harness.report`; the tables are printed in the terminal summary
(so ``pytest benchmarks/bench_e7_throughput.py | tee out.txt`` captures
them) and written to ``benchmarks/results/<name>.txt``.
"""

from __future__ import annotations

from harness import print_reports


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    print_reports(terminalreporter)
