"""Shared helpers for the CLI tests."""

from __future__ import annotations

import io

from repro.cli.main import main


def run_cli(*argv: str) -> tuple[int, str]:
    """``repro argv...`` in-process: its exit code and its stdout."""
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()
