"""The planted-bug runner (``mutants.py``) in tier-1, in this process.

The no-op control survives, rows that prove nothing are broken, and the
three fastest rows are killed — with no interpreter to start.  Every
other row is only applied here; CI's *Mutants* step runs the whole
table, one fresh process per row.
"""

from __future__ import annotations

import pytest
from mutants import BY_NAME, CONTROL, ROWS, mutated, run_here

#: Each is killed in ≤ 0.25 s.
FAST = (
    "number-accepts-nan",
    "payload-read-skips-the-rehash",
    "compute-check-lets-inf-instructions-through",
)


@pytest.mark.parametrize("name", FAST)
def test_a_fast_row_is_killed(name):
    outcome = run_here(BY_NAME[name])
    assert outcome.status == "killed", outcome.detail


@pytest.mark.parametrize("name", [row.name for row in ROWS if row.name not in FAST])
def test_every_other_row_applies(name):
    # Its fragment occurs once and its mutant compiles and swaps in: a
    # change under src/ that moves the fragment fails here.
    with mutated(BY_NAME[name]):
        pass


def test_the_no_op_control_survives():
    outcome = run_here(CONTROL)
    assert outcome.status == "survived", outcome.detail


def test_a_fragment_not_in_the_source_is_broken():
    outcome = run_here(CONTROL._replace(fragment="no such source"))
    assert outcome.status == "broken"
    assert outcome.detail == "the fragment occurs 0 times in repro.core.errors:number, not once"


def test_a_node_that_collects_nothing_is_broken():
    outcome = run_here(CONTROL._replace(node="tests/core/test_input_surfaces.py::no_such_test"))
    assert outcome.status == "broken" and "collects no test" in outcome.detail


def test_a_mutant_that_fails_on_its_own_name_error_is_broken():
    # The bug written with a name the module never imported: the node
    # fails, but for the row's mistake.
    row = BY_NAME["number-accepts-nan"]._replace(
        replacement="kind = type(value)\n    if isnan(value):\n        return value"
    )
    outcome = run_here(row)
    assert outcome.status == "broken" and "NameError" in outcome.detail, outcome.detail
