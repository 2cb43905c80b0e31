"""The traffic suite's statistical tolerance.

Stochastic assertions here are *seeded* — every test draws from a fixed
RNG stream, so failures are deterministic, never flaky.  Tolerances
still scale with sample size through :func:`assert_stat_close`: the
standard error of a mean-like statistic shrinks as 1/sqrt(n), so the
allowed relative deviation is ``tol`` at the reference size of 10,000
samples and widens/narrows as sqrt(10_000 / n) for smaller/larger runs.

A module of its own, not a ``conftest``: test modules import it by a
name no other directory uses, so any selection of test files collects.
"""

from __future__ import annotations

import math

#: Sample count at which ``tol`` applies exactly.
REFERENCE_N = 10_000


def assert_stat_close(
    observed: float, expected: float, tol: float, n: int, label: str = "statistic"
) -> None:
    """Assert a sampled statistic matches its analytic value.

    ``tol`` is the allowed relative deviation at ``REFERENCE_N``
    samples; the bound scales as sqrt(REFERENCE_N / n) so the same
    nominal tolerance works for quick and long runs.  An absolute floor
    of ``tol / 10`` guards expected values near zero.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    allowed = abs(expected) * tol * math.sqrt(REFERENCE_N / n) + tol / 10.0
    deviation = abs(observed - expected)
    assert deviation <= allowed, (
        f"{label}: observed {observed:.6g} vs expected {expected:.6g} "
        f"(deviation {deviation:.3g} > allowed {allowed:.3g} at n={n})"
    )
