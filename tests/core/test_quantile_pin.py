"""The 99 % interval, pinned across the move off ``scipy.stats``.

``aggregate`` takes its Student-t quantile from ``scipy.special.stdtrit``
(imported at first use — ``scipy.stats`` was most of a cold ``import
repro``).  Two pins: the two quantile functions agree bit for bit, and
``aggregate`` over a fixed profile set reproduces
``fixtures/golden_aggregate.json``, generated while ``aggregate`` still
called ``scipy.stats.t.ppf`` (the parent of PR 24) with::

    PYTHONPATH=src python tests/core/test_quantile_pin.py

Regenerate only when what ``aggregate`` *says* changes on purpose.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.samples import Profile, Sample
from repro.core.statistics import ProfileStats, aggregate

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_aggregate.json"

#: Profiles per group: the degrees of freedom the golden covers.
GROUP_SIZES = (2, 3, 5, 8, 13, 30, 100)


def profile_set(n: int) -> list[Profile]:
    """``n`` two-sample profiles with seeded spreads from 1e-9 to 0.5."""
    rng = random.Random(n)
    profiles = []
    for _ in range(n):
        runtime = 10.0 * (1.0 + 0.05 * rng.gauss(0.0, 1.0))
        cycles = 3.0e9 * (1.0 + 0.5 * rng.random())
        values = {
            "time.runtime": runtime / 2,
            "cpu.cycles_used": cycles / 2,
            "cpu.instructions": 1.7 * cycles / 2,
            "mem.peak": 1.0e8 * (1.0 + 1e-9 * rng.random()),
            "io.bytes_written": float(rng.randrange(1 << 20, 1 << 30)),
        }
        profiles.append(Profile(
            command=f"pin n{n}",
            tags=("pin",),
            samples=[
                Sample(0, 0.0, runtime / 2, values),
                Sample(1, runtime / 2, runtime / 2, values),
            ],
        ))
    return profiles


def snapshot(stats: ProfileStats) -> dict[str, dict[str, str | int]]:
    """Every field of every metric, floats by ``float.hex`` (exact)."""
    return {
        name: {
            "n": stat.n,
            **{
                key: getattr(stat, key).hex()
                for key in ("mean", "std", "minimum", "maximum", "ci99")
            },
        }
        for name, stat in sorted(stats.metrics.items())
    }


def test_stdtrit_is_t_ppf_bit_for_bit():
    from scipy import stats as sstats
    from scipy.special import stdtrit

    dfs = [*range(1, 2001), 10**4, 10**5, 10**6]
    differing = [
        df for df in dfs
        if float(stdtrit(df, 0.995)).hex() != float(sstats.t.ppf(0.995, df)).hex()
    ]
    assert differing == []


@pytest.mark.parametrize("n", GROUP_SIZES)
def test_aggregate_matches_parent_golden(n):
    golden = json.loads(FIXTURE_PATH.read_text())
    got = snapshot(aggregate(profile_set(n)))
    assert got == golden[str(n)]
    # The interval is a real number for every metric that varies.
    assert any(float.fromhex(row["ci99"]) > 0 for row in got.values())


if __name__ == "__main__":
    FIXTURE_PATH.write_text(json.dumps(
        {str(n): snapshot(aggregate(profile_set(n))) for n in GROUP_SIZES},
        indent=1, sort_keys=True,
    ) + "\n")
    print("wrote", FIXTURE_PATH)
