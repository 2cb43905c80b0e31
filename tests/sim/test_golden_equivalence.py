"""Golden equivalence: the vectorised fast path matches the scalar engine.

The fixtures in ``fixtures/golden_records.json`` were produced by the
*pre-vectorisation* scalar engine and lockstep profiler (see
``gen_golden_fixtures.py``); these tests pin today's array-first
implementation to those numbers within 1e-9 relative tolerance — seeded
noisy runs must be indistinguishable before and after the rewrite.

``fixtures/golden_emulations.json`` pins whole emulation records
(profile → plan → packed workload → noisy replay) *exactly*: it was
generated by the per-sample plan builder and the per-stream timeline,
and the columnar emulate path must reproduce every bit of it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from gen_golden_fixtures import (
    CASES,
    EMULATION_CASES,
    EMULATION_FIXTURE_PATH,
    FIXTURE_PATH,
    PROFILE_CASES,
    emulation_case,
    profile_case,
    record_case,
)

RTOL = 1e-9


def _golden() -> dict:
    with open(FIXTURE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


GOLDEN = _golden()


def test_fixture_file_is_committed():
    assert Path(FIXTURE_PATH).exists()
    assert set(GOLDEN["records"]) == {name for name, *_ in CASES}
    assert set(GOLDEN["profiles"]) == {name for name, *_ in PROFILE_CASES}


@pytest.mark.parametrize(
    "name,machine,seed,factory", CASES, ids=[c[0] for c in CASES]
)
def test_record_matches_golden(name, machine, seed, factory):
    got = record_case(machine, seed, factory)
    expected = GOLDEN["records"][name]

    assert got["duration"] == pytest.approx(expected["duration"], rel=RTOL)
    assert got["n_io_events"] == expected["n_io_events"]
    assert got["totals"].keys() == expected["totals"].keys()
    for key, value in expected["totals"].items():
        assert got["totals"][key] == pytest.approx(value, rel=RTOL, abs=1e-12), key
    assert len(got["phase_bounds"]) == len(expected["phase_bounds"])
    for got_bounds, exp_bounds in zip(got["phase_bounds"], expected["phase_bounds"]):
        assert got_bounds == pytest.approx(exp_bounds, rel=RTOL, abs=1e-12)


@pytest.mark.parametrize(
    "name,machine,seed,rate,factory", PROFILE_CASES, ids=[c[0] for c in PROFILE_CASES]
)
def test_sampled_profile_matches_golden(name, machine, seed, rate, factory):
    got = profile_case(machine, seed, rate, factory)
    expected = GOLDEN["profiles"][name]

    assert got["tx"] == pytest.approx(expected["tx"], rel=RTOL)
    assert len(got["samples"]) == len(expected["samples"])
    for got_sample, exp_sample in zip(got["samples"], expected["samples"]):
        assert got_sample["t"] == pytest.approx(exp_sample["t"], rel=RTOL)
        assert got_sample["dt"] == pytest.approx(exp_sample["dt"], rel=RTOL)
        assert got_sample["values"].keys() == exp_sample["values"].keys()
        for key, value in exp_sample["values"].items():
            assert got_sample["values"][key] == pytest.approx(
                value, rel=RTOL, abs=1e-12
            ), (got_sample["t"], key)


def test_emulation_fixture_is_committed():
    with open(EMULATION_FIXTURE_PATH, encoding="utf-8") as handle:
        assert set(json.load(handle)) == {name for name, *_ in EMULATION_CASES}


@pytest.mark.parametrize(
    "name,iterations,profile_seed,machine,seed,config",
    EMULATION_CASES,
    ids=[c[0] for c in EMULATION_CASES],
)
def test_emulation_matches_golden_exactly(
    name, iterations, profile_seed, machine, seed, config
):
    with open(EMULATION_FIXTURE_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)[name]
    got = emulation_case(iterations, profile_seed, machine, seed, config)
    # Through JSON, as the fixture went: series entries become lists.
    assert json.loads(json.dumps(got)) == expected
