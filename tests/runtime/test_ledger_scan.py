"""Whole-ledger reads in bounded memory.

:func:`~repro.runtime.campaign.iter_ledger` reads the ledger through one
``store.scan``, so :func:`ledger_digest` and :func:`analyze_campaign`
hold one scan chunk of artifacts (the report: one ``(app, machine)``
group) instead of the ledger.  The oracles are the readers they replaced: ``ledger()``
as one ``get_many`` over every entry, and the report built from that
whole ledger.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc
from typing import Any
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.samples import Profile, Sample
from repro.core.statistics import aggregate
from repro.runtime import (
    CampaignSpec,
    RunService,
    analyze_campaign,
    iter_ledger,
    ledger,
    ledger_digest,
    run_campaign,
)
from repro.runtime.analyze import CampaignAnalysis, GroupStats, _line, _overhead_pct
from repro.runtime.campaign import _ledger_ids
from repro.storage import FileStore, MemoryStore, base

NAME = "scan"
#: A few cell digests: drawing from so few makes duplicates common.
CELLS = [hashlib.sha256(str(i).encode()).hexdigest()[:16] for i in range(5)]
SERIAL = RunService(processes=1)


def oracle_ledger(store: Any, name: str) -> dict[str, Any]:
    """``ledger()`` as it was: one ``get_many`` over every entry, the
    last ``(digest, id)`` pair of a digest winning."""
    pairs = _ledger_ids(store, name)
    profiles = store.get_many([pid for _digest, pid in pairs])
    return {digest: profile for (digest, _pid), profile in zip(pairs, profiles)}


# -- iter_ledger against the old ledger() --------------------------------------


@st.composite
def ledgers(draw: Any) -> list[list[tuple[str, ...]]]:
    """Waves (one ``put_many`` each) of entries' tags: a cell of this
    campaign, a cell of another one, or a malformed ``cell=`` tag."""
    tags = st.one_of(
        st.sampled_from(CELLS).map(lambda cell: (f"campaign={NAME}", f"cell={cell}")),
        st.sampled_from(CELLS).map(lambda cell: ("campaign=other", f"cell={cell}")),
        st.just((f"campaign={NAME}", "cell=not-a-digest")),
    )
    return draw(st.lists(st.lists(tags, min_size=1, max_size=4), min_size=1, max_size=4))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    waves=ledgers(),
    backend=st.sampled_from(["memory", "file"]),
    chunk=st.integers(1, 4),
    stamps=st.randoms(use_true_random=False),
)
def test_iter_ledger_is_the_old_ledger_in_digest_order(
    waves, backend, chunk, stamps, tmp_path_factory
):
    store = (
        MemoryStore() if backend == "memory"
        else FileStore(tmp_path_factory.mktemp("ledger"))
    )
    entries = [tags for wave in waves for tags in wave]
    # Distinct creation stamps in a drawn order: "newest" is unambiguous.
    created = stamps.sample(range(len(entries)), len(entries))
    n = 0
    for wave in waves:
        store.put_many([
            Profile(command=f"entry {n + i}", tags=tags, created=1e9 + created[n + i],
                    samples=[Sample(index=0, t=0.0, dt=1.0, values={"cpu.x": float(n + i)})])
            for i, tags in enumerate(wave)
        ])
        n += len(wave)
    newest: dict[str, tuple[float, str]] = {}
    for k, tags in enumerate(entries):
        if tags[0] == f"campaign={NAME}" and tags[1] != "cell=not-a-digest":
            digest = tags[1][len("cell="):]
            newest[digest] = max(newest.get(digest, (-1, "")), (created[k], f"entry {k}"))

    with mock.patch.object(base, "SCAN_CHUNK", chunk):
        scanned = [(digest, p.to_dict()) for digest, p in iter_ledger(store, NAME)]
        whole = ledger(store, NAME)
    want = sorted(oracle_ledger(store, NAME).items())
    assert scanned == [(digest, p.to_dict()) for digest, p in want]
    assert [digest for digest, _doc in scanned] == sorted(newest)
    assert [doc["command"] for _digest, doc in scanned] == [
        newest[digest][1] for digest in sorted(newest)
    ]
    assert [(digest, p.to_dict()) for digest, p in whole.items()] == scanned


# -- memory: the digest does not grow with the ledger --------------------------


def _profile_ledger(root: Any, cells: int) -> FileStore:
    """A file-store ledger of ``cells`` artifacts of 30 samples each,
    written in waves of eight as a campaign writes them."""
    store = FileStore(root)
    metrics = ("cpu.cycles_used", "cpu.instructions", "mem.rss", "io.read_bytes")
    for first in range(0, cells, 8):
        store.put_many(
            Profile(
                command="app", tags=(f"campaign={NAME}", f"cell={n:016x}"),
                samples=[
                    Sample(index=i, t=float(i), dt=1.0,
                           values={m: float(i * n + k) for k, m in enumerate(metrics)})
                    for i in range(30)
                ],
            )
            for n in range(first, first + 8)
        )
    return FileStore(root)


def _digest_peak(store: FileStore) -> int:
    """Traced peak bytes of one ``ledger_digest`` on a warm index."""
    store.entries()  # the index plane is loaded: it is not the read
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ledger_digest(store, NAME)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_the_digest_peak_does_not_grow_with_the_ledger(tmp_path):
    """The whole-ledger read held every artifact (and a payload cache
    kept them): 0.37 MB traced on 64 cells, 1.33 MB on 256 (3.6×).
    A scan holds one chunk: 0.30 MB and 0.33 MB (1.1×)."""
    small = _digest_peak(_profile_ledger(tmp_path / "64", 64))
    large = _digest_peak(_profile_ledger(tmp_path / "256", 256))
    assert large < 1.3 * small, (small, large)


# -- the report against the whole-ledger build ---------------------------------


def _spec(**fields: Any) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": NAME, "kind": "profile",
        "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
        "machines": ["thinkie", "comet", "archer"],
        "seeds": [0, 1], "repeats": 2, "config": {"sample_rate": 2.0},
        **fields,
    })


def oracle_analyze(spec: CampaignSpec, store: Any, reference: str | None = None):
    """``analyze_campaign`` as it was: every group built from the whole
    ledger held at once."""
    reference = reference or spec.machines[0]
    entries = oracle_ledger(store, spec.name)
    by_group: dict[tuple[str, str], list[Profile]] = {}
    expected: dict[tuple[str, str], int] = {}
    for cell in spec.cells():
        key = (cell.app, cell.machine)
        expected[key] = expected.get(key, 0) + 1
        profile = entries.get(cell.digest)
        if profile is not None:
            by_group.setdefault(key, []).append(profile)
    group_stats = {key: aggregate(profiles) for key, profiles in by_group.items()}
    ref_means = {
        app: {name: stat.mean for name, stat in group_stats[(app, reference)].metrics.items()}
        for app in spec.apps if (app, reference) in group_stats
    }
    groups = []
    for app in spec.apps:
        for machine in spec.machines:
            key = (app, machine)
            profiles = by_group.get(key, [])
            group = GroupStats(app=app, machine=machine, expected=expected[key],
                               present=len(profiles))
            if profiles:
                anchors = ref_means.get(app, {})
                group.metrics = {
                    name: _line(stat, anchors.get(name))
                    for name, stat in group_stats[key].metrics.items()
                }
                group.samples_mean = sum(p.n_samples for p in profiles) / len(profiles)
                group.sample_rate = profiles[0].sample_rate
                group.overhead_pct = _overhead_pct(profiles)
            groups.append(group)
    return CampaignAnalysis(
        name=spec.name, kind=spec.kind, reference=reference, groups=groups,
        expected_cells=spec.n_cells,
        present_cells=sum(len(profiles) for profiles in by_group.values()),
    )


@pytest.fixture(scope="module")
def artifacts() -> list[Profile]:
    """Every cell's artifact, in spec order."""
    spec = _spec()
    store = MemoryStore()
    assert run_campaign(spec, store, service=SERIAL).complete
    led = ledger(store, NAME)
    return [led[cell.digest] for cell in spec.cells()]


def _ledger_of(root: Any, profiles: list[Profile]) -> FileStore:
    store = FileStore(root)
    for first in range(0, len(profiles), 3):
        store.put_many(profiles[first : first + 3])
    return store


def _cases(artifacts: list[Profile]) -> dict[str, list[Profile]]:
    late = dataclasses.replace(
        artifacts[1], tags=artifacts[0].tags, created=artifacts[0].created + 1e6
    )
    return {
        "whole": artifacts,
        "written backwards": artifacts[::-1],
        # Groups missing, one group cut short.
        "partial": artifacts[:5] + artifacts[13:15],
        # Cell 0's newest entry is cell 1's artifact: it must win.
        "a newer duplicate": artifacts + [late],
    }


@pytest.mark.parametrize("case", ["whole", "written backwards", "partial",
                                  "a newer duplicate"])
@pytest.mark.parametrize("reference", [None, "archer"])
def test_the_report_is_the_whole_ledger_build(artifacts, tmp_path, case, reference):
    spec = _spec()
    profiles = _cases(artifacts)[case]
    for store in (_ledger_of(tmp_path / "file", profiles), MemoryStore()):
        if isinstance(store, MemoryStore):
            store.put_many(profiles)
        want = oracle_analyze(spec, store, reference)
        # A chunk of five cuts the groups of four cells mid-group.
        with mock.patch.object(base, "SCAN_CHUNK", 5):
            got = analyze_campaign(spec, store, reference)
        for fmt in ("table", "json", "csv"):
            assert got.render(fmt) == want.render(fmt), (case, fmt)
