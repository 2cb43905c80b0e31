"""Profiles come back from every persistent store exactly as they went in.

The file store writes samples as binary columns (v3 records), the Mongo
store keeps ``to_dict`` documents (here through a database file); both
must hand back a profile whose ``to_dict()`` is the original's with every
float equal by ``repr`` — NaN, ±inf, −0.0 and subnormals included — for
ragged samples (empty ``values``, watcher stamps on some samples only),
any ``index`` column and no samples at all.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.samples import Profile, Sample
from repro.storage import FileStore, MongoStore
from repro.storage.mongostore import MongoLite

SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308]

numbers = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)

samples = st.lists(
    st.builds(
        Sample,
        index=st.integers(-(2**63), 2**63 - 1),
        t=numbers,
        dt=numbers,
        values=st.dictionaries(
            st.sampled_from(["cpu.cycles_used", "mem.rss", "io.bytes_read", "x.y"]),
            numbers, max_size=4,
        ),
        watcher_times=st.dictionaries(
            st.sampled_from(["cpu", "memory", "storage"]), numbers, max_size=3
        ),
    ),
    max_size=6,
)

profiles = st.builds(
    Profile,
    command=st.sampled_from(["app a", "gmx mdrun"]),
    tags=st.sampled_from([(), ("k=1",), ("cell=ab", "rep=0")]),
    samples=samples,
    statics=st.dictionaries(st.sampled_from(["sys.cores", "time.runtime"]), numbers),
    info=st.fixed_dictionaries({"offset": numbers}),
    created=st.floats(0.0, 4e9),
)


def reprs(profile: Profile) -> str:
    """The profile's ``to_dict()`` with every float written by ``repr``."""
    return json.dumps(profile.to_dict(), sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(st.lists(profiles, min_size=1, max_size=4))
def test_file_store_v3_is_exact(wave):
    with tempfile.TemporaryDirectory() as root:
        ids = FileStore(root).put_many(wave)
        fresh = FileStore(root)
        assert [reprs(p) for p in fresh.get_many(ids)] == [reprs(p) for p in wave]
        # Queries see the to_dict shape: the sample list, not its columns.
        for pid, profile in zip(ids, wave):
            query = {"samples": {"$size": profile.n_samples}}
            assert pid in fresh.find_ids(query=query)


@settings(max_examples=60, deadline=None)
@given(st.lists(profiles, min_size=1, max_size=4))
def test_mongo_store_is_exact(wave):
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "db.json"
        ids = MongoStore(MongoLite(path)).put_many(wave)
        fresh = MongoStore(MongoLite(path))
        assert [reprs(p) for p in fresh.get_many(ids)] == [reprs(p) for p in wave]
