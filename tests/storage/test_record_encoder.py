"""The FileStore's record encoder against the one-call encode it replaced.

A record is written a part at a time (``filestore._record``): a profile
of a :class:`~repro.core.profiler.ProfileBlock` takes what the block's
rows share, encoded once per block (a per-row column of numbers too),
and every other part is encoded on the spot.  Its bytes must be those of encoding the whole
document in one call — :func:`oracle_record`, the encoder it replaced.
The property draws lone profiles and rows of drawn blocks, each row with
a drawn set of its documents read (and some of those scribbled on)
before the encode: values hold −0.0, NaN, ±inf, huge ints, non-ASCII
text, keys that are not strings, shared and per-row ``None`` values
(which a row drops), and sample tables that are empty or ragged.

Tier-1 runs a small derandomized set; the wide search runs with
``test_ledger_digest.py`` under its profile::

    PYTHONPATH=src python -m pytest tests/runtime/test_ledger_digest.py \\
        tests/storage/test_record_encoder.py \\
        --hypothesis-profile=ledger-digest --hypothesis-seed=1
"""

from __future__ import annotations

import base64
import json
import math
from typing import Any

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.profiler import ProfileBlock
from repro.core.samples import Profile, SampleTable
from repro.storage.filestore import _record
from repro.watchers.base import PerRow, PerRowMap

from tests.runtime.conftest import LEDGER_DIGEST_PROFILE

DOCUMENTS = ("machine", "config", "statics", "info")


def _b64(array: np.ndarray, dtype: str) -> str:
    return base64.b64encode(np.ascontiguousarray(array, dtype=dtype)).decode("ascii")


def _encode_samples(samples: SampleTable) -> dict[str, Any]:
    """The columns object a v3 record holds in place of its samples."""
    columns = {
        "metrics": list(samples.metrics),
        "watchers": list(samples.watchers),
        "index": _b64(samples.index, "<i8"),
        "t": _b64(samples.t, "<f8"),
        "dt": _b64(samples.dt, "<f8"),
        "values": _b64(samples.values, "<f8"),
        "times": _b64(samples.times, "<f8"),
    }
    if samples.has_values is not None:
        columns["has_values"] = _b64(samples.has_values, "u1")
    if samples.has_times is not None:
        columns["has_times"] = _b64(samples.has_times, "u1")
    return columns


_dumps = json.JSONEncoder(check_circular=False).encode


def oracle_record(profile: Profile) -> bytes:
    """A record as the store wrote it before: one encode of the whole
    document, the samples as their columns object."""
    document = profile.to_dict()
    document["samples"] = _encode_samples(profile.samples)
    return _dumps(document).encode("utf-8")


def property_settings(examples: int) -> settings:
    """Tier-1's derandomized set, or the loaded wide-search profile."""
    if settings.get_current_profile_name() == LEDGER_DIGEST_PROFILE:
        return settings.default
    return settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


# -- drawn values ----------------------------------------------------------------

floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats,
    st.text(max_size=4), floats.map(np.float64),
)
keys = st.one_of(
    st.text(max_size=4), st.text(max_size=4), st.integers(-3, 3), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
)
values = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(keys, kids, max_size=3),
    ),
    max_leaves=6,
)
documents = st.dictionaries(keys, values, max_size=4)


@st.composite
def tables(draw: Any) -> SampleTable:
    """A sample table: possibly empty, possibly ragged, special floats."""
    n = draw(st.integers(0, 3))
    metrics = draw(st.lists(st.text(max_size=3), max_size=3, unique=True))
    watchers = draw(st.lists(st.sampled_from(["cpu", "memory", "io"]), max_size=2, unique=True))
    cells = st.lists(floats, min_size=n, max_size=n)

    def grid(width: int) -> Any:
        return np.array([draw(st.lists(floats, min_size=width, max_size=width))
                         for _ in range(n)]).reshape(n, width)

    def mask(width: int) -> Any:
        if not draw(st.booleans()):
            return None
        return np.array([draw(st.lists(st.booleans(), min_size=width, max_size=width))
                         for _ in range(n)], dtype=bool).reshape(n, width)

    return SampleTable(
        metrics, watchers, draw(st.lists(st.integers(-5, 2**40), min_size=n, max_size=n)),
        draw(cells), draw(cells), grid(len(metrics)), grid(len(watchers)),
        mask(len(metrics)), mask(len(watchers)),
    )


@st.composite
def lone_profiles(draw: Any) -> Profile:
    return Profile(
        command=draw(st.text(max_size=6)),
        tags=draw(st.lists(st.text(max_size=4), max_size=3)),
        machine=draw(documents), config=draw(documents),
        sample_rate=draw(floats), samples=draw(tables()),
        statics=draw(documents), info=draw(documents),
        truncated=draw(st.booleans()), created=draw(floats),
    )


def templates(rows: int) -> Any:
    """A document of a block as its rows read it: a shared value, a
    :class:`PerRow` (of values or ``None``), or a :class:`PerRowMap`."""
    per_row = st.lists(
        st.one_of(st.none(), values), min_size=rows, max_size=rows
    ).map(PerRow)
    numbers = st.lists(
        st.one_of(st.integers(-(2**70), 2**70), floats), min_size=rows, max_size=rows
    ).map(PerRow)
    # Text that JSON writes with the ", " between a list's items.
    commas = st.lists(
        st.text(alphabet=', "\\1', max_size=4), min_size=rows, max_size=rows
    ).map(PerRow)
    return st.recursive(
        st.one_of(values, per_row, numbers, commas),
        lambda kids: st.dictionaries(keys, kids, max_size=3).map(PerRowMap),
        max_leaves=6,
    )


@st.composite
def block_rows(draw: Any) -> list[Profile]:
    """The rows of a drawn block, with some of their documents read —
    and some of those scribbled on — before they are encoded."""
    rows = draw(st.integers(1, 3))
    mapping = st.dictionaries(keys, templates(rows), max_size=4).map(PerRowMap)
    whole = st.lists(documents, min_size=rows, max_size=rows).map(PerRow)
    samples = [draw(tables()) for _ in range(rows)]
    block = ProfileBlock(
        {
            "machine": draw(documents), "config": draw(documents),
            "statics": draw(st.one_of(mapping, whole)), "info": draw(mapping),
        },
        samples[0],
    )
    profiles = [
        Profile._in_block(
            block, row, command=draw(st.text(max_size=6)),
            tags=tuple(draw(st.lists(st.text(max_size=4), max_size=3))),
            sample_rate=draw(floats), samples=table,
            truncated=draw(st.booleans()), created=draw(floats),
        )
        for row, table in enumerate(samples)
    ]
    for profile in profiles:
        for name in draw(st.lists(st.sampled_from(DOCUMENTS), unique=True)):
            document = getattr(profile, name)
            if draw(st.booleans()):
                document["scribbled"] = draw(values)
    return profiles


# -- the property ------------------------------------------------------------------


def _encoded(profile: Profile) -> Any:
    """The record, or the type of the exception raised instead."""
    try:
        return _record(profile)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _oracle(profile: Profile) -> Any:
    try:
        return oracle_record(profile)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


@property_settings(60)
@given(lone_profiles())
def test_a_lone_profile_is_encoded_as_the_whole_document(profile):
    assert _encoded(profile) == _oracle(profile)


@property_settings(60)
@given(block_rows())
def test_a_block_row_is_encoded_as_its_whole_document(profiles):
    # Each row before the oracle reads (and so builds) its documents.
    encoded = [_encoded(profile) for profile in profiles]
    assert encoded == [_oracle(profile) for profile in profiles]
