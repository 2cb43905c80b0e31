"""``ledger_digest`` against the two-pass digest it replaced.

``ledger_digest`` feeds one hash cell by cell and serialises each
artifact once; :func:`oracle_ledger_digest` is the function it replaced
(a JSON round trip per artifact in ``comparable_artifact``, then one dump
of the whole ledger).  The property draws ledgers on ``MemoryStore`` and
``FileStore`` — duplicate cells, where the newest entry wins — whose
``statics`` and ``info`` hold nested dicts with str keys and with int /
float / bool / None keys (which must fall back), tuples, NaN, ±inf,
−0.0, numpy scalars, objects only ``default=str`` can write, dict and
list subclasses, and an ``info["process"]`` that is absent, a dict or
not one; on ``MemoryStore`` also documents without ``info`` or with a
non-dict one.  Both functions must give the same hex digest, or raise
the same exception type, and leave every stored profile as it was.

Tier-1 runs a small derandomized set; the wide search loads the
``ledger-digest`` profile (``conftest.py``)::

    PYTHONPATH=src python -m pytest tests/runtime/test_ledger_digest.py \\
        --hypothesis-profile=ledger-digest --hypothesis-seed=1
"""

from __future__ import annotations

import hashlib
import json
import math
import tempfile
import tracemalloc
from dataclasses import dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.samples import Profile, Sample
from repro.runtime import (
    CampaignSpec,
    RunService,
    comparable_artifact,
    ledger,
    ledger_digest,
    run_campaign,
)
from repro.storage import FileStore
from repro.storage.base import MemoryStore
from repro.telemetry.metrics import get_registry

from tests.runtime.conftest import LEDGER_DIGEST_PROFILE

NAME = "led"
FALLBACKS = "campaign.digest.fallbacks"
#: A few cell digests: drawing from so few makes duplicates common.
CELLS = [hashlib.sha256(str(i).encode()).hexdigest()[:16] for i in range(4)]
#: A drawn ``info["process"]`` (or ``Reshaped.doc_info``) that leaves
#: the key out of the document.
ABSENT = object()


def oracle_ledger_digest(store: Any, name: str) -> str:
    """``ledger_digest`` as it was before it hashed as it went."""
    led = ledger(store, name)
    payload = json.dumps(
        {digest: comparable_artifact(profile)
         for digest, profile in sorted(led.items())},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def outcome(digest: Any, store: Any) -> Any:
    """The hex digest, or the type of the exception raised instead."""
    try:
        return digest(store, NAME)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


# -- drawn documents ------------------------------------------------------------


class _Dict(dict):
    pass


class _List(list):
    pass


class Opaque:
    """A value ``json`` cannot write: ``default=str`` turns it into text."""

    def __init__(self, text: str) -> None:
        self.text = text

    def __str__(self) -> str:
        return f"<opaque {self.text}>"


@dataclass
class Reshaped(Profile):
    """A stored artifact whose document has no ``info``, or a non-dict
    one — which :func:`comparable_artifact` rejects."""

    doc_info: Any = ABSENT

    def to_dict(self) -> dict[str, Any]:
        doc = super().to_dict()
        if self.doc_info is ABSENT:
            del doc["info"]
        else:
            doc["info"] = self.doc_info
        return doc


floats = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: What a ``FileStore`` can write: ``json`` types, a float subclass.
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), floats,
    st.text(max_size=4), floats.map(np.float64),
)
#: What only ``default=str`` writes; kept in memory stores.
odd_leaves = st.one_of(
    st.integers(-(2**40), 2**40).map(np.int64), st.floats(width=32).map(np.float32),
    st.booleans().map(np.bool_), st.text(max_size=3).map(Opaque),
    st.builds(complex, floats, floats),
)
str_keys = st.text(max_size=3)
#: The key strategies of an artifact that falls back, one per drawn
#: dict: mostly str, else one other key type (the round trip re-sorts
#: those) or str and int mixed (unsortable).
odd_key_kinds = st.sampled_from([
    str_keys, str_keys, str_keys,
    st.integers(-12, 12), st.floats(allow_nan=False), st.booleans(), st.none(),
    st.one_of(str_keys, st.integers(0, 3)),
])


@st.composite
def mappings(draw: Any, children: Any, key_kinds: Any) -> dict:
    keys = draw(key_kinds)
    kind = draw(st.sampled_from([dict, dict, _Dict]))
    return kind(draw(st.dictionaries(keys, children, max_size=4)))


def values(storable: bool, key_kinds: Any) -> Any:
    leaves = json_leaves if storable else st.one_of(json_leaves, odd_leaves)
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, max_size=3),
            st.lists(kids, max_size=3).map(tuple),
            st.lists(kids, max_size=3).map(_List),
            mappings(kids, key_kinds),
        ),
        max_leaves=8,
    )


samples = st.lists(
    st.builds(
        Sample,
        index=st.integers(0, 9), t=floats, dt=floats,
        values=st.dictionaries(st.sampled_from(["cpu.flops", "mem.rss"]), floats),
        watcher_times=st.dictionaries(st.sampled_from(["cpu", "memory"]), floats),
    ),
    max_size=2,
)


@st.composite
def artifacts(draw: Any, storable: bool) -> Profile:
    """One ledger entry: a profile tagged with a drawn cell; half of
    them have only str keys, so they take the one-pass path."""
    key_kinds = draw(st.sampled_from([st.just(str_keys), odd_key_kinds]))
    any_value = values(storable, key_kinds)
    info = dict(draw(st.dictionaries(str_keys, any_value, max_size=3)))
    process = draw(st.one_of(
        st.just(ABSENT),
        st.builds(
            lambda pid, rest: {**rest, "pid": pid},
            st.integers(1, 2**22), st.dictionaries(str_keys, any_value, max_size=2),
        ),
        any_value,
    ))
    if process is not ABSENT:
        info["process"] = process
    fields = dict(
        command="app",
        tags=(f"campaign={NAME}", f"cell={draw(st.sampled_from(CELLS))}"),
        statics=draw(mappings(any_value, key_kinds)),
        info=info,
        samples=draw(samples),
        created=draw(st.floats(0.0, 4e9)),
    )
    if not storable and draw(st.integers(0, 9)) == 0:
        # No ``info``, or one the round trip leaves without ``.get``.
        doc_info = draw(st.one_of(st.just(ABSENT), st.none(), st.lists(json_leaves)))
        return Reshaped(**fields, doc_info=doc_info)
    return Profile(**fields)


def property_settings(examples: int) -> settings:
    """Tier-1's derandomized set, or the loaded wide-search profile."""
    if settings.get_current_profile_name() == LEDGER_DIGEST_PROFILE:
        return settings.default
    return settings(
        max_examples=examples, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )


# -- the property ---------------------------------------------------------------


def _assert_same_digest(store: Any) -> None:
    assert outcome(ledger_digest, store) == outcome(oracle_ledger_digest, store)


def ledgers(storable: bool) -> Any:
    """One or two waves of artifacts, each wave one ``put_many``."""
    return st.lists(
        st.lists(artifacts(storable), min_size=1, max_size=4), min_size=1, max_size=2
    )


@property_settings(60)
@given(ledgers(storable=False))
def test_memory_ledgers_digest_as_the_oracle(waves):
    store = MemoryStore()
    for wave in waves:
        store.put_many(wave)
    stored = [p for wave in waves for p in wave]
    before = [repr(p.to_dict()) for p in stored]
    _assert_same_digest(store)
    # Neither digest touches the profiles the store hands out.
    assert [repr(p.to_dict()) for p in stored] == before


@property_settings(40)
@given(ledgers(storable=True))
def test_file_ledgers_digest_as_the_oracle(waves):
    with tempfile.TemporaryDirectory() as root:
        store = FileStore(root)
        for wave in waves:
            store.put_many(wave)
        _assert_same_digest(store)
        # Twice on the warm handle, once on a cold one.
        _assert_same_digest(store)
        _assert_same_digest(FileStore(root))


# -- the fallback rule ----------------------------------------------------------


def _profile(**fields: Any) -> Profile:
    return Profile(command="app", tags=(f"campaign={NAME}", f"cell={CELLS[0]}"), **fields)


@pytest.mark.parametrize("statics, fallbacks", [
    ({2: 1.0, 10: 2.0}, 1),
    ({"a": {True: 1}}, 1),
    ({"a": ({None: 1},)}, 1),
    ({"a": _List([_Dict({"b": np.float32(1.5)})])}, 0),
    ({"a": [math.nan, -0.0, (math.inf,)], "b": Opaque("x")}, 0),
    # Re-sorted by the round trip, under subclasses the derandomized
    # property may not draw.
    ({"a": _List([_Dict({2: 1.0, 10: 2.0})])}, 1),
])
def test_only_non_str_keys_fall_back(statics, fallbacks):
    """``{2: .., 10: ..}`` writes ``"2"`` first, its round trip ``"10"``
    first: only a document with such a key at any depth takes the
    oracle's path."""
    store = MemoryStore()
    store.put(_profile(statics=statics, info={"process": {"pid": 7}}))
    get_registry().reset()
    _assert_same_digest(store)
    assert get_registry().counter(FALLBACKS) == fallbacks


def test_a_cycle_raises_as_the_oracle_does():
    looped: dict = {}
    looped["self"] = [looped]
    store = MemoryStore()
    store.put(_profile(info={"loop": looped}))
    assert outcome(ledger_digest, store) is ValueError
    _assert_same_digest(store)


def test_a_shared_subtree_is_no_cycle():
    shared = {"k": (1, 2)}
    store = MemoryStore()
    store.put(_profile(statics={"a": shared, "b": [shared, shared]}))
    get_registry().reset()
    _assert_same_digest(store)
    assert get_registry().counter(FALLBACKS) == 0


def test_the_empty_ledger():
    assert ledger_digest(MemoryStore(), NAME) == hashlib.sha256(b"{}").hexdigest()


# -- real campaigns -------------------------------------------------------------

SERIAL = RunService(processes=1)


def _spec(kind: str, seeds: int = 1) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": NAME, "kind": kind,
        "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=2"],
        "machines": ["thinkie", "comet"],
        "seeds": list(range(seeds)), "repeats": 2, "config": {"sample_rate": 2.0},
    })


def test_real_ledgers_take_no_fallback(tmp_path):
    for kind, store in (("profile", MemoryStore()), ("run", MemoryStore()),
                        ("profile", FileStore(tmp_path / "file"))):
        assert run_campaign(_spec(kind), store, service=SERIAL).complete
        get_registry().reset()
        _assert_same_digest(store)
        assert get_registry().counter(FALLBACKS) == 0, kind


def _traced_peak(fn: Any) -> int:
    """Peak traced bytes above the start while ``fn`` runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_memory_beyond_the_ledger_read_is_one_artifact():
    """On 64 cells the digest's traced peak above ``ledger()``'s stays
    under half the cells' summed comparable text; holding every
    comparable document (the old digest) is ≈ 11× that sum."""
    store = MemoryStore()
    assert run_campaign(_spec("profile", seeds=8), store, service=SERIAL).complete
    led = ledger(store, NAME)
    assert len(led) == 64
    texts = sum(
        len(json.dumps(comparable_artifact(p), sort_keys=True, default=str))
        for p in led.values()
    )
    del led
    ledger_digest(store, NAME)  # warm: the counters and caches it touches
    read = _traced_peak(lambda: ledger(store, NAME))
    digest = _traced_peak(lambda: ledger_digest(store, NAME))
    assert digest - read < texts / 2, (digest, read, texts)
