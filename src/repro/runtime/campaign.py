"""Declarative campaigns: sweeps with a resumable on-store ledger.

A *campaign* is a declarative description of an experiment sweep — the
cross product of application specs, machine models, noise seeds and
repeats — executed through the :class:`~repro.runtime.service.RunService`
and recorded in a :class:`~repro.storage.base.ProfileStore`.

Every cell of the sweep has a deterministic identity (a digest over the
cell's parameters *and* the spec settings that influence its result);
the stored artifact carries that identity in its tags
(``campaign=<name>``, ``cell=<digest>``).  The store therefore *is* the
campaign ledger: re-running a campaign queries it first and only
executes the missing cells, so an interrupted sweep resumes where it
stopped and a completed sweep is a no-op.  Because each cell's noise
derives from its own ``(seed, repeat)`` identity — never from execution
order — a resumed campaign's ledger is identical to an uninterrupted
run's.

Spec form (dict or JSON file)::

    {
      "name": "sweep1",
      "kind": "profile",                      // or "run" (raw engine)
      "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=2"],
      "machines": ["thinkie", "comet"],
      "seeds": [0, 1],                        // default [0]
      "repeats": 2,                           // default 1
      "noisy": true,                          // default true
      "config": {"sample_rate": 2.0},         // SynapseConfig kwargs
      "tags": {"experiment": "demo"},         // extra tags on every cell
      "policy": {"retries": 1, "timeout": null, "backoff": 0.0}
    }

Several invocations on one store: :func:`run_campaign` is the lone,
protocol-free loop — it reads the ledger once and executes what was
missing then.  Invocations that share a sweep (several hosts, a local
fleet, a late joiner) go through
:func:`repro.runtime.coordinator.elastic_worker` instead, whose leases
are the one mutual-exclusion protocol; both loops execute a wave through
the same body (:class:`_Sweep`).  Because every cell's result derives
only from its own identity, a double execution — a lone loop raced
against anything, a steal window — stores a bit-identical duplicate that
resume and analysis dedupe by digest: ugly, never wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import secrets
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from repro.core.config import SynapseConfig
from repro.core.errors import (
    ConfigError,
    flag,
    is_retryable,
    mapping,
    names,
    text,
    whole_number,
)
from repro.core.samples import Profile
from repro.runtime.execute import PlanScope, plan_scope
from repro.runtime.service import RunPolicy, RunRequest, RunService, get_service
from repro.sim.machines import get_machine, resolve_machine
from repro.telemetry.events import get_bus
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.util.tables import Table

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "comparable_artifact",
    "completed_cells",
    "iter_ledger",
    "ledger",
    "ledger_digest",
    "ledger_ids",
    "run_campaign",
]

_KINDS = ("profile", "run")
_SPEC_KEYS = frozenset(
    {"name", "kind", "apps", "machines", "seeds", "repeats", "noisy", "config",
     "tags", "policy"}
)

#: Cells stored per checkpoint wave: an interrupted sweep keeps every
#: finished wave in the ledger and resumes from the next one.
DEFAULT_CHECKPOINT = 8

#: Attempts per ledger store operation (scans, artifact and marker
#: writes) before a transient store failure fails the campaign.
STORE_ATTEMPTS = 3


def wave_limits(size_name: str, size: Any, limit: Any = None) -> tuple[int, int | None]:
    """A campaign loop's wave size and cap, checked: ``size`` (the
    ``checkpoint`` of :func:`run_campaign`, the ``batch`` of an elastic
    worker) a whole number >= 1, ``limit`` ``None`` or a whole number
    >= 0, both by :func:`~repro.core.errors.whole_number`, before the
    loop touches the store."""
    cap = None if limit is None else whole_number("limit", limit, 0)
    return whole_number(size_name, size, 1), cap


def _store_op(what: str, fn: Callable[[], Any]) -> Any:
    """Run one ledger store operation with short transient-fault retries.

    Long campaigns should not die to a single flaky store call (NFS
    hiccup, injected chaos): retryable failures (per
    :func:`~repro.core.errors.is_retryable`) get
    :data:`STORE_ATTEMPTS` tries with a small deterministic-jitter
    sleep; fatal errors and exhausted budgets propagate.  On the file
    store a ``put_many`` is all-or-nothing (one segment, renamed into
    place), so a retried wave stores exactly the wave; backends without
    that guarantee may leave duplicate artifacts behind a partial
    failure — bit-identical, deduped by digest on resume and analysis
    (the module-docstring invariant: ugly, never wrong).
    """
    for attempt in range(1, STORE_ATTEMPTS + 1):
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - classified below
            if attempt >= STORE_ATTEMPTS or not is_retryable(exc):
                raise
            get_bus().event(
                "campaign.store.retry", level="warning", op=what,
                attempt=attempt, attempts=STORE_ATTEMPTS, error=repr(exc),
            )
            # Deterministic full jitter (seeded per op/attempt): retries
            # desynchronise across invocations without touching global RNG.
            time.sleep(
                0.05 * attempt * random.Random(f"{what}|{attempt}").random()
            )


def _seeds(value: Any) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"campaign seeds must be a list of whole numbers, not {value!r}")
    seeds = tuple(whole_number("campaign seeds entry", seed) for seed in value)
    if not seeds:
        raise ConfigError("campaign seeds must not be empty")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("campaign seeds must not contain duplicates")
    return seeds


@dataclass(frozen=True)
class CampaignSpec:
    """Validated campaign description (see module docstring for the form)."""

    name: str
    apps: tuple[str, ...]
    machines: tuple[str, ...]
    kind: str = "profile"
    seeds: tuple[int, ...] = (0,)
    repeats: int = 1
    noisy: bool = True
    config: dict[str, Any] = field(default_factory=dict)
    tags: dict[str, Any] = field(default_factory=dict)
    policy: RunPolicy | None = None
    #: Application models by app string, filled by :meth:`app_model`.
    _models: dict[str, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        """Every field is checked here, so a spec that is built at all
        runs: each app parses (into :attr:`_models`), each machine
        resolves and a ``profile`` spec's ``config`` makes one valid
        :class:`SynapseConfig` whose watchers are registered.  ``seeds``
        and ``repeats`` are whole numbers (a whole float is stored as an
        ``int``, so it keeps the cell digests), ``policy`` a
        :class:`RunPolicy` or its mapping.  A bad field is a
        :class:`ConfigError` naming it (and its entry)."""
        name = text("campaign name", self.name)
        if not name or any(c in name for c in "=,\n"):
            raise ConfigError(
                f"campaign name {name!r} must be non-empty and free of '=', ','"
            )
        if self.kind not in _KINDS:
            raise ConfigError(f"campaign kind must be one of {_KINDS}, not {self.kind!r}")
        # Duplicates would expand to digest-identical cells: one stored
        # artifact would then pose as several independent measurements
        # (n inflated, std 0) in the campaign analysis.
        set_field = partial(object.__setattr__, self)
        set_field("apps", names("campaign apps", self.apps))
        set_field("machines", names("campaign machines", self.machines))
        set_field("seeds", _seeds(self.seeds))
        set_field("repeats", whole_number("campaign repeats", self.repeats, 1))
        flag("campaign noisy", self.noisy)
        set_field("config", dict(mapping("campaign config", self.config)))
        set_field("tags", dict(mapping("campaign tags", self.tags)))
        if self.policy is not None:
            set_field("policy", RunPolicy.from_dict(self.policy))
        for app in self.apps:
            try:
                self.app_model(app)
            except ConfigError as exc:
                raise ConfigError(f"campaign apps entry {app!r}: {exc}") from exc
        for machine in self.machines:
            try:
                resolve_machine(machine)
            except ConfigError as exc:
                raise ConfigError(f"campaign machines entry {machine!r}: {exc}") from exc
        if self.kind == "profile":
            from repro.watchers.registry import get_watcher  # noqa: PLC0415 (lazy)

            try:
                mapping("config", self.config, SynapseConfig.__dataclass_fields__)
                for watcher in SynapseConfig(**self.config).watchers:
                    get_watcher(watcher)
            except ConfigError as exc:
                raise ConfigError(f"campaign config: {exc}") from exc

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """The spec of a JSON-shaped mapping: its keys checked here, its
        values as :meth:`__post_init__` checks them.  A ``run`` spec
        builds no config — its ``config`` only labels the stored
        artifacts — so its keys are not checked.  A bad field is a
        :class:`ConfigError` naming it."""
        mapping("campaign spec", data, _SPEC_KEYS)
        if "name" not in data or "apps" not in data or "machines" not in data:
            raise ConfigError("campaign specs need 'name', 'apps' and 'machines'")
        return cls(**data)

    @classmethod
    def from_json(cls, path: str | Path) -> "CampaignSpec":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read campaign spec {path}: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ConfigError(f"campaign spec {path} must be a JSON object")
        return cls.from_dict(data)

    @property
    def n_cells(self) -> int:
        return len(self.apps) * len(self.machines) * len(self.seeds) * self.repeats

    def app_model(self, app: str) -> Any:
        """The application model of one app string, parsed once per spec.

        Every cell of the spec gets the *same* model object, so the run
        service — which shares work between requests by target identity
        — sees a wave of cells that differ only in ``(seed, rep)`` as
        one target.
        """
        model = self._models.get(app)
        if model is None:
            from repro.apps.registry import parse_app  # noqa: PLC0415 (cycle)

            model = self._models[app] = parse_app(app)
        return model

    @cached_property
    def _cell_parts(self) -> tuple[str, str]:
        """Every cell digest's JSON payload before and after the cell."""
        head, tail = (json.dumps(part, sort_keys=True, default=str) for part in (
            [self.name, self.kind],
            [
                bool(self.noisy), sorted(self.config.items()),
                sorted((str(k), str(v)) for k, v in self.tags.items()),
            ],
        ))
        return head[:-1] + ", ", ", " + tail[1:]

    def cells(self) -> list["CampaignCell"]:
        """Expand the sweep into its cells, in deterministic spec order."""
        cells = []
        for app in self.apps:
            for machine in self.machines:
                for seed in self.seeds:
                    for rep in range(self.repeats):
                        cells.append(CampaignCell(self, app, machine, seed, rep))
        return cells


@dataclass(frozen=True)
class CampaignCell:
    """One (app, machine, seed, repeat) point of a campaign sweep."""

    spec: CampaignSpec
    app: str
    machine: str
    seed: int
    rep: int

    @cached_property
    def digest(self) -> str:
        """Deterministic cell identity (computed once per cell object).

        Hashes the cell coordinates plus every spec setting that
        influences the cell's stored artifact (kind, noisy, config,
        tags), so editing the spec invalidates — rather than silently
        reuses — old cells.  The run policy is deliberately *not*
        hashed: retries/timeouts change how stubbornly a cell executes,
        never what it produces.  The payload is the JSON of ``[name,
        kind, app, machine, seed, rep, noisy, sorted config items,
        sorted tag pairs]``, whose spec-wide parts the spec encodes once.
        """
        head, tail = self.spec._cell_parts
        payload = (
            f"{head}{encode_basestring_ascii(self.app)}, "
            f"{encode_basestring_ascii(self.machine)}, {self.seed:d}, {self.rep:d}{tail}"
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def cell_tags(self) -> dict[str, Any]:
        return {
            **self.spec.tags,
            "campaign": self.spec.name,
            "cell": self.digest,
            "app": self.app,
            "machine": self.machine,
            "seed": self.seed,
            "rep": self.rep,
        }

    @property
    def row(self) -> tuple[bool, int, int, None]:
        """The noise identity of :meth:`to_request`'s request
        (:func:`repro.runtime.execute.noise_row`), without building it."""
        return (self.spec.noisy, self.seed, self.rep + 1, None)

    def to_request(self) -> RunRequest:
        """The declarative run request this cell executes as (a profile
        request holds the spec's config mapping, which nothing writes to)."""
        app = self.spec.app_model(self.app)
        if self.spec.kind == "profile":
            return RunRequest(
                kind="profile",
                target=app,
                machine=self.machine,
                config=self.spec.config,
                noisy=self.spec.noisy,
                seed=self.seed,
                index=self.rep + 1,
                tags=self.cell_tags(),
                command=app.command(),
                key=self.digest,
                policy=self.spec.policy,
            )
        return RunRequest(
            kind="engine",
            target=app,
            machine=self.machine,
            noisy=self.spec.noisy,
            seed=self.seed,
            index=self.rep + 1,
            reduce=_engine_summary,
            key=self.digest,
            policy=self.spec.policy,
        )

    def artifact(self, value: Any):
        """The ledger document for this cell's run outcome.

        ``profile`` cells store the profile itself; ``run`` cells store
        a summary profile (statics only) so both kinds live in the same
        store and resume the same way.
        """
        if self.spec.kind == "profile":
            return value
        statics = dict(value["totals"])
        statics["time.runtime_rusage"] = value["duration"]
        return Profile(
            command=self.spec.app_model(self.app).command(),
            tags=self.cell_tags(),
            machine=dict(get_machine(self.machine).info()),
            config=dict(self.spec.config),
            statics=statics,
            info={"campaign_kind": "run", "phase_bounds": value["phase_bounds"]},
        )


def _engine_summary(record: Any) -> dict[str, Any]:
    """Worker-side reducer for ``run`` cells: totals, not histories."""
    return {
        "duration": record.duration,
        "totals": record.totals(),
        "phase_bounds": [list(bounds) for bounds in record.phase_bounds],
    }


@dataclass
class CampaignReport:
    """Outcome of one :func:`run_campaign` / ``elastic_worker`` invocation."""

    name: str
    total: int
    skipped: int
    executed: int
    failed: list[dict[str, str]] = field(default_factory=list)
    seconds: float = 0.0
    truncated: bool = False
    #: Cells left to a live rival's lease (elastic invocations).
    deferred: int = 0
    #: True when a ``stop`` request (SIGTERM/SIGINT drain) ended the
    #: sweep early: the current wave was finished and persisted, the
    #: remaining waves were never started.
    interrupted: bool = False

    @property
    def remaining(self) -> int:
        """Cells still missing from the ledger after this invocation.

        Sweep-wide view: it includes the cells a rival is working on,
        so ``complete`` only turns true once the *union* of the
        invocations has filled the ledger.
        """
        return self.total - self.skipped - self.executed

    @property
    def complete(self) -> bool:
        return self.remaining == 0 and not self.failed

    def to_dict(self) -> dict[str, Any]:
        return {
            "campaign": self.name,
            "total": self.total,
            "skipped": self.skipped,
            "executed": self.executed,
            "failed": list(self.failed),
            "remaining": self.remaining,
            "complete": self.complete,
            "seconds": self.seconds,
            "truncated": self.truncated,
            "deferred": self.deferred,
            "interrupted": self.interrupted,
        }

    def table(self) -> Table:
        state = "complete" if self.complete else "partial"
        if self.interrupted:
            state = "interrupted (drained)"
        table = Table(
            ["cells", "skipped (ledger)", "executed", "failed", "deferred",
             "remaining"],
            title=f"campaign {self.name!r}: {state} in {self.seconds:.2f}s",
        )
        table.add_row(
            [self.total, self.skipped, self.executed, len(self.failed),
             self.deferred, self.remaining]
        )
        return table


#: Cell digests are the first 16 hex chars of a SHA-256 (see
#: :meth:`CampaignCell.digest`); anything else in a ``cell=`` tag is a
#: corrupt/tampered entry and must not count as a completed cell.
_DIGEST_CHARS = frozenset("0123456789abcdef")


def _is_cell_digest(text: str) -> bool:
    return len(text) == 16 and set(text) <= _DIGEST_CHARS


def _ledger_ids(store: Any, name: str) -> list[tuple[str, str]]:
    """``(digest, store id)`` pairs for every well-formed ledger entry.

    Entries whose ``cell=`` tag is missing, empty or malformed are
    skipped: they can never correspond to a spec cell, so treating them
    as completed would silently drop cells from a resumed sweep.  The
    scan runs on the store's index plane (cell digests live in the
    tags), so ledger bookkeeping (resume checks) never deserialises
    artifact payloads.
    """
    pairs: list[tuple[str, str]] = []
    for entry in store.entries(tags=[f"campaign={name}"]):
        for tag in entry.tags:
            if tag.startswith("cell="):
                digest = tag[len("cell="):]
                if _is_cell_digest(digest):
                    pairs.append((digest, entry.id))
    return pairs


def completed_cells(store: Any, name: str) -> set[str]:
    """Digests of all cells of campaign ``name`` already in the ledger.

    Index-plane only: a campaign resume costs one tag-filtered index
    scan, not a full-ledger deserialisation.
    """
    return {digest for digest, _pid in _ledger_ids(store, name)}


def ledger_ids(store: Any, name: str) -> dict[str, str]:
    """Cell digest -> store id of its newest ledger entry.

    Index-plane only.  Duplicate digests — racing invocations'
    bit-identical artifacts — resolve to the entry written last.
    """
    return dict(_ledger_ids(store, name))


def iter_ledger(store: Any, name: str) -> Iterator[tuple[str, Any]]:
    """``(cell digest, stored artifact profile)`` of every cell of the
    campaign's ledger, in sorted digest order, the newest entry per cell.

    The digests resolve on the index plane; the artifacts come through
    one :meth:`~repro.storage.base.ProfileStore.scan`, so a reader that
    goes through them holds at most one scan chunk of them.
    """
    pairs = sorted(ledger_ids(store, name).items())
    profiles = store.scan([pid for _digest, pid in pairs])
    for (digest, _pid), profile in zip(pairs, profiles):
        yield digest, profile


def ledger(store: Any, name: str) -> dict[str, Any]:
    """The campaign's ledger: cell digest -> stored artifact profile,
    in sorted digest order (:func:`iter_ledger`, held whole)."""
    return dict(iter_ledger(store, name))


def comparable_artifact(profile: Any) -> dict[str, Any]:
    """A ledger artifact document scrubbed of run-environment identity.

    Campaign results are deterministic by construction (cell-derived
    noise streams); only *when* and *by which process* a cell ran leaks
    into its stored document.  Dropping the wall-clock ``created`` stamp
    and the recording process id leaves exactly the fields that must be
    bit-identical across reruns, workers, resumes and chaos runs.
    """
    doc = profile.to_dict() if hasattr(profile, "to_dict") else dict(profile)
    doc = json.loads(json.dumps(doc, sort_keys=True, default=str))
    doc.pop("created", None)
    process = doc.get("info", {}).get("process")
    if isinstance(process, dict):
        process.pop("pid", None)
    return doc


#: Values ``json`` writes as they are: a container holding only these
#: has no mapping below it whose keys could need checking.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})
_STR = frozenset({str})


def _str_keyed(node: Any, path: set[int]) -> bool:
    """True when every mapping key in ``node`` — a dict, list or tuple, or
    a subclass of one, as ``json`` descends into all of them — is exactly
    a ``str`` at every depth.

    Only then does a JSON round trip leave ``json.dumps(node,
    sort_keys=True)`` unchanged: ``json`` sorts a dict by its keys as
    they are and stringifies them afterwards, so ``{2: .., 10: ..}``
    writes ``"2"`` first once and ``"10"`` first after a round trip.
    ``path`` holds the containers being checked; a cycle is False too.
    """
    children = node
    if isinstance(node, dict):
        if not _STR.issuperset(map(type, node)):
            return False
        children = node.values()
    if _JSON_SCALARS.issuperset(map(type, children)):
        return True
    if id(node) in path:
        return False
    path.add(id(node))
    for child in children:
        if isinstance(child, (dict, list, tuple)) and not _str_keyed(child, path):
            return False
    path.discard(id(node))
    return True


def _comparable_text(profile: Any) -> str:
    """``json.dumps(comparable_artifact(profile), sort_keys=True,
    default=str)``, serialising the document once.

    The round trip of :func:`comparable_artifact` only changes this text
    when a mapping key is not exactly a ``str`` or when ``info`` or
    ``info["process"]`` is not a dict; any such document takes that very
    path (and counts in ``campaign.digest.fallbacks``), so it gives the
    same text or raises the same exception.  ``created`` and the process
    id are dropped from shallow copies: neither the profile nor a
    store's cached document is touched.
    """
    doc = profile.to_dict() if hasattr(profile, "to_dict") else dict(profile)
    info = doc.get("info", {}) if isinstance(doc, dict) else None
    process = info.get("process", {}) if isinstance(info, dict) else None
    if isinstance(process, dict) and _str_keyed(doc, set()):
        doc = dict(doc)
        doc.pop("created", None)
        if "process" in info:
            process = dict(process)
            process.pop("pid", None)
            doc["info"] = {**info, "process": process}
        return json.dumps(doc, sort_keys=True, default=str)
    get_registry().inc("campaign.digest.fallbacks")
    return json.dumps(comparable_artifact(profile), sort_keys=True, default=str)


def ledger_digest(store: Any, name: str) -> str:
    """Canonical digest of campaign ``name``'s ledger.

    Two campaign runs converged to the same results — regardless of
    execution order, worker count, interruptions, retries or
    injected faults — produce the same digest.  The determinism
    property (``tests/runtime/test_campaign_determinism.py``) pins every
    topology, interruption and fault plan it draws against a lone
    fault-free run with this.

    The value is the SHA-256 of ``json.dumps({digest:
    comparable_artifact(profile), ...}, sort_keys=True, default=str)``
    over the :func:`ledger`, but neither that string nor the ledger is
    ever built: the hash is fed ``{``, then per cell of
    :func:`iter_ledger` (sorted digest order; ``", "`` between cells)
    the JSON digest, ``": "`` and the cell's comparable text, then
    ``}``.  Each artifact is serialised once (one ``to_dict`` and one
    ``dumps``; ≈ 0.3 ms an E12 cell on a 2-vCPU x86 guest), so the
    digest holds one scan chunk of artifacts
    (:data:`~repro.storage.base.SCAN_CHUNK`) and one artifact's
    document and text, whatever the ledger's size.
    A document whose keys are not all exactly strings, or whose ``info``
    or ``info["process"]`` is not a dict, falls back to
    :func:`comparable_artifact`'s round trip — same text, or the same
    exception — and counts in ``campaign.digest.fallbacks``; real
    ``profile`` and ``run`` ledgers take none.
    """
    sha = hashlib.sha256(b"{")
    for n, (digest, profile) in enumerate(iter_ledger(store, name)):
        head = f"{', ' if n else ''}{json.dumps(digest)}: "
        sha.update(head.encode("utf-8"))
        sha.update(_comparable_text(profile).encode("utf-8"))
    sha.update(b"}")
    return sha.hexdigest()


def new_member() -> str:
    """An id for one invocation: who ran a wave, who holds a lease."""
    return f"{os.getpid():x}-{secrets.token_hex(4)}"


@dataclass
class _Sweep:
    """One invocation's stay in a campaign: its view of the ledger, its
    running totals and the body of a wave.

    :func:`run_campaign` and
    :func:`~repro.runtime.coordinator.elastic_worker` differ in how they
    *choose* a wave (a slice of the pending list / a leased batch) and in
    what they hold while it runs (nothing / the leases); everything a
    chosen wave goes through is :meth:`run_wave`, and the report both
    return is :meth:`report`.
    """

    spec: CampaignSpec
    store: Any
    member: str
    service: RunService | None = None
    processes: int | None = None
    progress: Any = None
    #: How a ledger store operation is run (the elastic worker also
    #: serialises it against its heartbeat thread).
    store_op: Callable[[str, Callable[[], Any]], Any] = _store_op
    #: The ledger as this invocation knows it.  Monotone: it grows by
    #: the waves persisted here and by :meth:`reread`.
    done: set[str] = field(default_factory=set)
    executed: int = 0
    deferred: int = 0
    stolen: int = 0
    failures: list[dict[str, str]] = field(default_factory=list)
    truncated: bool = False
    interrupted: bool = False
    plans: PlanScope | None = None

    def __post_init__(self) -> None:
        if self.service is None:
            self.service = get_service()
        self.cells = {cell.digest: cell for cell in self.spec.cells()}
        self.scope = list(self.cells.values())
        self.reread()
        #: Cells somebody had stored before this invocation started.
        self.skipped = len(self.cells.keys() & self.done)
        self.start = time.perf_counter()
        self._reported = self.counts()

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def scope(self) -> list[CampaignCell]:
        """The cells this invocation may execute, in spec order (a
        caller that narrows it does so before its first wave)."""
        return self._scope

    @scope.setter
    def scope(self, cells: list[CampaignCell]) -> None:
        # _cursor: how many leading cells of it pending() found done.
        self._scope, self._cursor = cells, 0

    @cached_property
    def pairs(self) -> dict[tuple[str, str], list[CampaignCell]]:
        """The cells in scope by (app, machine), each pair's in order."""
        pairs: dict[tuple[str, str], list[CampaignCell]] = {}
        for cell in self.scope:
            pairs.setdefault((cell.app, cell.machine), []).append(cell)
        return pairs

    def counts(self) -> dict[str, int]:
        """The running totals a summary reports."""
        return {
            "executed": self.executed, "failed": len(self.failures),
            "deferred": self.deferred, "stolen": self.stolen,
        }

    def reread(self) -> None:
        """Add what the ledger holds now to :attr:`done`."""
        self.done |= self.store_op(
            "completed_cells", lambda: completed_cells(self.store, self.spec.name)
        )

    def pending(self) -> list[CampaignCell]:
        """The cells in scope and outside :attr:`done`, in spec order.

        :attr:`done` only grows, so a leading run of done cells stays
        done: a cursor steps over it once instead of on every call.
        """
        scope, done, start = self._scope, self.done, self._cursor
        while start < len(scope) and scope[start].digest in done:
            start += 1
        self._cursor = start
        return [cell for cell in scope[start:] if cell.digest not in done]

    def interrupt(self, wave_no: int) -> None:
        """A ``stop`` request arrived: the waves run so far are
        persisted, no other one starts."""
        self.interrupted = True
        get_bus().event(
            "campaign.interrupted", level="warning", campaign=self.spec.name,
            member=self.member, wave=wave_no, executed=self.executed,
            pending=self.total - self.skipped - self.executed,
        )

    def _fail(self, cell: CampaignCell, error: str) -> None:
        self.failures.append(
            {"cell": cell.digest, "app": cell.app, "machine": cell.machine,
             "error": error}
        )

    def _declare(self, wave: list[CampaignCell], requests: list[RunRequest]) -> None:
        """Declare in the plan scope every (app, machine) pair of a wave
        that is not live there: the rows that pair's cells outside
        :attr:`done` — this wave's and the later ones' — will ask for.

        One tuple per pending cell of the pair, for as long as the pair
        is live; the requests are still built wave by wave.  Rows that
        are never asked for (``limit``, ``stop``, a failed cell, a
        rival's lease) may be replayed in a block, and are dropped with
        the scope.
        """
        for cell, request in zip(wave, requests):
            if self.plans.group(request.target, request.machine) is None:
                self.plans.declare(request.target, request.machine, [
                    each.row for each in self.pairs[cell.app, cell.machine]
                    if each.digest not in self.done
                ])

    def run_wave(
        self,
        wave_no: int,
        n_waves: int,
        wave: list[CampaignCell],
        held: Callable[[list[RunRequest]], Any] = contextlib.nullcontext,
    ) -> None:
        """Execute one wave and persist it, then say so.

        Builds the cells' requests, runs them through the service inside
        the sweep's plan scope, stores the artifacts of the ones that
        succeeded in one ``put_many`` and emits the wave's
        ``campaign.wave.finish`` summary (also handed to ``progress``).
        ``held(requests)`` is a context manager around the run and the
        store: what the caller keeps alive meanwhile.

        In the summary ``executed`` / ``failed`` / ``deferred`` /
        ``stolen`` count what happened since the previous summary;
        ``completed`` / ``pending`` are sweep-wide, as this invocation
        knows them.
        """
        name = self.spec.name
        with span(
            "campaign.wave", level="info", campaign=name, member=self.member,
            wave=wave_no, waves=n_waves, cells=len(wave),
        ) as wave_span:
            requests = [cell.to_request() for cell in wave]
            with held(requests):
                self._declare(wave, requests)
                results = self.service.run(
                    requests, processes=self.processes, rethrow=False
                )
                artifacts, stored = [], []
                for cell, result in zip(wave, results):
                    if result.ok:
                        artifacts.append(cell.artifact(result.value))
                        stored.append(cell.digest)
                    else:
                        self._fail(cell, result.error or "unknown error")
                if artifacts:
                    self.store_op(
                        "artifacts.put", lambda: self.store.put_many(artifacts)
                    )
                    self.done.update(stored)
                    self.executed += len(stored)
            counts = self.counts()
            since = {what: n - self._reported[what] for what, n in counts.items()}
            self._reported = counts
            wave_span.set(**since)
        summary = {
            "campaign": name,
            "member": self.member,
            "wave": wave_no,
            "waves": n_waves,
            "total": self.total,
            "cells": len(wave),
            **since,
            "completed": self.skipped + self.executed,
            "pending": self.total - self.skipped - self.executed,
            "elapsed": time.perf_counter() - self.start,
        }
        get_bus().event("campaign.wave.finish", **summary)
        if self.progress is not None:
            self.progress(dict(summary))

    def report(self) -> CampaignReport:
        return CampaignReport(
            name=self.spec.name,
            total=self.total,
            # Everything in the ledger that somebody else put there — at
            # the start or while this invocation ran — so ``remaining``
            # is the sweep-wide state as last read.
            skipped=len(self.cells.keys() & self.done) - self.executed,
            executed=self.executed,
            failed=[
                failure for failure in self.failures
                if failure["cell"] not in self.done
            ],
            seconds=time.perf_counter() - self.start,
            truncated=self.truncated,
            deferred=self.deferred,
            interrupted=self.interrupted,
        )


@contextlib.contextmanager
def _sweep(spec: CampaignSpec | Mapping[str, Any], store: Any, **settings: Any):
    """A :class:`_Sweep` inside its ``campaign.run`` span and its plan
    scope, between its ``campaign.start`` and ``campaign.finish`` events.

    One plan scope for the invocation: every wave's ``service.run``
    executes in it, so an (app, machine) pair is prepared once and its
    seeds replay a block at a time, however small the waves.  The
    targets are the spec's own models, which nothing mutates meanwhile.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    sweep = _Sweep(spec, store, **settings)
    bus = get_bus()
    identity = {
        "campaign": spec.name, "total": sweep.total, "skipped": sweep.skipped,
        "owner": sweep.member,
    }
    with span("campaign.run", level="info", **identity) as run_span, \
            plan_scope() as sweep.plans:
        bus.event("campaign.start", **identity)
        yield sweep
        outcome = {**sweep.counts(), "interrupted": sweep.interrupted}
        run_span.set(**outcome)
        bus.event(
            "campaign.finish", campaign=spec.name,
            seconds=time.perf_counter() - sweep.start, **outcome,
        )


def run_campaign(
    spec: CampaignSpec | Mapping[str, Any],
    store: Any,
    processes: int | None = None,
    service: RunService | None = None,
    limit: int | None = None,
    checkpoint: int = DEFAULT_CHECKPOINT,
    progress: Any = None,
    stop: Callable[[], bool] | None = None,
) -> CampaignReport:
    """Execute (or resume) a campaign sweep against its store ledger.

    Cells already present in the ledger are skipped; the rest execute
    through the run service in checkpointed waves of ``checkpoint``
    cells — each wave is persisted before the next starts, so an
    interruption loses at most one wave and a re-run completes only the
    missing cells.  ``limit`` caps the cells executed in this
    invocation (handy for smoke tests and incremental sweeps); failures
    are recorded in the report, never stored as completed cells.

    This loop takes part in no mutual-exclusion protocol: it reads the
    ledger once and works through what was missing then.  Racing it
    against another invocation can therefore store a bit-identical
    duplicate of a cell, which resume and analysis dedupe by digest;
    sweeps shared between invocations or hosts use
    :func:`~repro.runtime.coordinator.elastic_worker`
    (``--elastic --join NAME``).

    ``progress`` is an optional per-wave callback receiving the wave's
    summary dict (see :meth:`_Sweep.run_wave`) after the wave is
    persisted — the CLI's live progress lines.

    ``stop`` is an optional zero-argument drain predicate checked
    between waves (the CLI wires its SIGTERM/SIGINT handler here): once
    it returns true the current wave is finished and persisted, the
    remaining waves never start, and the report comes back with
    ``interrupted=True`` — a graceful shutdown loses nothing and a
    re-run resumes from the ledger.

    Ledger store operations (resume scan, artifact writes) retry
    transient failures :data:`STORE_ATTEMPTS` times (with deterministic
    jitter) before failing the campaign.

    Telemetry: the sweep runs under a ``campaign.run`` span with one
    ``campaign.wave`` span per wave (pooled per-request spans stitch
    under it) and emits ``campaign.start`` / ``campaign.wave.finish`` /
    ``campaign.store.retry`` / ``campaign.interrupted`` /
    ``campaign.finish`` events on the process bus.
    """
    step, limit = wave_limits("checkpoint", checkpoint, limit)
    with _sweep(
        spec, store, member=new_member(), service=service,
        processes=processes, progress=progress,
    ) as sweep:
        pending = sweep.pending()
        if limit is not None and len(pending) > limit:
            pending = sweep.scope = pending[:limit]
            sweep.truncated = True
        n_waves = (len(pending) + step - 1) // step
        for wave_no in range(1, n_waves + 1):
            if stop is not None and stop():
                sweep.interrupt(wave_no)
                break
            sweep.run_wave(
                wave_no, n_waves, pending[(wave_no - 1) * step : wave_no * step]
            )
    return sweep.report()
