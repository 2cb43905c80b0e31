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

Sharding (multi-host sweeps): ``run_campaign(spec, store, shard=(i, n))``
deterministically partitions the *pending* cells by cell digest, so *n*
hosts sharing one store ledger execute disjoint subsets — any shard's
re-run completes only the union's missing cells, and an unsharded run
finishes whatever is left.  Sharded invocations additionally *claim*
their wave's cells in the ledger (lightweight marker documents tagged
``claim=<digest>``) before executing them: two claim-checking
invocations that overlap — the same shard restarted, racing shards —
defer to the earlier claim instead of computing a cell twice.
Unsharded runs skip the protocol by default (pass ``claim=True`` to
opt in), so racing an unsharded run against a live shard can double-
execute a cell.  Claims are deleted once their wave is stored;
leftovers from a killed shard go stale after ``claim_ttl`` seconds and
are ignored.  Because every cell's result derives only from its own
identity, any double execution stores a bit-identical duplicate that
resume and analysis dedupe by digest — ugly, never wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import secrets
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.errors import ConfigError, is_retryable
from repro.core.samples import Profile
from repro.faults import inject
from repro.runtime.execute import PlanScope, plan_scope
from repro.runtime.service import RunPolicy, RunRequest, RunService, get_service
from repro.telemetry.events import get_bus
from repro.telemetry.spans import span
from repro.util.tables import Table

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "claims",
    "comparable_artifact",
    "completed_cells",
    "ledger",
    "ledger_digest",
    "parse_shard",
    "run_campaign",
    "shard_cells",
    "shard_index",
]

_KINDS = ("profile", "run")
_SPEC_KEYS = frozenset(
    {"name", "kind", "apps", "machines", "seeds", "repeats", "noisy", "config",
     "tags", "policy"}
)

#: Cells stored per checkpoint wave: an interrupted sweep keeps every
#: finished wave in the ledger and resumes from the next one.
DEFAULT_CHECKPOINT = 8

#: Command under which cell-claim markers are stored (kept distinct from
#: every profilable command so claims never collide with real artifacts).
CLAIM_COMMAND = "synapse:campaign-claim"

#: Seconds a foreign claim stays live.  A claim older than this with no
#: stored artifact belongs to a dead shard and is ignored; fresher ones
#: mark a concurrent shard working the cell right now.
DEFAULT_CLAIM_TTL = 900.0

#: Attempts per ledger store operation (scans, artifact/claim writes)
#: before a transient store failure fails the campaign.
STORE_ATTEMPTS = 3


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
            # desynchronise across shards without touching global RNG.
            time.sleep(
                0.05 * attempt * random.Random(f"{what}|{attempt}").random()
            )


def _str_list(value: Any, what: str) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise ConfigError(f"campaign {what} must be a list of strings")
    items = tuple(str(item) for item in value)
    if not items:
        raise ConfigError(f"campaign {what} must not be empty")
    return items


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
        if not self.name or any(c in self.name for c in "=,\n"):
            raise ConfigError(
                f"campaign name {self.name!r} must be non-empty and free of '=', ','"
            )
        if self.kind not in _KINDS:
            raise ConfigError(f"campaign kind must be one of {_KINDS}, not {self.kind!r}")
        if self.repeats < 1:
            raise ConfigError("campaign repeats must be >= 1")
        if not self.seeds:
            raise ConfigError("campaign seeds must not be empty")
        # Duplicates would expand to digest-identical cells: one stored
        # artifact would then pose as several independent measurements
        # (n inflated, std 0) in the campaign analysis.
        for what, values in (
            ("apps", self.apps), ("machines", self.machines),
            ("seeds", self.seeds),
        ):
            if len(set(values)) != len(values):
                raise ConfigError(f"campaign {what} must not contain duplicates")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        unknown = set(data) - _SPEC_KEYS
        if unknown:
            raise ConfigError(f"unknown campaign spec keys: {sorted(unknown)}")
        if "name" not in data or "apps" not in data or "machines" not in data:
            raise ConfigError("campaign specs need 'name', 'apps' and 'machines'")
        policy = data.get("policy")
        if policy is not None:
            try:
                policy = RunPolicy.from_dict(policy)
            except ValueError as exc:
                raise ConfigError(f"invalid campaign policy: {exc}") from exc
        return cls(
            name=str(data["name"]),
            apps=_str_list(data["apps"], "apps"),
            machines=_str_list(data["machines"], "machines"),
            kind=str(data.get("kind", "profile")),
            seeds=tuple(int(seed) for seed in data.get("seeds", (0,))),
            repeats=int(data.get("repeats", 1)),
            noisy=bool(data.get("noisy", True)),
            config=dict(data.get("config", {})),
            tags=dict(data.get("tags", {})),
            policy=policy,
        )

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
        from repro.apps.registry import parse_app  # noqa: PLC0415 (cycle)

        model = self._models.get(app)
        if model is None:
            model = self._models[app] = parse_app(app)
        return model

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
        never what it produces.
        """
        payload = json.dumps(
            [
                self.spec.name,
                self.spec.kind,
                self.app,
                self.machine,
                self.seed,
                self.rep,
                bool(self.spec.noisy),
                sorted(self.spec.config.items()),
                sorted((str(k), str(v)) for k, v in self.spec.tags.items()),
            ],
            sort_keys=True,
            default=str,
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
        """The declarative run request this cell executes as."""
        app = self.spec.app_model(self.app)
        if self.spec.kind == "profile":
            return RunRequest(
                kind="profile",
                target=app,
                machine=self.machine,
                config=dict(self.spec.config),
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
            metadata={"command": app.command()},
        )

    def artifact(self, value: Any):
        """The ledger document for this cell's run outcome.

        ``profile`` cells store the profile itself; ``run`` cells store
        a summary profile (statics only) so both kinds live in the same
        store and resume the same way.
        """
        from repro.sim.machines import get_machine  # noqa: PLC0415 (cycle)

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
    """Outcome of one :func:`run_campaign` invocation."""

    name: str
    total: int
    skipped: int
    executed: int
    failed: list[dict[str, str]] = field(default_factory=list)
    seconds: float = 0.0
    truncated: bool = False
    #: ``"i/n"`` when this invocation executed one shard of the sweep.
    shard: str | None = None
    #: Pending cells this invocation was responsible for (the shard's
    #: partition of the missing cells; equals ``total - skipped`` when
    #: unsharded).
    assigned: int = 0
    #: Cells left to a concurrent invocation holding an earlier claim.
    deferred: int = 0
    #: True when a ``stop`` request (SIGTERM/SIGINT drain) ended the
    #: sweep early: the current wave was finished and persisted, the
    #: remaining waves were never started.
    interrupted: bool = False

    @property
    def remaining(self) -> int:
        """Cells still missing from the ledger after this invocation.

        Sweep-wide view: for a shard run this includes every other
        shard's pending cells, so ``complete`` only turns true once the
        *union* of shards has filled the ledger.
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
            "shard": self.shard,
            "assigned": self.assigned,
            "deferred": self.deferred,
            "interrupted": self.interrupted,
        }

    def table(self) -> Table:
        shard = f" shard {self.shard}" if self.shard is not None else ""
        state = "complete" if self.complete else "partial"
        if self.interrupted:
            state = "interrupted (drained)"
        table = Table(
            ["cells", "skipped (ledger)", "executed", "failed", "deferred",
             "remaining"],
            title=(
                f"campaign {self.name!r}{shard}: {state} "
                f"in {self.seconds:.2f}s"
            ),
        )
        table.add_row(
            [self.total, self.skipped, self.executed, len(self.failed),
             self.deferred, self.remaining]
        )
        return table


def _by_pair(cells: Any) -> dict[tuple[str, str], list[CampaignCell]]:
    """``cells`` by (app, machine), each pair's in the order given."""
    pairs: dict[tuple[str, str], list[CampaignCell]] = {}
    for cell in cells:
        pairs.setdefault((cell.app, cell.machine), []).append(cell)
    return pairs


def _declare_wave(
    plans: PlanScope,
    pairs: Mapping[tuple[str, str], list[CampaignCell]],
    wave: list[CampaignCell],
    requests: list[RunRequest],
    done: Any = frozenset(),
) -> None:
    """Declare in ``plans`` every (app, machine) pair of a wave that is
    not live there: the rows that pair's cells outside ``done`` — this
    wave's and the later ones' — will ask for.

    One tuple per pending cell of the pair, for as long as the pair is
    live; the requests are still built wave by wave.  Rows that are
    never asked for (``limit``, ``stop``, a failed cell, a rival's
    lease) may be replayed in a block, and are dropped with the scope.
    """
    for cell, request in zip(wave, requests):
        if plans.group(request.target, request.machine) is None:
            plans.declare(request.target, request.machine, [
                each.row for each in pairs[cell.app, cell.machine]
                if each.digest not in done
            ])


def parse_shard(shard: Any) -> tuple[int, int]:
    """Normalise a shard selector into ``(index, count)``.

    Accepts an ``(index, count)`` pair or the CLI spelling ``"i/n"``.
    """
    if isinstance(shard, str):
        head, sep, tail = shard.partition("/")
        if not sep:
            raise ConfigError(f"shard must look like 'i/n', not {shard!r}")
        shard = (head, tail)
    try:
        index, count = shard
        index, count = int(index), int(count)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"shard must be an (index, count) pair or 'i/n' string, not {shard!r}"
        ) from exc
    if count < 1 or not 0 <= index < count:
        raise ConfigError(
            f"shard index must satisfy 0 <= index < count, got {index}/{count}"
        )
    return index, count


def shard_index(digest: str, count: int) -> int:
    """Deterministic shard owning a cell digest (digests are hex)."""
    return int(digest, 16) % count


def shard_cells(cells: list[CampaignCell], shard: Any) -> list[CampaignCell]:
    """The subset of ``cells`` that shard ``(index, count)`` executes.

    Partitioning is by cell digest, so it is independent of execution
    order, ledger state and which cells other shards have finished —
    the property that makes *n* hosts sharing one store collision-free.
    """
    index, count = parse_shard(shard)
    return [cell for cell in cells if shard_index(cell.digest, count) == index]


def claims(store: Any, name: str) -> dict[str, list[tuple[float, str]]]:
    """Live + stale claim markers of campaign ``name``.

    Returns cell digest -> list of ``(created, owner)`` pairs, one per
    marker.  Callers decide staleness (see ``claim_ttl``).  Everything a
    claim carries (digest, owner, creation time) lives in its tags, so
    the scan runs on the store's index plane — no marker payloads are
    deserialised, and the per-wave read-back cost is O(live markers)
    instead of O(ledger).
    """
    found: dict[str, list[tuple[float, str]]] = {}
    for entry in store.entries(CLAIM_COMMAND, tags=[f"campaign={name}"]):
        digest = owner = None
        for tag in entry.tags:
            if tag.startswith("claim="):
                digest = tag[len("claim="):]
            elif tag.startswith("owner="):
                owner = tag[len("owner="):]
        if digest and owner:
            found.setdefault(digest, []).append((entry.created, owner))
    return found


def _claim_wave(
    store: Any,
    name: str,
    wave: list[CampaignCell],
    owner: str,
    ttl: float,
    scan: bool = True,
) -> tuple[list[CampaignCell], list[CampaignCell], list[str], bool]:
    """Claim a wave's cells; returns ``(mine, deferred, claim_ids, rivals)``.

    Writes one marker per cell, re-reads all markers, and keeps only the
    cells whose earliest *live* claim is ours — ties and races resolve
    deterministically on ``(created, owner)``.  Cells lost to an earlier
    live claim are deferred (another invocation is computing them right
    now); claims older than ``ttl`` belong to dead invocations and are
    ignored.

    ``scan=False`` skips the read-back (the caller saw no live foreign
    claims recently): markers are still written so *rivals* defer to
    us, but the wave runs unfiltered.  ``rivals`` reports whether any
    live foreign claim was seen, letting the caller decide whether the
    next wave needs a scan — the read-back is an index-plane scan of
    the campaign's markers (O(live claims), no payloads), but even that
    only makes sense to pay per wave while someone else is actually in
    there.
    """
    now = time.time()
    markers = [
        Profile(
            command=CLAIM_COMMAND,
            tags={"campaign": name, "claim": cell.digest, "owner": owner},
            info={"cell": cell.digest},
            created=now,
        )
        for cell in wave
    ]
    claim_ids = list(
        _store_op("claim.put", lambda: store.put_many(markers))
    )
    if not scan:
        return list(wave), [], claim_ids, False
    try:
        # Chaos plane: a fault here exercises the marker-cleanup path
        # below (a read-back failure must not leak this wave's claims).
        inject("campaign.claim", key=name)
        existing = claims(store, name)
        stale_seen = sum(
            1
            for entries in existing.values()
            for entry in entries
            if now - entry[0] > ttl
        )
        if stale_seen:
            get_bus().event(
                "campaign.claim.gc", campaign=name, stale=stale_seen, ttl=ttl
            )
            _gc_stale_claims(store, name, ttl, now)
        # Any live foreign claim — even on a cell outside this wave —
        # means a concurrent invocation is active and later waves must
        # keep scanning.
        rivals = any(
            entry[1] != owner and now - entry[0] <= ttl
            for entries in existing.values()
            for entry in entries
        )
        mine: list[CampaignCell] = []
        deferred: list[CampaignCell] = []
        for cell in wave:
            live = [
                entry for entry in existing.get(cell.digest, [])
                if now - entry[0] <= ttl
            ]
            winner = min(live, default=(now, owner))
            (mine if winner[1] == owner else deferred).append(cell)
        if deferred:
            get_bus().event(
                "campaign.claim.contention", level="warning",
                campaign=name, owner=owner, deferred=len(deferred),
                cells=[cell.digest for cell in deferred],
            )
    except BaseException:
        # The read-back died (store error mid-scan, Ctrl-C) before the
        # caller could take ownership of claim_ids: delete our markers
        # now or an immediate re-run defers to this invocation's corpse
        # for a full claim_ttl.
        _delete_claims(store, claim_ids)
        raise
    return mine, deferred, claim_ids, rivals


def _delete_claims(store: Any, claim_ids: list[str]) -> None:
    """Best-effort removal of this invocation's claim markers."""
    delete = getattr(store, "delete", None)
    if delete is None:
        return
    for pid in claim_ids:
        try:
            delete(pid)
        except Exception:  # noqa: BLE001 - already gone / read-only store
            pass


def _gc_stale_claims(store: Any, name: str, ttl: float, now: float) -> None:
    """Best-effort deletion of expired claim markers.

    Hard-killed shards never clean up after themselves; without GC
    their markers accumulate in a long-lived shared store forever (and
    every claim scan re-parses them).  Only markers already ignored as
    stale are touched, so this can never steal a live rival's claim.
    """
    expire = getattr(store, "expire_markers", None)
    if expire is not None:
        # Server-side TTL expiry (Mongo-like stores): the store sweeps
        # its own stale markers; the scan below then only mops up
        # whatever raced past the sweep.
        try:
            expire(CLAIM_COMMAND, ttl)
        except Exception:  # noqa: BLE001 - GC must never fail a wave
            pass
    if getattr(store, "delete", None) is None:
        return
    try:
        inject("campaign.gc", key=name)
        stale = [
            entry.id
            for entry in store.entries(CLAIM_COMMAND, tags=[f"campaign={name}"])
            if now - entry.created > ttl
        ]
    except Exception:  # noqa: BLE001 - GC must never fail a wave
        return
    _delete_claims(store, stale)


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
    tags), so ledger bookkeeping — resume checks, shard partitioning —
    never deserialises artifact payloads.
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

    Index-plane only: a campaign resume (or shard partition) costs one
    tag-filtered index scan, not a full-ledger deserialisation.
    """
    return {digest for digest, _pid in _ledger_ids(store, name)}


def ledger(store: Any, name: str) -> dict[str, Any]:
    """The campaign's ledger: cell digest -> stored artifact profile.

    Resolves digests on the index plane, then batch-loads exactly the
    artifact payloads via ``get_many`` (duplicate digests — racing
    shards' bit-identical artifacts — dedupe to the newest entry, as
    before).
    """
    pairs = _ledger_ids(store, name)
    profiles = store.get_many([pid for _digest, pid in pairs])
    return {digest: profile for (digest, _pid), profile in zip(pairs, profiles)}


def comparable_artifact(profile: Any) -> dict[str, Any]:
    """A ledger artifact document scrubbed of run-environment identity.

    Campaign results are deterministic by construction (cell-derived
    noise streams); only *when* and *by which process* a cell ran leaks
    into its stored document.  Dropping the wall-clock ``created`` stamp
    and the recording process id leaves exactly the fields that must be
    bit-identical across reruns, shards, resumes and chaos runs.
    """
    doc = profile.to_dict() if hasattr(profile, "to_dict") else dict(profile)
    doc = json.loads(json.dumps(doc, sort_keys=True, default=str))
    doc.pop("created", None)
    process = doc.get("info", {}).get("process")
    if isinstance(process, dict):
        process.pop("pid", None)
    return doc


def ledger_digest(store: Any, name: str) -> str:
    """Canonical digest of campaign ``name``'s ledger.

    Two campaign runs converged to the same results — regardless of
    execution order, sharding, worker count, interruptions, retries or
    injected faults — produce the same digest.  The chaos smoke test
    (and CI job) pins a faulted run against a fault-free one with this.
    """
    led = ledger(store, name)
    payload = json.dumps(
        {digest: comparable_artifact(profile)
         for digest, profile in sorted(led.items())},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def run_campaign(
    spec: CampaignSpec | Mapping[str, Any],
    store: Any,
    processes: int | None = None,
    service: RunService | None = None,
    limit: int | None = None,
    checkpoint: int = DEFAULT_CHECKPOINT,
    shard: Any = None,
    claim: bool | None = None,
    claim_ttl: float = DEFAULT_CLAIM_TTL,
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

    ``shard=(i, n)`` (or ``"i/n"``) restricts this invocation to its
    digest-assigned partition of the pending cells so *n* hosts sharing
    one store divide the sweep; see the module docstring.  ``claim``
    toggles the wave-level cell claiming that serialises overlapping
    invocations (default: on exactly when sharded); ``claim_ttl`` is
    how long a foreign claim defers a cell before it is presumed dead.

    ``progress`` is an optional per-wave callback receiving a summary
    dict (``wave``, ``waves``, ``claimed``, ``executed``, ``failed``,
    ``deferred``, ``completed``, ``pending``, ``elapsed``) after each
    wave is persisted — the CLI's live progress lines.

    ``stop`` is an optional zero-argument drain predicate checked
    between waves (the CLI wires its SIGTERM/SIGINT handler here): once
    it returns true the current wave is finished, persisted and its
    claims released, the remaining waves never start, and the report
    comes back with ``interrupted=True`` — a graceful shutdown loses
    nothing and a re-run resumes from the ledger.

    Ledger store operations (resume scan, artifact and claim-marker
    writes) retry transient failures :data:`STORE_ATTEMPTS` times (with
    deterministic jitter) before failing the campaign.

    Telemetry: the sweep runs under a ``campaign.run`` span with one
    ``campaign.wave`` span per wave (pooled per-request spans stitch
    under it) and emits ``campaign.start`` / ``campaign.wave.finish`` /
    ``campaign.claim.contention`` / ``campaign.claim.gc`` /
    ``campaign.store.retry`` / ``campaign.interrupted`` /
    ``campaign.finish`` events on the process bus.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    svc = service if service is not None else get_service()
    shard_id = None if shard is None else parse_shard(shard)
    use_claims = claim if claim is not None else shard_id is not None
    owner = f"{os.getpid():x}-{secrets.token_hex(4)}"
    shard_label = None if shard_id is None else f"{shard_id[0]}/{shard_id[1]}"
    cells = spec.cells()
    done = _store_op(
        "completed_cells", lambda: completed_cells(store, spec.name)
    )
    pending = [cell for cell in cells if cell.digest not in done]
    skipped = len(cells) - len(pending)
    if shard_id is not None:
        pending = shard_cells(pending, shard_id)
    assigned = len(pending)
    truncated = False
    if limit is not None and len(pending) > limit:
        pending = pending[: max(0, limit)]
        truncated = True

    bus = get_bus()
    executed = 0
    deferred = 0
    interrupted = False
    failures: list[dict[str, str]] = []
    start = time.perf_counter()
    step = max(1, checkpoint)
    n_waves = (len(pending) + step - 1) // step
    pairs = _by_pair(pending)
    # One plan scope for the sweep: every wave's ``svc.run`` executes in
    # it, so an (app, machine) pair is prepared once and its seeds
    # replay a block at a time, however small the waves.  The targets
    # are the spec's own models, which nothing mutates meanwhile.
    with span(
        "campaign.run", level="info", campaign=spec.name, total=len(cells),
        skipped=skipped, assigned=assigned, shard=shard_label, owner=owner,
    ) as campaign_span, plan_scope() as plans:
        bus.event(
            "campaign.start", campaign=spec.name, total=len(cells),
            skipped=skipped, assigned=assigned, waves=n_waves,
            shard=shard_label, owner=owner,
        )
        # The first claimed wave always scans for rivals; later waves only
        # keep paying the marker read-back while rivals are actually
        # live.  A rival appearing *after* scanning stops goes unseen — the
        # worst case is a duplicate, bit-identical artifact, which resume
        # and analysis dedupe by digest.
        scan_claims = True
        for wave_no, wave_start in enumerate(range(0, len(pending), step), start=1):
            if stop is not None and stop():
                # Drain semantics: the wave that was running when the
                # stop request arrived has already been persisted and
                # its claims released; just never start the next one.
                interrupted = True
                bus.event(
                    "campaign.interrupted", level="warning",
                    campaign=spec.name, wave=wave_no, waves=n_waves,
                    executed=executed,
                    pending=len(cells) - skipped - executed,
                )
                break
            wave = pending[wave_start : wave_start + step]
            wave_executed = wave_failed = wave_deferred = 0
            with span(
                "campaign.wave", level="info", campaign=spec.name,
                wave=wave_no, waves=n_waves, cells=len(wave),
            ) as wave_span:
                claim_ids: list[str] = []
                if use_claims:
                    wave, lost, claim_ids, rivals = _claim_wave(
                        store, spec.name, wave, owner, claim_ttl, scan=scan_claims
                    )
                    scan_claims = rivals
                    deferred += len(lost)
                    wave_deferred = len(lost)
                try:
                    requests, runnable = [], []
                    for cell in wave:
                        try:
                            requests.append(cell.to_request())
                            runnable.append(cell)
                        except Exception as exc:  # unknown app spec, bad config, ...
                            failures.append(
                                {"cell": cell.digest, "app": cell.app,
                                 "machine": cell.machine, "error": repr(exc)}
                            )
                            wave_failed += 1
                    _declare_wave(plans, pairs, runnable, requests)
                    results = svc.run(requests, processes=processes, rethrow=False)
                    artifacts = []
                    for cell, result in zip(runnable, results):
                        if result.ok:
                            artifacts.append(cell.artifact(result.value))
                            executed += 1
                            wave_executed += 1
                        else:
                            failures.append(
                                {"cell": cell.digest, "app": cell.app,
                                 "machine": cell.machine,
                                 "error": result.error or "unknown error"}
                            )
                            wave_failed += 1
                    if artifacts:
                        _store_op(
                            "artifacts.put", lambda: store.put_many(artifacts)
                        )
                finally:
                    # Claims outlive an invocation only when it is killed hard
                    # (no chance to clean up) — exactly the case claim_ttl
                    # staleness exists for.
                    _delete_claims(store, claim_ids)
                wave_span.set(
                    executed=wave_executed, failed=wave_failed,
                    deferred=wave_deferred,
                )
            summary = {
                "campaign": spec.name,
                "wave": wave_no,
                "waves": n_waves,
                "total": len(cells),
                "claimed": len(wave),
                "executed": wave_executed,
                "failed": wave_failed,
                "deferred": wave_deferred,
                "completed": skipped + executed,
                "pending": len(cells) - skipped - executed,
                "elapsed": time.perf_counter() - start,
            }
            bus.event("campaign.wave.finish", **summary)
            if progress is not None:
                progress(dict(summary))
        campaign_span.set(executed=executed, failed=len(failures),
                          deferred=deferred, interrupted=interrupted)
        bus.event(
            "campaign.finish", campaign=spec.name, executed=executed,
            failed=len(failures), deferred=deferred, interrupted=interrupted,
            seconds=time.perf_counter() - start,
        )

    return CampaignReport(
        name=spec.name,
        total=len(cells),
        skipped=skipped,
        executed=executed,
        failed=failures,
        seconds=time.perf_counter() - start,
        truncated=truncated,
        shard=None if shard_id is None else f"{shard_id[0]}/{shard_id[1]}",
        assigned=assigned,
        deferred=deferred,
        interrupted=interrupted,
    )
