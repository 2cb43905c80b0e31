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
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.errors import ConfigError, is_retryable
from repro.core.samples import Profile
from repro.runtime.execute import PlanScope, plan_scope
from repro.runtime.service import RunPolicy, RunRequest, RunService, get_service
from repro.telemetry.events import get_bus
from repro.telemetry.spans import span
from repro.util.tables import Table

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "CampaignSpec",
    "comparable_artifact",
    "completed_cells",
    "ledger",
    "ledger_digest",
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


def ledger(store: Any, name: str) -> dict[str, Any]:
    """The campaign's ledger: cell digest -> stored artifact profile.

    Resolves digests on the index plane, then batch-loads exactly the
    artifact payloads via ``get_many`` (duplicate digests — racing
    invocations' bit-identical artifacts — dedupe to the newest entry).
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
    bit-identical across reruns, workers, resumes and chaos runs.
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
    execution order, worker count, interruptions, retries or
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
        #: The cells this invocation may execute, in spec order (a
        #: caller that narrows it does so before its first wave).
        self.scope = list(self.cells.values())
        self.reread()
        #: Cells somebody had stored before this invocation started.
        self.skipped = len(self.cells.keys() & self.done)
        self.start = time.perf_counter()
        self._reported = self.counts()

    @property
    def total(self) -> int:
        return len(self.cells)

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
        """The cells in scope and outside :attr:`done`, in spec order."""
        return [cell for cell in self.scope if cell.digest not in self.done]

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

        Builds the cells' requests (a cell whose request cannot be built
        fails here, like one whose run fails), runs them through the
        service inside the sweep's plan scope, stores the artifacts of
        the ones that succeeded in one ``put_many`` and emits the wave's
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
            requests, runnable = [], []
            for cell in wave:
                try:
                    requests.append(cell.to_request())
                    runnable.append(cell)
                except Exception as exc:  # unknown app spec, bad config, ...
                    self._fail(cell, repr(exc))
            with held(requests):
                self._declare(runnable, requests)
                results = self.service.run(
                    requests, processes=self.processes, rethrow=False
                )
                artifacts, stored = [], []
                for cell, result in zip(runnable, results):
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
    with _sweep(
        spec, store, member=new_member(), service=service,
        processes=processes, progress=progress,
    ) as sweep:
        pending = sweep.pending()
        if limit is not None and len(pending) > limit:
            pending = sweep.scope = pending[: max(0, limit)]
            sweep.truncated = True
        step = max(1, checkpoint)
        n_waves = (len(pending) + step - 1) // step
        for wave_no in range(1, n_waves + 1):
            if stop is not None and stop():
                sweep.interrupt(wave_no)
                break
            sweep.run_wave(
                wave_no, n_waves, pending[(wave_no - 1) * step : wave_no * step]
            )
    return sweep.report()
