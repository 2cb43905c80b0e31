"""The six E12 workloads: inputs from a seed, one closed-loop pass each.

Every workload generates its inputs from ``seed`` in :meth:`prepare`
(the program only ever sees the generated specs, columns and traces),
executes one *pass* of the user path it stands for in :meth:`run_pass`
and, for a traced run, turns the recorded spans plus a *ladder* of
direct calls on the same inputs into per-layer numbers in
:meth:`layer_metrics`.  Why each workload exists is recorded in
``BENCHMARK.json`` and the README next to this file.

A pass times only the program: digest checks, store disposal and the
restore-resumed replay run after the clock stops.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.apps import GromacsModel
from repro.core.config import SynapseConfig
from repro.core.emulator import Emulator
from repro.core.plan import EmulationPlan
from repro.core.profiler import Profiler
from repro.runtime import (
    CampaignSpec,
    RunRequest,
    RunService,
    analyze_campaign,
    completed_cells,
    elastic_worker,
    ledger_digest,
    run_campaign,
)
from repro.runtime.execute import dispatch
from repro.sim.backend import SimBackend
from repro.sim.demands import ComputeDemand, IODemand, MemoryDemand, NetworkDemand
from repro.sim.engine import Engine
from repro.sim.machines import resolve_machine
from repro.sim.noise import NoiseModel, seed_from
from repro.sim.packed import PackedBuilder, PackedWorkload, pack_workload
from repro.sim.stream import EngineStream
from repro.sim.workload import SimWorkload
from repro.storage import FileStore
from repro.telemetry.spans import span as telemetry_span
from repro.traffic.sim import TrafficSim
from repro.traffic.workload import default_mix, unit_seconds

from e12_trace import LayerTime, NullTracer, Tracer

MACHINES = ("thinkie", "comet", "stampede", "archer")
PROFILED_ON = "thinkie"
SAMPLE_RATE = 2.0
CHUNK = 8192
UTILIZATION = 0.70
#: Cells (or profile requests) a ladder replays; a sample keeps it ~1 s.
LADDER_REQUESTS = 64

#: Input sizes.  ``full`` is the benchmark; ``tiny`` is the tier-1 smoke
#: test's shape of it (same code paths, ~100x less work).
SIZES: dict[str, dict[str, Any]] = {
    "full": {
        "campaign_seeds": 32, "report_seeds": 64, "report_ids": 100,
        "demands_per_chunk": 2083, "iterations": (10**4, 10**5, 10**6, 10**7),
        "profile_seeds": 8, "object_runs": 200, "object_demands": 1200,
        "requests": 500_000,
        # Direct-call ladders repeat each rung this often, keep the median.
        "ladder_repeats": 3,
    },
    "tiny": {
        "campaign_seeds": 1, "report_seeds": 2, "report_ids": 10,
        "demands_per_chunk": 42, "iterations": (10**4, 10**6),
        "profile_seeds": 2, "object_runs": 10, "object_demands": 1200,
        "requests": 5_000, "ladder_repeats": 1,
    },
}

@dataclass
class PassResult:
    """Outcome of one pass: its timed wall, its work, what it produced."""

    wall_s: float
    attempted: int
    failed: int
    #: Output fingerprints by golden key; equal across passes of a run.
    digests: dict[str, str]
    #: Simulated statistics (exactly repeatable) by metric name.
    simulated: dict[str, float] = field(default_factory=dict)
    #: Observations taken outside the timed region in a traced run.
    notes: dict[str, Any] = field(default_factory=dict)


def _sha(payload: Any) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _noise_for(request: RunRequest, spec: Any, workload: Any) -> NoiseModel:
    """The noise stream ``runtime.execute`` derives for a sim request."""
    return NoiseModel(
        seed=seed_from(spec.name, workload.name, request.seed, request.index),
        duration_sigma=spec.noise_sigma,
        counter_sigma=spec.noise_sigma / 3.0,
    )


def profile_ladder(
    requests: list[RunRequest], service: RunService, repeats: int
) -> dict[str, float]:
    """Per-request cost of each layer under a ``profile`` run request.

    Batches of 8 requests (what a campaign wave submits) go through
    ``RunService.run``, then ``dispatch`` directly, then ``Profiler.run``
    on a rebuilt backend, then ``build_packed`` + ``Engine.run`` of the
    same application, back to back: a rung's time minus the one below it
    is the upper layer's own cost.  Differences are taken per batch and
    the median kept, so host drift between rungs cancels.
    """
    specs = {name: resolve_machine(name) for name in MACHINES}
    rows: list[tuple[int, dict[str, float]]] = []
    profiles: list[Any] = []
    for _ in range(repeats):
        profiles = []
        for first in range(0, len(requests), 8):
            batch = requests[first:first + 8]
            row = {}
            row["service"], _ = _timed(lambda: service.run(batch))
            row["dispatch"], _ = _timed(lambda: [
                dispatch(r, r.target, r.machine) for r in batch
            ])
            row["profiler"], profiled = _timed(lambda: [
                Profiler(
                    SimBackend(r.machine, noisy=r.noisy, seed=r.seed,
                               spawn_offset=r.index - 1),
                    config=SynapseConfig(**r.config),
                ).run(r.target, tags=r.tags, command=r.command)
                for r in batch
            ])
            row["build"], workloads = _timed(lambda: [
                r.target.build_packed(specs[r.machine]) for r in batch
            ])
            row["engine"], _ = _timed(lambda: [
                Engine(specs[r.machine], _noise_for(r, specs[r.machine], w)).run(w)
                for r, w in zip(batch, workloads)
            ])
            rows.append((len(batch), row))
            profiles.extend(profiled)

    def per_request(cost: Callable[[dict[str, float]], float]) -> float:
        return statistics.median(cost(row) / n for n, row in rows)

    overheads = []
    for profile in profiles:
        totals = profile.totals()
        base = totals.get("time.runtime_rusage") or totals.get("time.runtime")
        if base:
            overheads.append(100.0 * (profile.tx - base) / base)
    return {
        "service.overhead_us_per_req":
            per_request(lambda row: row["service"] - row["dispatch"]) * 1e6,
        "execute.dispatch_ms_per_req":
            per_request(lambda row: row["dispatch"]) * 1e3,
        "profiler.run_ms": per_request(lambda row: row["profiler"]) * 1e3,
        "profiler.self_ms": per_request(
            lambda row: row["profiler"] - row["build"] - row["engine"]) * 1e3,
        "profiler.samples_per_run":
            statistics.fmean(p.n_samples for p in profiles),
        "profiler.overhead_pct":
            statistics.fmean(overheads) if overheads else 0.0,
        "apps.build_packed_ms": per_request(lambda row: row["build"]) * 1e3,
        "engine.app_run_ms": per_request(lambda row: row["engine"]) * 1e3,
    }


def dark_span_us(rounds: int = 20_000) -> float:
    """Cost of one program-side ``span()`` with no telemetry sink."""
    start = time.perf_counter()
    for _ in range(rounds):
        with telemetry_span("e12.dark"):
            pass
    return (time.perf_counter() - start) / rounds * 1e6


class Workload:
    """Base: seed-derived inputs, one pass, per-layer attribution."""

    name = ""
    #: What ``attempted`` counts, and the metric name the issue gave the
    #: workload's ``work_per_s``.
    unit = ""
    alias = ""

    def __init__(
        self, seed: int, size: dict[str, Any], workdir: Path,
        service: RunService,
    ) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.service = service
        self.n_ops = 0
        #: Passes a ladder ran beside the timed ones; their digests must
        #: agree with the run's like any other pass.
        self.ladder_results: list[PassResult] = []

    def prepare(self) -> None:
        """Generate every input from the seed (repeatable: set-up is
        timed as the median of several calls)."""
        raise NotImplementedError

    def run_pass(self, tr: Tracer | NullTracer, observe: bool = False) -> PassResult:
        """One closed-loop pass.  ``observe`` (traced runs, both their
        traced and untraced passes) adds observations that cost nothing
        measurable: wave times from ``progress``, bytes on disk."""
        raise NotImplementedError

    def layer_metrics(
        self,
        per_pass: Callable[[str], LayerTime],
        results: list[PassResult],
        tracer: Tracer,
        traced_ids: list[int],
    ) -> dict[str, float]:
        """Per-layer numbers of a traced run.  ``per_pass(name)`` is the
        span aggregate of ``name`` averaged over the traced passes."""
        raise NotImplementedError


# -- campaigns ---------------------------------------------------------------


def _campaign_spec(seed: int, n_seeds: int) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "e12",
        "kind": "profile",
        "apps": ["gromacs:iterations=50000", "sleeper:sleep_seconds=2"],
        "machines": list(MACHINES),
        "seeds": random.Random(seed).sample(range(2**31), n_seeds),
        "repeats": 2,
        "config": {"sample_rate": SAMPLE_RATE},
    })


def _n_results(args: tuple, result: Any) -> int:
    return len(result)


#: Store and service calls a campaign makes, with the documents or
#: requests each one carried.
STORE_CALLS: dict[str, Callable[..., int] | None] = {
    "put_many": _n_results,
    "put": None,
    "delete": None,
    "entries": _n_results,
    "find_ids": _n_results,
    "get_many": _n_results,
}
SERVICE_CALLS = {"run": _n_results}


def _wave_stats(results: list[PassResult]) -> tuple[float, float, float]:
    """p50 and p95 wave time over all passes, and the median over passes
    of last-quarter / first-quarter median wave time (does a wave get
    slower as the ledger fills?)."""
    waves = [ms for result in results for ms in result.notes["waves_ms"]]
    growth = []
    for result in results:
        per_pass = result.notes["waves_ms"]
        quarter = max(1, len(per_pass) // 4)
        growth.append(
            statistics.median(per_pass[-quarter:])
            / statistics.median(per_pass[:quarter])
        )
    ordered = sorted(waves)
    p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
    return statistics.median(waves), p95, statistics.median(growth)


class CampaignUnsharded(Workload):
    name = "campaign_unsharded"
    unit = "cells"
    alias = "cells_per_s"
    layer = "campaign"

    def prepare(self) -> None:
        self.spec = _campaign_spec(self.seed, self.size["campaign_seeds"])
        self.n_ops = self.spec.n_cells
        self._stores = itertools.count()

    def _execute(self, store: Any, service: Any, progress: Any) -> Any:
        return run_campaign(self.spec, store, service=service, progress=progress)

    def run_pass(self, tr, observe=False, execute=None) -> PassResult:
        execute = execute or self._execute
        # A fresh store per pass, all disposed of together when the run
        # ends: deleting ~1500 inodes between passes makes the next
        # pass's creates several times dearer on ext4 (it steps over
        # recently deleted inodes), which would time the benchmark's own
        # housekeeping.
        root = self.workdir / f"store-{next(self._stores)}"
        store = FileStore(root)
        elapsed: list[float] = []
        progress = (lambda summary: elapsed.append(summary["elapsed"])) \
            if observe else None
        start = time.perf_counter()
        with tr.span(f"{self.layer}.run"):
            report = execute(
                tr.proxy(store, "storage", STORE_CALLS),
                tr.proxy(self.service, "service", SERVICE_CALLS),
                progress,
            )
        wall = time.perf_counter() - start
        digest = ledger_digest(store, self.spec.name)
        notes: dict[str, Any] = {}
        if observe:
            notes["waves_ms"] = [
                (b - a) * 1e3 for a, b in zip([0.0] + elapsed, elapsed)
            ]
            notes["store_bytes"] = sum(
                path.stat().st_size for path in root.rglob("*") if path.is_file()
            )
        return PassResult(
            wall, self.n_ops, report.remaining, {"campaign_ledger": digest},
            notes=notes,
        )

    def _ladder_requests(self) -> list[RunRequest]:
        cells = self.spec.cells()
        step = max(1, len(cells) // LADDER_REQUESTS)
        return [cell.to_request() for cell in cells[::step]]

    def layer_metrics(self, per_pass, results, tracer, traced_ids):
        cells = self.n_ops
        store_names = [f"storage.{call}" for call in STORE_CALLS]
        docs_written = (
            per_pass("storage.put_many").work + per_pass("storage.put").work
        )
        p50, p95, growth = _wave_stats(results)
        metrics = {
            "storage.put_many_ms_per_cell":
                per_pass("storage.put_many").total_s * 1e3 / cells,
            "storage.put_many_calls": per_pass("storage.put_many").calls,
            "storage.bytes_per_cell": statistics.median(
                result.notes["store_bytes"] for result in results) / cells,
            "storage.entries_s": per_pass("storage.entries").total_s,
            "storage.entries_calls": per_pass("storage.entries").calls,
            "storage.delete_calls": per_pass("storage.delete").calls,
            "storage.ops_per_cell":
                sum(per_pass(name).calls for name in store_names) / cells,
            f"{self.layer}.self_s": per_pass(f"{self.layer}.run").self_s,
            f"{self.layer}.wave_ms_p50": p50,
            f"{self.layer}.wave_ms_p95": p95,
            f"{self.layer}.wave_growth": growth,
            "coordinator.marker_writes_per_cell":
                (docs_written - cells) / cells,
            "service.run_s": per_pass("service.run").total_s,
            "service.batches": per_pass("service.run").calls,
        }
        metrics.update(profile_ladder(
            self._ladder_requests(), self.service, self.size["ladder_repeats"]))
        return metrics


class CampaignElastic(CampaignUnsharded):
    name = "campaign_elastic"
    layer = "coordinator"

    def _execute(self, store: Any, service: Any, progress: Any) -> Any:
        return elastic_worker(
            self.spec, store, worker="w0", service=service, progress=progress
        )

    def layer_metrics(self, per_pass, results, tracer, traced_ids):
        metrics = super().layer_metrics(per_pass, results, tracer, traced_ids)
        # The same cells through the unsharded loop, in this process and
        # on this store root: what the lease protocol costs on top.
        unsharded_loop = super()._execute
        unsharded = [
            self.run_pass(NullTracer(), execute=unsharded_loop)
            for _ in range(self.size["ladder_repeats"])
        ]
        self.ladder_results = unsharded
        metrics["coordinator.overhead_ratio"] = (
            statistics.median(
                r.wall_s for i, r in enumerate(results) if i not in traced_ids)
            / statistics.median(r.wall_s for r in unsharded)
        )
        return metrics


class LedgerReport(Workload):
    name = "ledger_report"
    unit = "cells"
    alias = "report_cells_per_s"

    def prepare(self) -> None:
        self.spec = _campaign_spec(self.seed, self.size["report_seeds"])
        self.n_ops = self.spec.n_cells
        self.root = self.workdir / "ledger"

    def _prebuild(self) -> None:
        report = run_campaign(self.spec, FileStore(self.root), service=self.service)
        if not report.complete:
            raise RuntimeError(f"ledger prebuild incomplete: {report.to_dict()}")

    def run_pass(self, tr, observe=False) -> PassResult:
        spec, name = self.spec, self.spec.name
        if not self.root.exists():
            # Built once, by the warm-up pass, so set-up time carries it:
            # 3.7 s a time is too dear to repeat for a median.
            self._prebuild()
        start = time.perf_counter()
        with tr.span("report.pass"):
            with tr.span("storage.open"):
                # A fresh handle: its index is cold, the first scan
                # replays every group journal.
                store = tr.proxy(FileStore(self.root), "storage", STORE_CALLS)
            with tr.span("campaign.completed_cells"):
                done = completed_cells(store, name)
            with tr.span("campaign.resume_noop"):
                resumed = run_campaign(spec, store, service=self.service)
            with tr.span("campaign.ledger_digest"):
                digest = ledger_digest(store, name)
            with tr.span("analyze.build"):
                analysis = analyze_campaign(spec, store)
            with tr.span("analyze.render_json"):
                rendered = analysis.render("json")
            ids = store.find_ids(tags=[f"campaign={name}"])[: self.size["report_ids"]]
            profiles = store.get_many(ids)
        wall = time.perf_counter() - start
        complete = (
            len(done) == self.n_ops
            and resumed.executed == 0 and resumed.complete
            and analysis.complete
            and len(profiles) == self.size["report_ids"]
        )
        return PassResult(
            wall, self.n_ops, 0 if complete else self.n_ops,
            {
                "report_ledger": digest,
                "report_json": hashlib.sha256(rendered.encode("utf-8")).hexdigest(),
            },
        )

    def layer_metrics(self, per_pass, results, tracer, traced_ids):
        cold_scans = [
            tracer.first("storage.entries", pass_id) for pass_id in traced_ids
        ]
        return {
            "storage.open_cold_ms": (
                per_pass("storage.open").total_s
                + statistics.fmean(sp.end - sp.start for sp in cold_scans)
            ) * 1e3,
            "storage.entries_s": per_pass("storage.entries").total_s,
            "storage.entries_calls": per_pass("storage.entries").calls,
            "storage.find_ids_ms": per_pass("storage.find_ids").total_s * 1e3,
            "storage.get_many_ms": per_pass("storage.get_many").total_s * 1e3,
            "storage.ops_per_cell": sum(
                per_pass(f"storage.{call}").calls for call in STORE_CALLS
            ) / self.n_ops,
            "campaign.completed_cells_ms":
                per_pass("campaign.completed_cells").total_s * 1e3,
            "campaign.resume_noop_ms":
                per_pass("campaign.resume_noop").total_s * 1e3,
            "campaign.ledger_digest_ms":
                per_pass("campaign.ledger_digest").total_s * 1e3,
            "analyze.build_ms": per_pass("analyze.build").total_s * 1e3,
            "analyze.render_json_ms":
                per_pass("analyze.render_json").total_s * 1e3,
        }


# -- engine ------------------------------------------------------------------


def record_digest(record: Any) -> str:
    """SHA-256 over a record's observable timeline: duration, phase
    bounds, every counter and level series byte-exact, I/O event count."""
    h = hashlib.sha256()
    h.update(np.float64(record.duration).tobytes())
    h.update(repr(record.phase_bounds).encode())
    for group in (record.counters, record.levels):
        for name in sorted(group):
            series = group[name]
            h.update(name.encode())
            h.update(series.times.tobytes())
            h.update(series.values.tobytes())
    h.update(str(len(record.io_events)).encode())
    return h.hexdigest()


class EnginePacked(Workload):
    name = "engine_packed"
    unit = "demands"
    alias = "demands_per_s"
    phases = 24
    streams = 2

    def prepare(self) -> None:
        rng = np.random.Generator(np.random.PCG64(self.seed))
        per = self.size["demands_per_chunk"]
        # One column set per (phase, stream): the E10 mix of five
        # same-kind chunks, sizes jittered by the seed.
        self.chunks = [
            {
                "md": 2e7 * rng.lognormal(0.0, 0.25, per),
                "read": rng.integers(1 << 19, 3 << 19, per),
                "alloc": rng.integers(2 << 20, 6 << 20, per),
                "sent": rng.integers(128 << 10, 384 << 10, per),
                "omp": 1e7 * rng.lognormal(0.0, 0.25, per),
            }
            for _ in range(self.phases * self.streams)
        ]
        self.noise_seed = int(rng.integers(0, 2**31))
        self.machine = resolve_machine(PROFILED_ON)
        self.n_demands = self.phases * self.streams * 5 * per
        # Silent run, noisy run and streamed run each execute them all.
        self.n_ops = 3 * self.n_demands

    @staticmethod
    def _append_stream(builder: PackedBuilder, chunk: dict[str, np.ndarray]) -> None:
        builder.compute_many(
            chunk["md"], workload_class="app.md", flops_per_instruction=0.3
        )
        builder.io_many(bytes_read=chunk["read"], bytes_written=1 << 19)
        builder.memory_many(allocate=chunk["alloc"], free=2 << 20)
        builder.network_many(bytes_sent=chunk["sent"], bytes_received=128 << 10)
        builder.compute_many(chunk["omp"], threads=2, paradigm="openmp")

    def _build(self, phases: range, name: str) -> PackedWorkload:
        builder = PackedBuilder(name)
        for phase in phases:
            builder.phase(f"p{phase}")
            for stream in range(self.streams):
                builder.stream(f"s{stream}")
                self._append_stream(
                    builder, self.chunks[phase * self.streams + stream]
                )
        return builder.build()

    def _wave(self, phase: int) -> PackedWorkload:
        return self._build(range(phase, phase + 1), "e12-wave")

    def run_pass(self, tr, observe=False) -> PassResult:
        n, machine = self.n_demands, self.machine
        half = self.phases // 2
        start = time.perf_counter()
        with tr.span("engine_packed.pass"):
            with tr.span("packed.build", n):
                workload = self._build(range(self.phases), "e12")
            with tr.span("engine.run_silent", n):
                silent = Engine(machine, NoiseModel.silent()).run(workload)
            with tr.span("engine.run_noisy", n):
                noisy = Engine(machine, NoiseModel(seed=self.noise_seed)).run(workload)
            stream = Engine(machine, NoiseModel.silent()).open_stream(name="e12")
            for phase in range(self.phases):
                if phase == half:
                    with tr.span("stream.checkpoint"):
                        state = json.loads(json.dumps(stream.checkpoint()))
                    with tr.span("stream.restore"):
                        resumed = EngineStream.restore(state)
                with tr.span("packed.build_wave"):
                    wave = self._wave(phase)
                with tr.span("stream.feed", wave.n_demands):
                    stream.feed(wave)
        wall = time.perf_counter() - start
        # The restored stream replays the second half: it must land
        # where the uninterrupted stream and the one-shot run landed.
        for phase in range(half, self.phases):
            resumed.feed(self._wave(phase))
        streamed = stream.totals()
        one_shot = silent.totals()
        totals = {
            _sha({name: one_shot.get(name) for name in streamed}),
            _sha(streamed),
            _sha(resumed.totals()),
        }
        digests = {
            "engine_silent": record_digest(silent),
            "engine_noisy": record_digest(noisy),
            "engine_totals":
                totals.pop() if len(totals) == 1 else "silent!=stream!=resumed",
        }
        notes = {"packed_bytes": workload.nbytes()} if observe else {}
        return PassResult(wall, self.n_ops, 0, digests, notes=notes)

    def layer_metrics(self, per_pass, results, tracer, traced_ids):
        n = self.n_demands
        silent = per_pass("engine.run_silent").total_s
        feed = per_pass("stream.feed").total_s
        return {
            "packed.build_s": per_pass("packed.build").total_s,
            "packed.bytes": results[-1].notes["packed_bytes"],
            "engine.run_silent_s": silent,
            "engine.ns_per_demand": silent / n * 1e9,
            "noise.apply_s": per_pass("engine.run_noisy").total_s - silent,
            "stream.feed_s": feed,
            "stream.ns_per_demand": feed / n * 1e9,
            "stream.checkpoint_ms": per_pass("stream.checkpoint").total_s * 1e3,
            "stream.restore_ms": per_pass("stream.restore").total_s * 1e3,
        }


# -- small runs --------------------------------------------------------------


def _tx(record: Any) -> float:
    return record.duration


class SmallRuns(Workload):
    name = "small_runs"
    unit = "runs"
    alias = "runs_per_s"

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        seeds = rng.sample(range(2**31), self.size["profile_seeds"])
        self.profile_requests = []
        for iterations in self.size["iterations"]:
            app = GromacsModel(iterations=iterations)
            for seed in seeds:
                self.profile_requests.append(RunRequest(
                    kind="profile", target=app, machine=PROFILED_ON,
                    config={"sample_rate": SAMPLE_RATE}, seed=seed,
                    tags=app.tags(), command=app.command(),
                ))
        self.native_requests = [
            RunRequest(kind="engine", target=request.target, machine=machine,
                       seed=request.seed, reduce=_tx)
            for request in self.profile_requests for machine in MACHINES
        ]
        self.object_workload = self._object_workload(
            np.random.Generator(np.random.PCG64(self.seed))
        )
        self.object_seed = rng.randrange(2**31)
        self.n_ops = (
            len(self.profile_requests) + 2 * len(self.native_requests)
            + self.size["object_runs"]
        )

    def _object_workload(self, rng: np.random.Generator) -> SimWorkload:
        """The E7 demand-heavy object workload (4 phases x 2 streams,
        five kinds round-robin), sizes jittered by the seed."""
        workload = SimWorkload(name="e12-object")
        per_stream = max(1, self.size["object_demands"] // 8)
        for p in range(4):
            phase = workload.phase(f"p{p}")
            for s in range(2):
                stream = phase.stream(f"s{s}")
                scale = rng.lognormal(0.0, 0.25, per_stream)
                for i in range(per_stream):
                    kind, k = i % 5, float(scale[i])
                    if kind == 0:
                        stream.add(ComputeDemand(
                            instructions=2e7 * k, workload_class="app.md",
                            flops_per_instruction=0.3,
                        ))
                    elif kind == 1:
                        stream.add(IODemand(
                            bytes_read=int((1 << 20) * k), bytes_written=1 << 19
                        ))
                    elif kind == 2:
                        stream.add(MemoryDemand(
                            allocate=int((4 << 20) * k), free=2 << 20
                        ))
                    elif kind == 3:
                        stream.add(NetworkDemand(
                            bytes_sent=int((256 << 10) * k),
                            bytes_received=128 << 10,
                        ))
                    else:
                        stream.add(ComputeDemand(
                            instructions=1e7 * k, threads=2, paradigm="openmp"
                        ))
        return workload

    def _emulate_requests(self, profiles: list[Any]) -> list[RunRequest]:
        return [
            RunRequest(kind="emulate", target=profile, machine=machine,
                       config=SynapseConfig(), seed=request.seed)
            for request, profile in zip(self.profile_requests, profiles)
            if profile is not None
            for machine in MACHINES
        ]

    def run_pass(self, tr, observe=False) -> PassResult:
        service = tr.proxy(self.service, "service", SERVICE_CALLS)
        start = time.perf_counter()
        with tr.span("small_runs.pass"):
            profiled = service.run(self.profile_requests, rethrow=False)
            profiles = [result.value for result in profiled]
            emulated = service.run(self._emulate_requests(profiles), rethrow=False)
            native = service.run(self.native_requests, rethrow=False)
            engine = Engine(
                resolve_machine(PROFILED_ON), NoiseModel(seed=self.object_seed)
            )
            with tr.span("engine.small_object_run", self.size["object_runs"]):
                durations = [
                    engine.run(self.object_workload).duration
                    for _ in range(self.size["object_runs"])
                ]
        wall = time.perf_counter() - start
        failed = sum(
            1 for result in (*profiled, *emulated, *native) if not result.ok
        ) + 2 * len(MACHINES) * profiles.count(None)
        simulated, emul_tx, native_tx = {}, [], []
        if not failed:
            emul_tx = [result.value.tx for result in emulated]
            native_tx = [result.value for result in native]
            simulated = self._fidelity(emul_tx, native_tx)
        digest = _sha([
            [profile.n_samples for profile in profiles if profile is not None],
            emul_tx, native_tx, durations,
        ])
        notes = {"profiles": profiles} if observe else {}
        return PassResult(
            wall, self.n_ops, failed, {"small_runs_tx": digest}, simulated, notes
        )

    def _fidelity(self, emul_tx: list[float], native_tx: list[float]) -> dict[str, float]:
        """Mean |emulated Tx - native Tx| / native Tx at iterations >=
        1e6: on the profiled machine, and on the other three."""
        same, cross = [], []
        pairs = zip(self.native_requests, emul_tx, native_tx)
        for request, emulated, native in pairs:
            if request.target.iterations < 10**6:
                continue
            error = 100.0 * abs(emulated - native) / native
            (same if request.machine == PROFILED_ON else cross).append(error)
        return {
            "emul_err_same_pct": statistics.fmean(same),
            "emul_err_cross_pct": statistics.fmean(cross),
        }

    def layer_metrics(self, per_pass, results, tracer, traced_ids):
        metrics = {
            "service.run_s": per_pass("service.run").total_s,
            "service.batches": per_pass("service.run").calls,
            "engine.small_object_run_ms":
                per_pass("engine.small_object_run").total_s * 1e3
                / self.size["object_runs"],
        }
        metrics.update(profile_ladder(
            self.profile_requests, self.service, self.size["ladder_repeats"]))
        metrics.update(self._emulate_ladder(results[-1].notes["profiles"]))
        packed_seconds, engine_seconds = [], []
        engine = Engine(resolve_machine(PROFILED_ON), NoiseModel(seed=self.object_seed))
        for _ in range(self.size["ladder_repeats"] * 5):
            seconds, packed = _timed(lambda: pack_workload(self.object_workload))
            packed_seconds.append(seconds)
            seconds, _ = _timed(lambda: engine.run(packed))
            engine_seconds.append(seconds)
        metrics["packed.pack_ms"] = statistics.median(packed_seconds) * 1e3
        metrics["engine.small_packed_run_ms"] = statistics.median(engine_seconds) * 1e3
        return metrics

    def _emulate_ladder(self, profiles: list[Any]) -> dict[str, float]:
        """``Emulator.replay`` against its parts — plan construction,
        the plan's packed build, the engine run of that build — per
        profile (four machines each), differences paired as in
        :func:`profile_ladder`."""
        config = SynapseConfig()
        specs = {name: resolve_machine(name) for name in MACHINES}
        rows: list[dict[str, float]] = []
        for _ in range(self.size["ladder_repeats"]):
            for request, profile in zip(self.profile_requests, profiles):
                row = {}
                row["plan"], plan = _timed(
                    lambda: EmulationPlan.from_profile(profile, config))
                row["replay"], _ = _timed(lambda: [
                    Emulator(
                        backend=SimBackend(machine, seed=request.seed),
                        config=config,
                    ).replay(plan)
                    for machine in MACHINES
                ])
                row["build"], workloads = _timed(lambda: [
                    plan.build_packed_workload(config, specs[machine])
                    for machine in MACHINES
                ])
                row["engine"], _ = _timed(lambda: [
                    Engine(
                        specs[machine], _noise_for(request, specs[machine], w)
                    ).run(w)
                    for machine, w in zip(MACHINES, workloads)
                ])
                rows.append(row)

        def per_run(cost: Callable[[dict[str, float]], float]) -> float:
            return statistics.median(cost(row) for row in rows) / len(MACHINES)

        return {
            "plan.from_profile_ms": statistics.median(
                row["plan"] for row in rows) * 1e3,
            "plan.build_packed_ms": per_run(lambda row: row["build"]) * 1e3,
            "emulator.replay_ms": per_run(lambda row: row["replay"]) * 1e3,
            "emulator.self_ms": per_run(
                lambda row: row["replay"] - row["build"] - row["engine"]) * 1e3,
        }


# -- traffic -----------------------------------------------------------------


class TrafficOpenLoop(Workload):
    name = "traffic_open_loop"
    unit = "requests"
    alias = "requests_per_s"

    def prepare(self) -> None:
        self.n_ops = self.size["requests"]
        self.mix_seed = random.Random(self.seed).randrange(2**31)
        mix = default_mix(seed=self.mix_seed)
        # 70 % of the fleet's analytic capacity: per machine the
        # mix-weighted mean service time, aggregate rate the sum of
        # inverses (the unit costs the fleet itself dispatches on).
        units = unit_seconds(mix.classes, MACHINES)
        weights = np.asarray([cls.weight for cls in mix.classes])
        weights = weights / weights.sum()
        self.rate = UTILIZATION * float(np.sum(1.0 / (weights @ units)))

    def _sim(self, engine: bool = True) -> TrafficSim:
        return TrafficSim(
            f"poisson:rate={self.rate!r}", list(MACHINES),
            default_mix(seed=self.mix_seed), discipline="fifo", dispatch="eft",
            engine=engine, seed=self.seed, name="e12",
        )

    def run_pass(self, tr, observe=False, engine=True) -> PassResult:
        start = time.perf_counter()
        with tr.span("traffic.run"):
            sim = self._sim(engine)
            sim.process = tr.proxy(sim.process, "arrivals", {"take": _n_results})
            sim.mix = tr.proxy(
                sim.mix, "mix", {"draw": lambda args, result: len(result[0])})
            sim.fleet = tr.proxy(
                sim.fleet, "fleet",
                {"offer": lambda args, result: result["n"], "drain": None})
            report = sim.run(self.n_ops, chunk=CHUNK).to_dict()
        wall = time.perf_counter() - start
        return PassResult(
            wall, self.n_ops, self.n_ops - report["requests"],
            {
                "traffic_latency": report["latency_digest"],
                "traffic_ledger": report["ledger_digest"],
            },
            {"sim_p99_ms": report["latency"]["p99"] * 1e3},
        )

    def layer_metrics(self, per_pass, results, tracer, traced_ids):
        n = self.n_ops
        offer = per_pass("fleet.offer").total_s
        # The same arrivals with engine ledgers off: what is left of
        # ``fleet.offer`` is queueing and dispatch, the rest is the
        # per-(machine, class) EngineStream feed.
        ledgerless = Tracer()
        gc.collect()
        self.run_pass(ledgerless, engine=False)
        offer_ledgerless = ledgerless.layer_times([0])["fleet.offer"].total_s
        mix = default_mix(seed=self.mix_seed)
        unit_ms = statistics.median(
            _timed(lambda: unit_seconds(mix.classes, MACHINES))[0]
            for _ in range(self.size["ladder_repeats"] * 3)
        ) * 1e3
        return {
            "arrivals.take_ns_per_req":
                per_pass("arrivals.take").total_s / n * 1e9,
            "mix.draw_ns_per_req": per_pass("mix.draw").total_s / n * 1e9,
            "fleet.offer_ns_per_req": offer / n * 1e9,
            "fleet.drain_ms": per_pass("fleet.drain").total_s * 1e3,
            "traffic.self_s": per_pass("traffic.run").self_s,
            "stream.feed_s": offer - offer_ledgerless,
            "predictor.unit_seconds_ms": unit_ms,
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        CampaignUnsharded, CampaignElastic, LedgerReport, EnginePacked,
        SmallRuns, TrafficOpenLoop,
    )
}
