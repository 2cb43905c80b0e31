"""Queue-aware fleet model: dispatch, latency accounting, engine ledger.

A :class:`Fleet` is a set of machines (registry names or specs), each
fronted by a single FIFO or processor-sharing queue, serving a
:class:`~repro.traffic.workload.RequestMix`.  For every arriving request
the fleet:

1. **Dispatches** to a machine — ``"eft"`` picks the earliest predicted
   finish (the placement planner's greedy EFT heuristic applied online,
   using the same analytical :class:`~repro.predict.predictor.Predictor`
   unit costs the offline planner ranks machines with), ``"rr"`` round-
   robins.
2. **Queues** it: end-to-end latency = queue wait + allocation cost +
   service time, where service is the predicted unit seconds for the
   request's class on that machine scaled by its size factor.
3. **Accounts** it on the engine plane: demands are packed per
   (machine, class) and streamed through a dedicated
   :class:`~repro.sim.stream.EngineStream`, so cumulative resource
   ledgers come from the real columnar engine.  One stream per
   (machine, class) pair keeps every stream's demand sequence identical
   under any chunking of the arrival stream — which is what makes the
   ledger digest chunking-invariant.

Latencies flow into a :class:`LatencyRecorder`: a chained
:class:`~repro.traffic.queueing.BlockDigest` over the record byte
stream (the bit-identity golden), a fixed log-spaced
:class:`LatencyHistogram` for p50/p99 in O(1) memory, and optionally the
raw per-request arrays for property tests.  Records are emitted in
request-id order regardless of completion order (processor sharing can
finish requests out of order), so the digest is discipline-agnostic
deterministic.

``scale_up``/``scale_down`` add or retire clones of the base machines
(autoscaling's mechanism; the policy lives in
:class:`~repro.traffic.sim.TrafficSim`).  Retired clones finish their
queue but receive no new work; base machines are never retired.

Everything checkpoints to a JSON-safe dict and restores bit-exactly
mid-trace, riding on ``EngineStream.checkpoint()`` for the ledgers.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigError, number
from repro.sim.machines import resolve_machine
from repro.sim.noise import NoiseModel, seed_from
from repro.sim.resource import MachineSpec
from repro.sim.stream import EngineStream
from repro.traffic.queueing import BlockDigest, FifoQueue, PSQueue
from repro.traffic.workload import RequestMix, batch_for_class, unit_seconds

__all__ = ["Fleet", "LatencyHistogram", "LatencyRecorder"]

_CHECKPOINT_VERSION = 1


class LatencyHistogram:
    """Fixed log-spaced latency histogram: quantiles in O(1) memory.

    512 geometric bins over [1e-7 s, 1e6 s] give ~6 % bin resolution;
    out-of-range values clamp into the edge bins.  Quantiles are read as
    the geometric midpoint of the covering bin (exact count/sum/min/max
    are tracked separately).
    """

    LO, HI, BINS = 1e-7, 1e6, 512

    def __init__(self) -> None:
        self._edges = np.geomspace(self.LO, self.HI, self.BINS + 1)
        self.counts = np.zeros(self.BINS, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe_many(self, values: np.ndarray) -> None:
        if values.size == 0:
            return
        bins = np.searchsorted(self._edges, values, side="right") - 1
        np.clip(bins, 0, self.BINS - 1, out=bins)
        np.add.at(self.counts, bins, 1)
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile (within one log-bin's width)."""
        if not self.count:
            return 0.0
        target = q * self.count
        cum = np.cumsum(self.counts)
        bin_ = int(np.searchsorted(cum, target, side="left"))
        bin_ = min(bin_, self.BINS - 1)
        return float(np.sqrt(self._edges[bin_] * self._edges[bin_ + 1]))

    def state_dict(self) -> Dict[str, Any]:
        return {
            "counts": self.counts.tolist(),
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max,
        }

    @classmethod
    def restore(cls, state: Dict[str, Any]) -> "LatencyHistogram":
        hist = cls()
        hist.counts = np.asarray(state["counts"], dtype=np.int64)
        hist.count = int(state["count"])
        hist.total = float(state["total"])
        hist.min = float("inf") if state["min"] is None else float(state["min"])
        hist.max = float(state["max"])
        return hist


#: Per-record digest layout: 7 float64s.
_REC_FIELDS = 7  # (request id, arrival, start, finish, machine, class, size)


class LatencyRecorder:
    """In-order latency record sink: digest + histogram + stats.

    Records may be *added* out of request-id order (processor sharing);
    they are *emitted* — hashed, binned, counted — strictly in id order
    via a pending reorder buffer, so the digest never depends on
    completion interleaving.
    """

    def __init__(self, keep_records: bool = False) -> None:
        self.digest = BlockDigest()
        self.hist = LatencyHistogram()
        self.wait_total = 0.0
        self.wait_max = 0.0
        self.max_finish = 0.0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        self._next = 0
        self._pending: Dict[int, Tuple[float, float, float, int, int, float]] = {}
        self.keep_records = keep_records
        self._kept: List[np.ndarray] = []

    @property
    def emitted(self) -> int:
        return self._next

    def note_arrivals(self, times: np.ndarray) -> None:
        if times.size == 0:
            return
        if self.first_arrival is None:
            self.first_arrival = float(times[0])
        self.last_arrival = float(times[-1])

    def _emit_block(self, block: np.ndarray) -> None:
        """Emit a (k, 7) float64 block of in-order records."""
        self.digest.update(np.ascontiguousarray(block).tobytes())
        latencies = block[:, 3] - block[:, 1]
        self.hist.observe_many(latencies)
        waits = block[:, 2] - block[:, 1]
        self.wait_total += float(waits.sum())
        if waits.size:
            self.wait_max = max(self.wait_max, float(waits.max()))
        self.max_finish = max(self.max_finish, float(block[:, 3].max()))
        if self.keep_records:
            self._kept.append(block.copy())

    def add_batch(
        self,
        first_id: int,
        arrivals: np.ndarray,
        starts: np.ndarray,
        finishes: np.ndarray,
        machines: np.ndarray,
        classes: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        """Fast path: a consecutive, in-order run of records."""
        k = arrivals.size
        if k == 0:
            return
        if first_id != self._next or self._pending:
            for j in range(k):
                self.add(
                    first_id + j,
                    float(arrivals[j]),
                    float(starts[j]),
                    float(finishes[j]),
                    int(machines[j]),
                    int(classes[j]),
                    float(sizes[j]),
                )
            return
        block = np.empty((k, _REC_FIELDS), dtype=np.float64)
        block[:, 0] = np.arange(first_id, first_id + k)
        block[:, 1] = arrivals
        block[:, 2] = starts
        block[:, 3] = finishes
        block[:, 4] = machines
        block[:, 5] = classes
        block[:, 6] = sizes
        self._emit_block(block)
        self._next += k

    def add(
        self,
        request_id: int,
        arrival: float,
        start: float,
        finish: float,
        machine: int,
        cls: int,
        size: float,
    ) -> None:
        """Add one record (any order); emits every run that completes."""
        self._pending[request_id] = (arrival, start, finish, machine, cls, size)
        if request_id != self._next:
            return
        run: List[List[float]] = []
        while self._next in self._pending:
            arrival, start, finish, machine, cls, size = self._pending.pop(self._next)
            run.append(
                [float(self._next), arrival, start, finish,
                 float(machine), float(cls), size]
            )
            self._next += 1
        self._emit_block(np.asarray(run, dtype=np.float64))

    def records(self) -> np.ndarray:
        """All emitted records as an (n, 7) array (keep_records only)."""
        if not self.keep_records:
            raise ValueError("recorder was created with keep_records=False")
        if not self._kept:
            return np.empty((0, _REC_FIELDS), dtype=np.float64)
        return np.concatenate(self._kept, axis=0)

    def state_dict(self) -> Dict[str, Any]:
        # Kept raw records are an in-memory analysis aid, not checkpoint
        # state; digests and histograms carry the resumable fingerprint.
        return {
            "digest": self.digest.state_dict(),
            "hist": self.hist.state_dict(),
            "wait_total": self.wait_total,
            "wait_max": self.wait_max,
            "max_finish": self.max_finish,
            "first_arrival": self.first_arrival,
            "last_arrival": self.last_arrival,
            "next": self._next,
            "pending": {
                str(rid): list(vals) for rid, vals in sorted(self._pending.items())
            },
        }

    @classmethod
    def restore(cls, state: Dict[str, Any], keep_records: bool = False) -> "LatencyRecorder":
        recorder = cls(keep_records=keep_records)
        recorder.digest = BlockDigest.restore(state["digest"])
        recorder.hist = LatencyHistogram.restore(state["hist"])
        recorder.wait_total = float(state["wait_total"])
        recorder.wait_max = float(state["wait_max"])
        recorder.max_finish = float(state["max_finish"])
        recorder.first_arrival = state["first_arrival"]
        recorder.last_arrival = state["last_arrival"]
        recorder._next = int(state["next"])
        recorder._pending = {
            int(rid): tuple(vals) for rid, vals in state["pending"].items()
        }
        return recorder


class _Server:
    """One fleet machine: spec, queue, activity flag, tallies."""

    __slots__ = ("name", "template", "spec", "queue", "active", "requests")

    def __init__(
        self,
        name: str,
        template: str,
        spec: MachineSpec,
        queue: FifoQueue | PSQueue,
        active: bool = True,
    ) -> None:
        self.name = name
        self.template = template
        self.spec = spec
        self.queue = queue
        self.active = active
        self.requests = 0


class Fleet:
    """Machines + queues + dispatch + engine-ledger accounting."""

    def __init__(
        self,
        machines: Sequence[MachineSpec | str],
        mix: RequestMix,
        *,
        discipline: str = "fifo",
        dispatch: str = "eft",
        alloc_cost: float = 0.0,
        engine: bool = True,
        noise_seed: Optional[int] = None,
        keep_records: bool = False,
        name: str = "traffic",
    ) -> None:
        if not machines:
            raise ConfigError("a fleet needs at least one machine")
        if discipline not in ("fifo", "ps"):
            raise ConfigError(f"unknown queue discipline {discipline!r} (fifo|ps)")
        if dispatch not in ("eft", "rr"):
            raise ConfigError(f"unknown dispatch policy {dispatch!r} (eft|rr)")
        self.mix = mix
        self.discipline = discipline
        self.dispatch = dispatch
        self.alloc_cost = float(number("alloc_cost", alloc_cost, 0.0))
        self.engine_enabled = bool(engine)
        self.noise_seed = noise_seed
        self.name = name
        self._servers: List[_Server] = []
        self._unit_rows: List[List[float]] = []  # per server: unit secs per class
        self._unit_cache: Dict[str, List[float]] = {}
        self._streams: Dict[str, EngineStream] = {}
        self._rr = 0
        self._inflight: Dict[int, Tuple[float, int, int, float]] = {}
        self.recorder = LatencyRecorder(keep_records=keep_records)
        for machine in machines:
            spec = machine if isinstance(machine, MachineSpec) else resolve_machine(machine)
            self._add_server(spec.name, spec.name, spec)
        self._n_base = len(self._servers)

    # -- machine management ------------------------------------------------

    def _unit_row(self, template: str, spec: MachineSpec) -> List[float]:
        row = self._unit_cache.get(template)
        if row is None:
            row = unit_seconds(self.mix.classes, [spec])[:, 0].tolist()
            self._unit_cache[template] = row
        return row

    def _add_server(
        self, name: str, template: str, spec: MachineSpec, active: bool = True
    ) -> _Server:
        queue: FifoQueue | PSQueue = (
            FifoQueue() if self.discipline == "fifo" else PSQueue()
        )
        server = _Server(name, template, spec, queue, active)
        self._servers.append(server)
        self._unit_rows.append(self._unit_row(template, spec))
        return server

    @property
    def machine_names(self) -> List[str]:
        return [server.name for server in self._servers]

    @property
    def active_count(self) -> int:
        return sum(1 for server in self._servers if server.active)

    def scale_up(self) -> str:
        """Add one machine: a clone of the least-replicated base spec."""
        counts = {server.name: 0 for server in self._servers[: self._n_base]}
        for server in self._servers:
            if server.active:
                counts[server.template] = counts.get(server.template, 0) + 1
        template = min(counts, key=lambda t: (counts[t], t))
        base = next(s for s in self._servers if s.name == template)
        # Reactivate a drained clone of this template before minting new.
        for server in self._servers:
            if not server.active and server.template == template:
                server.active = True
                return server.name
        clone_number = sum(
            1 for s in self._servers if s.template == template and s.name != template
        ) + 1
        name = f"{template}#{clone_number}"
        spec = replace(base.spec, name=name)
        self._add_server(name, template, spec)
        return name

    def scale_down(self) -> Optional[str]:
        """Retire the newest active clone (base machines never retire).

        The clone finishes its queued work but gets no new requests.
        """
        for server in reversed(self._servers[self._n_base:]):
            if server.active:
                server.active = False
                return server.name
        return None

    # -- dispatch ----------------------------------------------------------

    def offer(
        self,
        times: np.ndarray,
        classes: np.ndarray,
        sizes: np.ndarray,
        first_id: int,
    ) -> Dict[str, Any]:
        """Route one arrival chunk through the fleet.

        Returns chunk stats: completed latencies (for SLO windows),
        arrival span, and per-machine queue depths.
        """
        k = times.size
        self.recorder.note_arrivals(times)
        if self.discipline == "fifo":
            chunk = self._offer_fifo(times, classes, sizes, first_id)
        else:
            chunk = self._offer_ps(times, classes, sizes, first_id)
        chunk["n"] = int(k)
        chunk["t_last"] = float(times[-1]) if k else 0.0
        chunk["depths"] = self.queue_depths(chunk["t_last"])
        return chunk

    def _active_indices(self) -> List[int]:
        active = [i for i, server in enumerate(self._servers) if server.active]
        if not active:
            raise RuntimeError("fleet has no active machines")
        return active

    def _offer_fifo(
        self,
        times: np.ndarray,
        classes: np.ndarray,
        sizes: np.ndarray,
        first_id: int,
    ) -> Dict[str, Any]:
        k = times.size
        active = self._active_indices()
        servers = self._servers
        unit = self._unit_rows
        alloc = self.alloc_cost
        use_eft = self.dispatch == "eft"
        starts = np.empty(k, dtype=np.float64)
        finishes = np.empty(k, dtype=np.float64)
        assigned = np.empty(k, dtype=np.int64)
        groups: Dict[Tuple[int, int], List[int]] = {}
        for j in range(k):
            t = float(times[j])
            c = int(classes[j])
            size = float(sizes[j])
            if use_eft:
                best = -1
                best_fin = 0.0
                for m in active:
                    free = servers[m].queue.free_t
                    fin = (free if free > t else t) + alloc + unit[m][c] * size
                    if best < 0 or fin < best_fin:
                        best = m
                        best_fin = fin
            else:
                best = active[self._rr % len(active)]
                self._rr += 1
            start, finish = servers[best].queue.offer(t, alloc + unit[best][c] * size)
            servers[best].requests += 1
            starts[j] = start
            finishes[j] = finish
            assigned[j] = best
            groups.setdefault((best, c), []).append(j)
        self.recorder.add_batch(
            first_id, times, starts, finishes, assigned, classes, sizes
        )
        self._feed_engine(groups, sizes)
        return {"latencies": finishes - times}

    def _offer_ps(
        self,
        times: np.ndarray,
        classes: np.ndarray,
        sizes: np.ndarray,
        first_id: int,
    ) -> Dict[str, Any]:
        k = times.size
        active = self._active_indices()
        servers = self._servers
        unit = self._unit_rows
        alloc = self.alloc_cost
        use_eft = self.dispatch == "eft"
        groups: Dict[Tuple[int, int], List[int]] = {}
        chunk_latencies: List[float] = []
        for j in range(k):
            t = float(times[j])
            c = int(classes[j])
            size = float(sizes[j])
            # Advance every queue to the arrival instant first: completed
            # requests leave, and least-work dispatch sees current state.
            for m in active:
                for job, finish in servers[m].queue.advance_to(t):
                    self._complete_ps(job, finish, chunk_latencies)
            if use_eft:
                best = -1
                best_score = 0.0
                for m in active:
                    score = servers[m].queue.work_left() + unit[m][c] * size
                    if best < 0 or score < best_score:
                        best = m
                        best_score = score
            else:
                best = active[self._rr % len(active)]
                self._rr += 1
            rid = first_id + j
            self._inflight[rid] = (t, best, c, size)
            servers[best].requests += 1
            for job, finish in servers[best].queue.offer(
                t, alloc + unit[best][c] * size, rid
            ):
                self._complete_ps(job, finish, chunk_latencies)
            groups.setdefault((best, c), []).append(j)
        self._feed_engine(groups, sizes)
        return {"latencies": np.asarray(chunk_latencies, dtype=np.float64)}

    def _complete_ps(
        self, rid: int, finish: float, chunk_latencies: List[float]
    ) -> None:
        arrival, machine, cls, size = self._inflight.pop(rid)
        # Processor sharing has no queueing phase: start == arrival.
        self.recorder.add(rid, arrival, arrival, finish, machine, cls, size)
        chunk_latencies.append(finish - arrival)

    def drain(self) -> None:
        """Finish all in-flight work (processor sharing completions)."""
        if self.discipline != "ps":
            return
        leftovers: List[float] = []
        for server in self._servers:
            for job, finish in server.queue.drain():
                self._complete_ps(job, finish, leftovers)

    # -- engine ledger -----------------------------------------------------

    def _feed_engine(
        self, groups: Dict[Tuple[int, int], List[int]], sizes: np.ndarray
    ) -> None:
        if not self.engine_enabled:
            return
        for (m, c), indices in sorted(groups.items()):
            server = self._servers[m]
            cls = self.mix.classes[c]
            key = f"{server.name}|{cls.name}"
            stream = self._streams.get(key)
            if stream is None:
                stream = self._open_stream(key, server, cls.name)
            stream.feed(
                batch_for_class(cls, sizes[indices], name=f"{self.name}:{key}")
            )

    def _open_stream(self, key: str, server: _Server, cls_name: str) -> EngineStream:
        from repro.sim.engine import Engine  # noqa: PLC0415 (lazy)

        if self.noise_seed is None:
            noise = NoiseModel.silent()
        else:
            noise = NoiseModel(seed=seed_from(self.noise_seed, server.name, cls_name))
        stream = Engine(server.spec, noise).open_stream(name=f"{self.name}:{key}")
        self._streams[key] = stream
        return stream

    def ledger_totals(self) -> Dict[str, Dict[str, float]]:
        """Cumulative engine counter totals per (machine|class) stream."""
        return {key: self._streams[key].totals() for key in sorted(self._streams)}

    def ledger_digest(self) -> str:
        """Stable fingerprint of every stream's cumulative totals.

        ``repr`` of each float keeps full precision, so two runs agree
        iff their ledgers are bit-identical.
        """
        h = hashlib.blake2b(digest_size=16)
        for key, totals in self.ledger_totals().items():
            h.update(key.encode("utf-8"))
            for counter in sorted(totals):
                h.update(f"|{counter}={totals[counter]!r}".encode("utf-8"))
            h.update(b";")
        return h.hexdigest()

    # -- introspection -----------------------------------------------------

    def queue_depths(self, t: float) -> Dict[str, float]:
        """Per-machine queue depth: backlog seconds (FIFO) or jobs (PS)."""
        out: Dict[str, float] = {}
        for server in self._servers:
            if self.discipline == "fifo":
                out[server.name] = server.queue.backlog(t)
            else:
                out[server.name] = float(server.queue.depth())
        return out

    def busy_seconds(self) -> Dict[str, float]:
        return {server.name: server.queue.busy for server in self._servers}

    def request_counts(self) -> Dict[str, int]:
        return {server.name: server.requests for server in self._servers}

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> Dict[str, Any]:
        """JSON-safe snapshot: queues, ledgers, recorder, RNG positions."""
        return {
            "version": _CHECKPOINT_VERSION,
            "name": self.name,
            "discipline": self.discipline,
            "dispatch": self.dispatch,
            "alloc_cost": self.alloc_cost,
            "engine": self.engine_enabled,
            "noise_seed": self.noise_seed,
            "n_base": self._n_base,
            "rr": self._rr,
            "mix": self.mix.state_dict(),
            "servers": [
                {
                    "name": server.name,
                    "template": server.template,
                    "active": server.active,
                    "requests": server.requests,
                    "queue": server.queue.state_dict(),
                }
                for server in self._servers
            ],
            "streams": {
                key: stream.checkpoint() for key, stream in sorted(self._streams.items())
            },
            "recorder": self.recorder.state_dict(),
            "inflight": {
                str(rid): list(vals) for rid, vals in sorted(self._inflight.items())
            },
        }

    @classmethod
    def restore(
        cls, state: Dict[str, Any], keep_records: bool = False
    ) -> "Fleet":
        """Rebuild a fleet mid-trace from :meth:`checkpoint` output."""
        version = state.get("version")
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"cannot restore fleet checkpoint version {version!r}")
        from repro.traffic.workload import restore_mix  # noqa: PLC0415 (cycle)

        mix = restore_mix(state["mix"])
        base = [spec["name"] for spec in state["servers"][: int(state["n_base"])]]
        fleet = cls(
            base,
            mix,
            discipline=state["discipline"],
            dispatch=state["dispatch"],
            alloc_cost=state["alloc_cost"],
            engine=state["engine"],
            noise_seed=state["noise_seed"],
            keep_records=keep_records,
            name=state["name"],
        )
        queue_cls = FifoQueue if fleet.discipline == "fifo" else PSQueue
        for index, spec_state in enumerate(state["servers"]):
            if index < fleet._n_base:
                server = fleet._servers[index]
            else:
                template = spec_state["template"]
                template_spec = next(
                    s.spec for s in fleet._servers if s.name == template
                )
                server = fleet._add_server(
                    spec_state["name"],
                    template,
                    replace(template_spec, name=spec_state["name"]),
                )
            server.active = bool(spec_state["active"])
            server.requests = int(spec_state["requests"])
            server.queue = queue_cls.restore(spec_state["queue"])
        specs = {server.name: server.spec for server in fleet._servers}
        for key, stream_state in state["streams"].items():
            machine_name = key.split("|", 1)[0]
            fleet._streams[key] = EngineStream.restore(
                stream_state, machine=specs[machine_name]
            )
        fleet._rr = int(state["rr"])
        fleet.recorder = LatencyRecorder.restore(
            state["recorder"], keep_records=keep_records
        )
        fleet._inflight = {
            int(rid): tuple(vals) for rid, vals in state["inflight"].items()
        }
        return fleet
