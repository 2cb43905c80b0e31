"""The discrete-event execution engine of the simulation plane.

The engine converts a :class:`~repro.sim.workload.SimWorkload` into an
:class:`ExecutionRecord`: the full virtual-time evolution of every
counter a watcher can observe (cycles, instructions, bytes, RSS, ...).
Profiling a simulated run then means *sampling these timelines* — the
same black-box view `/proc` and ``perf stat`` give the real profiler.

Execution semantics (matching §4.4 of the paper):

* phases run strictly in order — a barrier separates them; phase *n+1*
  never starts before every stream of phase *n* finished;
* streams within a phase start together at the phase start and run their
  demands serially;
* contention is modelled per phase: the total number of CPU workers
  beyond the core count slows compute demands proportionally, and
  concurrent I/O streams targeting the same filesystem share its
  bandwidth;
* demand durations and counter increments receive deterministic
  lognormal noise (see :mod:`repro.sim.noise`).

The cycle accounting implements the paper's E.3 mechanism: a demand
carrying ``calibrated_cycles`` (i.e. an emulation kernel told to consume
a target number of cycles) consumes ``target * cycle_bias`` cycles, where
the bias is the machine's calibration-vs-sustained IPC ratio for that
kernel class.

Prepare once, replay per seed
-----------------------------

:meth:`Engine.run` is written for throughput: many emulated runs per
placement decision (closed-loop validation, E.7) and many seeds per
campaign cell make the engine itself the hot path.  It is split at the
seed boundary, and the split is the only path:

* :meth:`Engine.prepare` does everything that depends on the
  (workload, machine) pair alone and returns a read-only
  :class:`Prepared` plan.  Packed workloads *bind* (machine parameters
  resolved once per distinct class / paradigm / filesystem and fanned
  out by interned code); object workloads *gather* (one Python pass
  over the demand objects) — both produce the same flat per-type view.
  Batched cost kernels then evaluate every compute / I-O / memory /
  network demand at once (closed-form per-demand formulas; the scalar
  reference lives in ``tests/sim/test_cost_oracle.py`` and the
  analytical predictor mirrors it), phase contention scales the
  durations, and the noise slot array is laid out: per demand, its
  duration followed by its counter amounts — the order the scalar engine
  made its draws in, so seeded runs reproduce its noise stream bit for
  bit (zero values skip their draw in both).
* the per-seed *replay* (:meth:`Engine._execute`) draws all noise as one
  RNG batch over that slot array, turns noisy durations into demand
  start/end times with per-stream ``cumsum`` (left-associated, matching
  scalar accumulation) and builds counter and level timelines from
  packed ``(t0, t1, amount)`` arrays — no per-demand objects anywhere.

``Engine.run(workload)`` is ``prepare`` + replay; ``Engine.run(prepared)``
replays a plan someone else prepared — the run service prepares each
distinct (target, machine) of a batch once and replays it per seed —
and :class:`~repro.sim.stream.EngineStream` feeds every batch through
the same two steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
)
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedWorkload
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.util.timeseries import TimeSeries

__all__ = ["Engine", "ExecutionRecord", "IOEvent", "Prepared"]


class IOEvent(NamedTuple):
    """One I/O demand as seen by the experimental blktrace watcher."""

    t: float
    op: str
    nbytes: int
    block_size: int
    filesystem: str


class _LazyIOEvents(Sequence):
    """Per-operation :class:`IOEvent` list, materialised on first access.

    Most consumers (profilers sampling counters, campaign reductions)
    never look at I/O events, so building one object per operation on
    every run is pure overhead; the columns are kept instead and the
    event list is built only when someone indexes or iterates.  Pickling
    (records shipping through the run-service pool) degrades to a plain
    list.
    """

    __slots__ = ("_starts", "_read", "_written", "_block", "_fs", "_events")

    def __init__(self, starts, read, written, block, fs) -> None:
        self._starts = starts
        self._read = read
        self._written = written
        self._block = block
        self._fs = fs
        self._events: list[IOEvent] | None = None

    def _materialise(self) -> list[IOEvent]:
        if self._events is None:
            events: list[IOEvent] = []
            starts = np.asarray(self._starts).tolist()
            read = np.asarray(self._read).tolist()
            written = np.asarray(self._written).tolist()
            block = np.asarray(self._block).tolist()
            fs = self._fs
            for j, t in enumerate(starts):
                if read[j]:
                    events.append(IOEvent(t, "read", read[j], block[j], fs[j]))
                if written[j]:
                    events.append(IOEvent(t, "write", written[j], block[j], fs[j]))
            self._events = events
        return self._events

    def __len__(self) -> int:
        if self._events is not None:
            return len(self._events)
        if not len(self._starts):
            return 0
        return int(
            np.count_nonzero(np.asarray(self._read))
            + np.count_nonzero(np.asarray(self._written))
        )

    def __getitem__(self, index):
        return self._materialise()[index]

    def __iter__(self):
        return iter(self._materialise())

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, _LazyIOEvents)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"<io_events n={len(self)}>"

    def __reduce__(self):
        return (list, (self._materialise(),))


@dataclass
class ExecutionRecord:
    """Complete observable history of one simulated process execution."""

    machine: MachineSpec
    duration: float
    counters: dict[str, TimeSeries]
    levels: dict[str, TimeSeries]
    io_events: Sequence[IOEvent]
    phase_bounds: list[tuple[float, float]]
    metadata: dict[str, Any] = field(default_factory=dict)

    def counters_at(self, t: float) -> dict[str, float]:
        """All cumulative counters and levels evaluated at time ``t``."""
        out = {name: ts.value_at(t) for name, ts in self.counters.items()}
        out.update({name: ts.value_at(t) for name, ts in self.levels.items()})
        out["time.runtime"] = min(max(t, 0.0), self.duration)
        return out

    def counters_many(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Vectorised :meth:`counters_at`: one array per metric.

        ``ts`` is an array of (relative) sample times; every counter and
        level series is interpolated over the whole grid in one shot.
        Entry *i* of each array equals ``counters_at(ts[i])[name]``.
        """
        ts = np.asarray(ts, dtype=float)
        out = {name: s.values_at(ts) for name, s in self.counters.items()}
        out.update({name: s.values_at(ts) for name, s in self.levels.items()})
        out["time.runtime"] = np.minimum(np.maximum(ts, 0.0), self.duration)
        return out

    def totals(self) -> dict[str, float]:
        """Final counter values (cumulative) and maxima (levels)."""
        out = {name: ts.last() if len(ts) else 0.0 for name, ts in self.counters.items()}
        out.update({name: ts.max() for name, ts in self.levels.items()})
        out["time.runtime"] = self.duration
        return out


#: Demand-type codes used by the gather pass.
_COMPUTE, _IO, _MEM, _NET, _SLEEP = range(5)
#: Counter slots per demand type (for noise-slot packing).
_COUNTER_SLOTS = np.array([5, 2, 2, 2, 0], dtype=np.int64)


_EMPTY_POS = np.zeros(0, dtype=np.intp)


class _Gather:
    """Flat per-type view of one workload bound to one machine.

    The transient input of the cost stage: :meth:`Engine._bind` (packed
    workloads) and :meth:`Engine._gather` (object workloads) produce it,
    :meth:`Engine.prepare` consumes it and keeps only the
    :class:`Prepared` plan.

    ``*_pos`` fields hold the global demand index of every demand of one
    type, in execution order; the companion tuples hold that type's
    attributes, unzipped from one row tuple per demand.  ``contention``
    is the per-demand phase slowdown factor (CPU oversubscription for
    compute, shared-filesystem streams for I/O, 1.0 otherwise).
    """

    __slots__ = (
        "n", "kinds", "contention", "streams", "n_phases",
        "c_pos", "c_instr", "c_cc", "c_ipc", "c_bias", "c_sr", "c_ff",
        "c_fpi", "c_factor", "c_over", "c_workers",
        "i_pos", "i_read", "i_written", "i_block", "i_fs",
        "i_rlat", "i_wlat", "i_rblend", "i_wbw",
        "m_pos", "m_phase", "m_alloc", "m_free", "m_block",
        "n_pos", "n_sent", "n_recv", "n_block",
        "s_pos", "s_secs",
    )

    def __init__(self) -> None:
        self.n = 0
        self.kinds: np.ndarray = _EMPTY_POS
        self.contention: np.ndarray = np.zeros(0)
        #: per stream: (phase index, first demand index, end demand index)
        self.streams: list[tuple[int, int, int]] = []
        self.n_phases = 0
        self.c_pos = self.i_pos = self.m_pos = self.n_pos = self.s_pos = _EMPTY_POS
        self.c_instr: tuple = ()
        self.c_cc: tuple = ()
        self.c_ipc: tuple = ()
        self.c_bias: tuple = ()
        self.c_sr: tuple = ()
        self.c_ff: tuple = ()
        self.c_fpi: tuple = ()
        self.c_factor: tuple = ()
        self.c_over: tuple = ()
        self.c_workers: tuple = ()
        self.i_read: tuple = ()
        self.i_written: tuple = ()
        self.i_block: tuple = ()
        self.i_fs: tuple = ()
        self.i_rlat: tuple = ()
        self.i_wlat: tuple = ()
        self.i_rblend: tuple = ()
        self.i_wbw: tuple = ()
        self.m_phase: tuple = ()
        self.m_alloc: tuple = ()
        self.m_free: tuple = ()
        self.m_block: tuple = ()
        self.n_sent: tuple = ()
        self.n_recv: tuple = ()
        self.n_block: tuple = ()
        self.s_secs: tuple = ()


def _frozen(data: Any, dtype: Any = None) -> np.ndarray:
    """Read-only view of ``data`` as an array (the owner stays writable)."""
    view = np.asarray(data, dtype=dtype).view()
    view.flags.writeable = False
    return view


class Prepared:
    """One workload bound to one machine, costed and laid out.

    Everything :meth:`Engine.run` needs that no seed changes: demand
    positions per kind, contention-scaled base durations and base
    counter amounts, the noise slot layout, stream/phase structure and
    the seed-independent halves of the level folds.  Built by
    :meth:`Engine.prepare`; replayed any number of times, by any engine
    on the same machine, each replay drawing its own noise.

    Every array is a read-only view, so a plan shared by the requests
    of a run-service batch cannot be altered by one of them.  The plan
    does not track its source: mutate an object workload and prepare
    again.  ``replays`` — how many runs have used the plan — is the
    one field a replay touches; it is what telemetry reads to tell a
    plan's first use (``built``) from a later one (``reused``).
    """

    __slots__ = (
        "machine", "name", "base_rss", "metadata",
        "n", "n_phases", "streams", "pos",
        "durations", "amounts",
        "slot_values", "slot_bases", "slot_groups",
        "m_phase", "m_deltas", "t_pos", "t_extra",
        "i_read", "i_written", "i_block", "i_fs",
        "replays", "__weakref__",
    )

    def __init__(self) -> None:
        self.replays = 0


class _Frame(NamedTuple):
    """Result of executing one gathered window (a run or one batch)."""

    duration: float
    counters: dict[str, TimeSeries]
    levels: dict[str, TimeSeries]
    io_events: Sequence[IOEvent]
    phase_bounds: list[tuple[float, float]]
    rss_end: float
    peak_end: float
    carries: dict[str, tuple[float, float, float]]


class Engine:
    """Executes workloads against one machine model.

    :meth:`prepare` turns a workload into a seed-independent
    :class:`Prepared` plan for this machine; :meth:`run` replays a plan
    (preparing first when handed a workload) under this engine's noise
    model.  An engine holds no per-workload state: plans belong to
    whoever prepared them, and any engine over the same machine can
    replay them.
    """

    def __init__(self, machine: MachineSpec, noise: NoiseModel | None = None) -> None:
        self.machine = machine
        self.noise = noise if noise is not None else NoiseModel.silent()

    # -- gather pass -------------------------------------------------------------

    def _gather(self, workload: SimWorkload) -> _Gather:
        """One Python pass: demand attributes into flat per-type arrays.

        The adapter from object workloads to :meth:`prepare`.  Phase
        contention bookkeeping (per-phase CPU and per-filesystem
        slowdown factors) is folded into the same pass, so the
        workload's demand objects are touched exactly once.
        """
        cpu = self.machine.cpu
        cores = cpu.cores
        g = _Gather()
        g.n_phases = len(workload.phases)
        spec_cache: dict[str, tuple[float, float, float, float]] = {}
        scale_cache: dict[tuple[str, int], tuple[float, float]] = {}
        fs_cache: dict[str, tuple[float, float, float, float]] = {}

        c_rows: list[tuple] = []
        i_rows: list[tuple] = []
        m_rows: list[tuple] = []
        n_rows: list[tuple] = []
        s_rows: list[tuple] = []
        streams = g.streams
        phase_firsts: list[int] = []
        phase_f_cpu: list[float] = []
        phase_f_io: list[dict[str, float]] = []

        index = 0
        for p_idx, phase in enumerate(workload.phases):
            phase_firsts.append(index)
            cpu_workers = 0
            fs_streams: dict[str, int] = {}
            for stream in phase.streams:
                first = index
                stream_workers = 0
                stream_fs: set[str] | None = None
                for demand in stream.demands:
                    if isinstance(demand, ComputeDemand):
                        wc = demand.workload_class
                        spec_row = spec_cache.get(wc)
                        if spec_row is None:
                            spec = cpu.spec(wc)
                            spec_row = (
                                spec.ipc,
                                spec.cycle_bias,
                                spec.stall_ratio,
                                spec.stall_front_fraction,
                            )
                            spec_cache[wc] = spec_row
                        workers = demand.threads if demand.threads < cores else cores
                        if workers > 1:
                            key = (demand.paradigm, workers)
                            scale_row = scale_cache.get(key)
                            if scale_row is None:
                                scaling = self.machine.scaling_model(demand.paradigm)
                                scale_row = (
                                    scaling.time_factor(workers),
                                    scaling.overhead_cycles_fraction(workers),
                                )
                                scale_cache[key] = scale_row
                        else:
                            scale_row = (1.0, 0.0)
                        stall = demand.stall_ratio
                        c_rows.append((
                            index,
                            demand.instructions,
                            np.nan
                            if demand.calibrated_cycles is None
                            else demand.calibrated_cycles,
                            spec_row[0],
                            spec_row[1],
                            spec_row[2] if stall is None else stall,
                            spec_row[3],
                            demand.flops_per_instruction,
                            scale_row[0],
                            scale_row[1],
                            workers,
                        ))
                        if workers > stream_workers:
                            stream_workers = workers
                    elif isinstance(demand, IODemand):
                        fs_name = demand.filesystem
                        fs_row = fs_cache.get(fs_name)
                        if fs_row is None:
                            fs = self.machine.filesystem(fs_name)
                            hit = fs.cache_hit_fraction
                            fs_row = (
                                fs.read_latency,
                                fs.write_latency,
                                hit / fs.cache_bandwidth
                                + (1.0 - hit) / fs.read_bandwidth,
                                fs.write_bandwidth,
                            )
                            fs_cache[fs_name] = fs_row
                        i_rows.append((
                            index,
                            demand.bytes_read,
                            demand.bytes_written,
                            demand.block_size,
                            fs_name,
                            fs_row[0],
                            fs_row[1],
                            fs_row[2],
                            fs_row[3],
                        ))
                        if stream_fs is None:
                            stream_fs = {fs_name}
                        else:
                            stream_fs.add(fs_name)
                    elif isinstance(demand, MemoryDemand):
                        m_rows.append((
                            index,
                            p_idx,
                            demand.allocate,
                            demand.free,
                            demand.block_size,
                        ))
                    elif isinstance(demand, NetworkDemand):
                        n_rows.append((
                            index,
                            demand.bytes_sent,
                            demand.bytes_received,
                            demand.block_size,
                        ))
                    elif isinstance(demand, SleepDemand):
                        s_rows.append((index, demand.seconds))
                    else:
                        raise WorkloadError(
                            f"unsupported demand type {type(demand).__name__}"
                        )
                    index += 1
                streams.append((p_idx, first, index))
                if stream_workers:
                    cpu_workers += stream_workers
                if stream_fs:
                    for fs_name in stream_fs:
                        fs_streams[fs_name] = fs_streams.get(fs_name, 0) + 1
            phase_f_cpu.append(max(1.0, cpu_workers / cores))
            phase_f_io.append(
                {fs: max(1.0, float(count)) for fs, count in fs_streams.items()}
            )
        g.n = index

        if c_rows:
            (pos, g.c_instr, g.c_cc, g.c_ipc, g.c_bias, g.c_sr, g.c_ff,
             g.c_fpi, g.c_factor, g.c_over, g.c_workers) = zip(*c_rows)
            g.c_pos = np.asarray(pos, dtype=np.intp)
        if i_rows:
            (pos, g.i_read, g.i_written, g.i_block, g.i_fs,
             g.i_rlat, g.i_wlat, g.i_rblend, g.i_wbw) = zip(*i_rows)
            g.i_pos = np.asarray(pos, dtype=np.intp)
        if m_rows:
            pos, g.m_phase, g.m_alloc, g.m_free, g.m_block = zip(*m_rows)
            g.m_pos = np.asarray(pos, dtype=np.intp)
        if n_rows:
            pos, g.n_sent, g.n_recv, g.n_block = zip(*n_rows)
            g.n_pos = np.asarray(pos, dtype=np.intp)
        if s_rows:
            pos, g.s_secs = zip(*s_rows)
            g.s_pos = np.asarray(pos, dtype=np.intp)

        g.kinds = np.zeros(index, dtype=np.int64)
        g.kinds[g.i_pos] = _IO
        g.kinds[g.m_pos] = _MEM
        g.kinds[g.n_pos] = _NET
        g.kinds[g.s_pos] = _SLEEP

        contention = np.ones(index)
        if g.c_pos.size:
            counts = np.diff(np.asarray(phase_firsts + [index]))
            f_cpu_per_demand = np.repeat(np.asarray(phase_f_cpu), counts)
            contention[g.c_pos] = f_cpu_per_demand[g.c_pos]
        if g.i_pos.size:
            i_phases = np.searchsorted(
                np.asarray(phase_firsts), g.i_pos, side="right"
            ) - 1
            contention[g.i_pos] = [
                phase_f_io[p][fs] for p, fs in zip(i_phases, g.i_fs)
            ]
        g.contention = contention
        return g

    # -- columnar bind pass ------------------------------------------------------

    def _bind(self, p: PackedWorkload) -> _Gather:
        """Bind packed columns to this machine: the zero-object gather.

        The per-demand Python loop of :meth:`_gather` collapses to a
        handful of vectorised lookups — machine parameters are resolved
        once per *distinct* workload class / paradigm / filesystem name
        and fanned out to demands by interned code.  The resulting view
        is value-identical to gathering the equivalent object workload,
        so execution downstream is bit-identical.
        """
        cpu = self.machine.cpu
        cores = cpu.cores
        g = _Gather()
        g.n = p.n
        g.n_phases = p.n_phases
        g.kinds = p.kinds
        g.streams = list(
            zip(p.stream_phase.tolist(), p.stream_first.tolist(), p.stream_end.tolist())
        )
        counts = p.stream_end - p.stream_first
        demand_phase = np.repeat(p.stream_phase, counts)
        contention = np.ones(p.n)

        workers = _EMPTY_POS
        if p.c_pos.size:
            g.c_pos = p.c_pos
            g.c_instr = p.c_instr
            g.c_cc = p.c_cc
            g.c_fpi = p.c_fpi
            n_cls = len(p.class_names)
            ipc_t = np.empty(n_cls)
            bias_t = np.empty(n_cls)
            sr_t = np.empty(n_cls)
            ff_t = np.empty(n_cls)
            for code, wc in enumerate(p.class_names):
                spec = cpu.spec(wc)
                ipc_t[code] = spec.ipc
                bias_t[code] = spec.cycle_bias
                sr_t[code] = spec.stall_ratio
                ff_t[code] = spec.stall_front_fraction
            cls = p.c_class
            g.c_ipc = ipc_t[cls]
            g.c_bias = bias_t[cls]
            g.c_ff = ff_t[cls]
            g.c_sr = np.where(np.isnan(p.c_sr), sr_t[cls], p.c_sr)
            workers = np.minimum(p.c_threads, cores)
            g.c_workers = workers
            factor = np.ones(workers.size)
            over = np.zeros(workers.size)
            multi = workers > 1
            if multi.any():
                # Resolve scaling once per distinct (paradigm, workers).
                key = p.c_paradigm[multi] * (cores + 1) + workers[multi]
                uniq, inv = np.unique(key, return_inverse=True)
                f_u = np.empty(uniq.size)
                o_u = np.empty(uniq.size)
                for u_idx, k in enumerate(uniq.tolist()):
                    scaling = self.machine.scaling_model(
                        p.paradigm_names[k // (cores + 1)]
                    )
                    w = int(k % (cores + 1))
                    f_u[u_idx] = scaling.time_factor(w)
                    o_u[u_idx] = scaling.overhead_cycles_fraction(w)
                factor[multi] = f_u[inv]
                over[multi] = o_u[inv]
            g.c_factor = factor
            g.c_over = over

            # Phase CPU contention: sum of each stream's max worker count.
            c_stream = np.searchsorted(p.stream_first, p.c_pos, side="right") - 1
            seg_starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(c_stream)) + 1)
            )
            seg_max = np.maximum.reduceat(workers.astype(float), seg_starts)
            phase_workers = np.bincount(
                p.stream_phase[c_stream[seg_starts]],
                weights=seg_max,
                minlength=p.n_phases,
            )
            f_cpu = np.maximum(1.0, phase_workers / cores)
            contention[p.c_pos] = f_cpu[demand_phase[p.c_pos]]

        if p.i_pos.size:
            g.i_pos = p.i_pos
            g.i_read = p.i_read
            g.i_written = p.i_written
            g.i_block = p.i_block
            n_fs = len(p.fs_names)
            rlat = np.empty(n_fs)
            wlat = np.empty(n_fs)
            rblend = np.empty(n_fs)
            wbw = np.empty(n_fs)
            for code, fs_name in enumerate(p.fs_names):
                fs = self.machine.filesystem(fs_name)
                hit = fs.cache_hit_fraction
                rlat[code] = fs.read_latency
                wlat[code] = fs.write_latency
                rblend[code] = hit / fs.cache_bandwidth + (1.0 - hit) / fs.read_bandwidth
                wbw[code] = fs.write_bandwidth
            g.i_rlat = rlat[p.i_fs]
            g.i_wlat = wlat[p.i_fs]
            g.i_rblend = rblend[p.i_fs]
            g.i_wbw = wbw[p.i_fs]
            g.i_fs = np.asarray(p.fs_names, dtype=object)[p.i_fs]

            # Per-(phase, filesystem) stream counts → I/O contention.
            i_stream = np.searchsorted(p.stream_first, p.i_pos, side="right") - 1
            pair = np.unique(i_stream * n_fs + p.i_fs)
            fs_streams = np.zeros((p.n_phases, n_fs))
            np.add.at(fs_streams, (p.stream_phase[pair // n_fs], pair % n_fs), 1.0)
            f_io = np.maximum(1.0, fs_streams)
            contention[p.i_pos] = f_io[demand_phase[p.i_pos], p.i_fs]

        if p.m_pos.size:
            g.m_pos = p.m_pos
            g.m_alloc = p.m_alloc
            g.m_free = p.m_free
            g.m_block = p.m_block
            g.m_phase = demand_phase[p.m_pos]
        if p.net_pos.size:
            g.n_pos = p.net_pos
            g.n_sent = p.net_sent
            g.n_recv = p.net_recv
            g.n_block = p.net_block
        if p.s_pos.size:
            g.s_pos = p.s_pos
            g.s_secs = p.s_secs

        g.contention = contention
        return g

    # -- batched cost kernels ----------------------------------------------------

    def _compute_costs(self, g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every compute demand."""
        instr_in = np.asarray(g.c_instr)
        cc = np.asarray(g.c_cc)
        ipc = np.asarray(g.c_ipc)
        bias = np.asarray(g.c_bias)
        with np.errstate(invalid="ignore"):
            has_cc = ~np.isnan(cc)
            cycles = np.where(has_cc, cc * bias, instr_in / ipc)
            instructions = np.where(has_cc, cycles * ipc, instr_in)
        over = np.asarray(g.c_over)
        cycles_total = cycles * (1.0 + over)
        instr_total = instructions * (1.0 + over)
        duration = (cycles / self.machine.cpu.frequency) * np.asarray(g.c_factor)
        stalled = cycles_total * np.asarray(g.c_sr)
        front_fraction = np.asarray(g.c_ff)
        return {
            "duration": duration,
            "cpu.instructions": instr_total,
            "cpu.cycles_used": cycles_total,
            "cpu.cycles_stalled_front": stalled * front_fraction,
            "cpu.cycles_stalled_back": stalled * (1.0 - front_fraction),
            "cpu.flops": instr_total * np.asarray(g.c_fpi),
        }

    @staticmethod
    def _io_costs(g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every I/O demand."""
        nread = np.asarray(g.i_read, dtype=float)
        nwritten = np.asarray(g.i_written, dtype=float)
        block = np.asarray(g.i_block, dtype=float)
        read_ops = np.ceil(nread / block)
        write_ops = np.ceil(nwritten / block)
        read_time = np.where(
            nread > 0, read_ops * np.asarray(g.i_rlat) + nread * np.asarray(g.i_rblend), 0.0
        )
        write_time = np.where(
            nwritten > 0,
            write_ops * np.asarray(g.i_wlat) + nwritten / np.asarray(g.i_wbw),
            0.0,
        )
        return {
            "duration": read_time + write_time,
            "io.bytes_read": nread,
            "io.bytes_written": nwritten,
        }

    def _memory_costs(self, g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every memory demand."""
        mem = self.machine.memory
        alloc = np.asarray(g.m_alloc, dtype=np.int64)
        freed = np.asarray(g.m_free, dtype=np.int64)
        block = np.asarray(g.m_block, dtype=np.int64)
        alloc_ops = np.maximum(1, -(-alloc // block))
        free_ops = np.maximum(1, -(-freed // block))
        alloc_time = np.where(
            alloc > 0, alloc_ops * mem.alloc_latency + alloc / mem.touch_bandwidth, 0.0
        )
        free_time = np.where(freed > 0, free_ops * mem.free_latency, 0.0)
        return {
            "duration": alloc_time + free_time,
            "mem.allocated": alloc.astype(float),
            "mem.freed": freed.astype(float),
        }

    def _network_costs(self, g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every network demand."""
        sent = np.asarray(g.n_sent, dtype=np.int64)
        recv = np.asarray(g.n_recv, dtype=np.int64)
        block = np.asarray(g.n_block, dtype=np.int64)
        nbytes = sent + recv
        ops = -(-nbytes // block)
        duration = ops * self.machine.net_latency + nbytes / self.machine.net_bandwidth
        return {
            "duration": duration,
            "net.bytes_written": sent.astype(float),
            "net.bytes_read": recv.astype(float),
        }

    # -- prepare (seed-independent) ---------------------------------------------

    def prepare(self, workload: SimWorkload | PackedWorkload) -> Prepared:
        """Bind, cost and lay out a workload for this engine's machine.

        Everything here depends on (workload, machine) alone, so one
        plan serves every seed: replay it with :meth:`run` on any
        engine over the same machine.  Accepts the object form
        (``SimWorkload``, gathered in one Python pass) and the columnar
        form (:class:`~repro.sim.packed.PackedWorkload`, bound without
        touching a demand object) interchangeably — the plans, and so
        the records, are bit-identical.
        """
        if isinstance(workload, PackedWorkload):
            g = self._bind(workload)
        else:
            g = self._gather(workload)
        plan = Prepared()
        plan.machine = self.machine
        plan.name = workload.name
        plan.base_rss = float(workload.base_rss)
        plan.metadata = dict(workload.metadata)
        plan.n = g.n
        plan.n_phases = g.n_phases
        plan.streams = tuple(g.streams)
        plan.pos = tuple(
            _frozen(pos) for pos in (g.c_pos, g.i_pos, g.m_pos, g.n_pos, g.s_pos)
        )

        durations = np.zeros(g.n)
        amounts: dict[str, np.ndarray] = {}
        for kind, cost in (
            (_COMPUTE, self._compute_costs),
            (_IO, self._io_costs),
            (_MEM, self._memory_costs),
            (_NET, self._network_costs),
        ):
            pos = plan.pos[kind]
            if pos.size:
                group = cost(g)
                durations[pos] = group["duration"]
                for name in _KIND_COUNTERS[kind]:
                    amounts[name] = _frozen(group[name])
        if g.s_pos.size:
            durations[g.s_pos] = g.s_secs
        durations *= g.contention
        plan.durations = _frozen(durations)
        plan.amounts = amounts

        # Noise slot layout, per demand in execution order: its duration,
        # then its counter amounts in the fixed per-type order.  This is
        # exactly the order the scalar engine made its ``duration()`` /
        # ``counter()`` calls in, so seeded runs reproduce the scalar
        # noise stream bit for bit (zero values skip their draw in both).
        slots = _COUNTER_SLOTS[g.kinds] + 1
        offsets = np.concatenate(([0], np.cumsum(slots)))
        bases = offsets[:-1]
        values = np.zeros(int(offsets[-1]))
        values[bases] = durations
        groups: dict[int, np.ndarray] = {}
        for kind, names in _KIND_COUNTERS.items():
            pos = plan.pos[kind]
            if pos.size:
                group_bases = bases[pos]
                for slot, name in enumerate(names, start=1):
                    values[group_bases + slot] = amounts[name]
                groups[kind] = _frozen(group_bases)
        plan.slot_values = _frozen(values)
        plan.slot_bases = _frozen(bases)
        plan.slot_groups = groups

        # Seed-independent halves of the level folds: signed RSS change
        # per memory demand, extra workers per multi-threaded compute.
        plan.m_phase = _frozen(g.m_phase)
        plan.m_deltas = _frozen(
            (
                np.asarray(g.m_alloc, dtype=np.int64)
                - np.asarray(g.m_free, dtype=np.int64)
            ).astype(float)
        )
        workers = np.asarray(g.c_workers, dtype=float)
        multi = workers > 1
        plan.t_pos = _frozen(g.c_pos[multi])
        plan.t_extra = _frozen(workers[multi] - 1.0)

        plan.i_read = _frozen(g.i_read)
        plan.i_written = _frozen(g.i_written)
        plan.i_block = _frozen(g.i_block)
        plan.i_fs = g.i_fs if isinstance(g.i_fs, tuple) else _frozen(g.i_fs)
        get_registry().inc("engine.plans.built")
        return plan

    # -- execution ---------------------------------------------------------------

    def run(
        self, workload: SimWorkload | PackedWorkload | Prepared
    ) -> ExecutionRecord:
        """Execute a workload; returns its full observable history.

        ``run(workload)`` is :meth:`prepare` followed by one replay
        under this engine's noise model; handing in a :class:`Prepared`
        plan (for this machine) skips straight to the replay.  Both
        produce bit-identical records.
        """
        with span(
            "engine.run", workload=workload.name, machine=self.machine.name
        ) as sp:
            if isinstance(workload, Prepared):
                plan = workload
                if plan.machine is not self.machine and plan.machine != self.machine:
                    raise WorkloadError(
                        f"plan {plan.name!r} was prepared for machine "
                        f"{plan.machine.name!r}, not {self.machine.name!r}"
                    )
            else:
                plan = self.prepare(workload)
            reused = plan.replays > 0
            if reused:
                get_registry().inc("engine.plans.reused")
            frame = self._execute(plan, plan.base_rss)
            metadata = dict(plan.metadata)
            metadata.setdefault("workload_name", plan.name)
            record = ExecutionRecord(
                machine=self.machine,
                duration=frame.duration,
                counters=frame.counters,
                levels=frame.levels,
                io_events=frame.io_events,
                phase_bounds=frame.phase_bounds,
                metadata=metadata,
            )
            sp.set(
                demands=plan.n, sim_duration=record.duration,
                plan="reused" if reused else "built",
            )
        return record

    def _execute(
        self,
        plan: Prepared,
        base_rss: float,
        *,
        t_start: float = 0.0,
        rss0: float | None = None,
        peak0: float | None = None,
        initial: dict[str, tuple[float, float, float]] | None = None,
    ) -> "_Frame":
        """Per-seed replay: noise, timeline, counters and levels.

        With the default arguments this executes a whole plan from
        virtual time zero (the :meth:`run` path).  The streaming path
        calls it once per arrival batch with the previous batch's end
        time, RSS level/peak and per-counter carries, which — because
        every accumulation here is a left-associated fold — continues
        the timelines bit-identically to an uninterrupted run.
        """
        plan.replays += 1
        durations, noisy = self._draw_noise(plan)

        t0, t1, phase_bounds = self._timeline(plan, durations, t_start)
        duration = phase_bounds[-1][1] if phase_bounds else t_start

        counters, carries = self._build_counters(
            self._pack_counters(plan, t0, t1, noisy), t_start, duration, initial
        )
        levels, rss_end, peak_end = self._build_levels(
            plan, t0, t1, base_rss, t_start, duration, rss0, peak0
        )
        io_events = _LazyIOEvents(
            t0[plan.pos[_IO]], plan.i_read, plan.i_written, plan.i_block,
            plan.i_fs,
        )
        return _Frame(
            duration, counters, levels, io_events, phase_bounds,
            rss_end, peak_end, carries,
        )

    def run_many(
        self, workloads: Iterable[SimWorkload | PackedWorkload]
    ) -> list[ExecutionRecord]:
        """Execute several workloads back to back on this engine.

        Runs share the engine's noise model, so the RNG stream continues
        across workloads exactly as consecutive :meth:`run` calls would —
        ``run_many(ws)`` is the batch equivalent of ``[run(w) for w in
        ws]``.  For multi-core fan-out across engines see
        :func:`repro.core.multiproc.parallel_map` and
        :meth:`repro.sim.backend.SimBackend.spawn_many`.
        """
        return [self.run(workload) for workload in workloads]

    # -- streaming ---------------------------------------------------------------

    def open_stream(
        self,
        name: str = "stream",
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ):
        """Open an incremental run: feed arrival batches, get timelines.

        Returns an :class:`~repro.sim.stream.EngineStream`; see there
        for ``feed``/``checkpoint``/``restore`` semantics.
        """
        from repro.sim.stream import EngineStream  # noqa: PLC0415 (cycle)

        return EngineStream(self, name=name, base_rss=base_rss, metadata=metadata)

    def run_stream(
        self,
        arrivals: Iterable[SimWorkload | PackedWorkload],
        name: str = "stream",
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ):
        """Execute an arrival stream of demand batches incrementally.

        A generator of per-batch :class:`ExecutionRecord` deltas (times
        are absolute, counter values cumulative across batches), so a
        million-demand run holds only one batch in memory at a time.
        Batches are complete phase groups: each starts at a barrier.
        """
        stream = self.open_stream(name=name, base_rss=base_rss, metadata=metadata)
        for batch in arrivals:
            yield stream.feed(batch)

    # -- batched noise ----------------------------------------------------------

    def _draw_noise(
        self, plan: Prepared
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Noisy durations and counter amounts: one batched RNG pass
        over the plan's slot array (see :meth:`prepare` for the layout).
        """
        noise = self.noise
        if noise.silent_model:
            return plan.durations, plan.amounts

        bases = plan.slot_bases
        sigmas = np.full(plan.slot_values.size, noise.counter_sigma)
        sigmas[bases] = noise.duration_sigma
        noisy = noise.apply(plan.slot_values, sigmas)

        amounts: dict[str, np.ndarray] = {}
        for kind, group_bases in plan.slot_groups.items():
            for slot, name in enumerate(_KIND_COUNTERS[kind], start=1):
                amounts[name] = noisy[group_bases + slot]
        return noisy[bases], amounts

    # -- timeline ----------------------------------------------------------------

    @staticmethod
    def _timeline(
        plan: Prepared, durations: np.ndarray, t_start: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, list[tuple[float, float]]]:
        """Per-demand start/end times and phase bounds.

        Demands run serially within a stream (cumulative sum of noisy
        durations, left-associated like the scalar accumulation), streams
        start together at the phase start, and phases are barriers.  The
        first phase starts at ``t_start`` (nonzero for streamed batches).
        """
        t0 = np.empty(plan.n)
        t1 = np.empty(plan.n)
        phase_bounds: list[tuple[float, float]] = []
        t_phase = float(t_start)
        stream_iter = iter(plan.streams)
        pending = next(stream_iter, None)
        for p_idx in range(plan.n_phases):
            phase_end = t_phase
            while pending is not None and pending[0] == p_idx:
                _, first, end = pending
                if end > first:
                    bounds = np.cumsum(
                        np.concatenate(([t_phase], durations[first:end]))
                    )
                    t0[first:end] = bounds[:-1]
                    t1[first:end] = bounds[1:]
                    phase_end = max(phase_end, float(bounds[-1]))
                pending = next(stream_iter, None)
            phase_bounds.append((t_phase, phase_end))
            t_phase = phase_end
        return t0, t1, phase_bounds

    # -- counter timelines ---------------------------------------------------------

    @staticmethod
    def _pack_counters(
        plan: Prepared,
        t0: np.ndarray,
        t1: np.ndarray,
        noisy: dict[str, np.ndarray],
    ) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Packed ``(t0, t1, amount)`` arrays per counter name."""
        packed: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        for kind, names in _KIND_COUNTERS.items():
            pos = plan.pos[kind]
            if not pos.size:
                continue
            kt0 = t0[pos]
            kt1 = t1[pos]
            for name in names:
                packed[name] = (kt0, kt1, noisy[name])
        return packed

    @staticmethod
    def _build_counters(
        packed: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
        t_lo: float,
        t_hi: float,
        initial: dict[str, tuple[float, float, float]] | None = None,
    ) -> tuple[dict[str, TimeSeries], dict[str, tuple[float, float, float]]]:
        """Turn accrual spans into piecewise-linear cumulative series.

        Series cover the window ``[t_lo, t_hi]`` (the whole run for the
        batch path).  ``initial`` maps counter names to their
        ``(raw, guarded)`` carry from the previous window: the raw
        left-fold sum seeds this window's ``cumsum`` and the guarded
        value floors the monotonic guard, so streamed windows reproduce
        the uninterrupted series bit for bit.  Returns the series plus
        this window's end carries.
        """
        out: dict[str, TimeSeries] = {}
        carries: dict[str, tuple[float, float, float]] = {}
        if initial is None:
            initial = {}
        # Counters of one demand type share their span arrays; cache the
        # breakpoint grid per (t0, t1) identity so the expensive sorts
        # run once per type, not once per counter.
        grid_cache: dict[tuple[int, int], tuple] = {}
        for name in sorted(set(packed) | set(initial)):
            raw0, guard0, rate0 = initial.get(name, (0.0, 0.0, 0.0))
            spans = packed.get(name)
            mask = None if spans is None else (spans[2] != 0.0)
            if spans is None or not mask.any():
                # Nothing accrues in this window: carry the level flat.
                out[name] = TimeSeries([t_lo, t_hi], [guard0, guard0])
                carries[name] = (raw0, guard0, rate0)
                continue
            t0a, t1a, amt = spans
            if mask.all():
                key = (id(t0a), id(t1a))
                cached = grid_cache.get(key)
                if cached is None:
                    t1a = np.maximum(t1a, t0a + 1e-12)
                    bps = np.unique(np.concatenate([[t_lo, t_hi], t0a, t1a]))
                    i0 = np.searchsorted(bps, t0a)
                    i1 = np.searchsorted(bps, t1a)
                    idle = _idle_intervals(bps.size, i0, i1)
                    widths = np.diff(bps)
                    grid_cache[key] = (t0a, t1a, bps, i0, i1, idle, widths)
                else:
                    t0a, t1a, bps, i0, i1, idle, widths = cached
            else:
                t0a, t1a, amt = t0a[mask], t1a[mask], amt[mask]
                t1a = np.maximum(t1a, t0a + 1e-12)
                bps = np.unique(np.concatenate([[t_lo, t_hi], t0a, t1a]))
                i0 = np.searchsorted(bps, t0a)
                i1 = np.searchsorted(bps, t1a)
                idle = _idle_intervals(bps.size, i0, i1)
                widths = np.diff(bps)
            rates = amt / (t1a - t0a)
            # Two bins per breakpoint — span *ends* fold before span
            # *starts* at the same timestamp.  This keeps the running
            # rate a pure left fold that batch boundaries (always phase
            # barriers) split cleanly, so streamed windows seeded with
            # the carried running rate continue it bit for bit.
            delta = np.zeros(2 * bps.size)
            np.add.at(delta, 2 * i1, -rates)
            np.add.at(delta, 2 * i0 + 1, rates)
            running = np.cumsum(np.concatenate([[rate0], delta]))
            rate_per_interval = running[2::2][: bps.size - 1].copy()
            # Overlapping spans leave ~1-ulp fold residue after they all
            # end; the exact integer span count pins idle intervals to a
            # rate of exactly zero (and makes them exactly flat).
            rate_per_interval[idle] = 0.0
            increments = rate_per_interval * widths
            values = np.cumsum(np.concatenate([[raw0], increments]))
            raw_end = float(values[-1])
            # Guard against tiny negative drift from float cancellation.
            values = np.maximum.accumulate(np.maximum(values, guard0))
            out[name] = TimeSeries.presorted(bps, values, monotone=True)
            carries[name] = (raw_end, float(values[-1]), float(running[-1]))
        return out, carries

    # -- level timelines -----------------------------------------------------------

    def _build_levels(
        self,
        plan: Prepared,
        t0: np.ndarray,
        t1: np.ndarray,
        base_rss: float,
        t_lo: float,
        t_hi: float,
        rss0: float | None = None,
        peak0: float | None = None,
    ) -> tuple[dict[str, TimeSeries], float, float]:
        """Level series over ``[t_lo, t_hi]``; returns end RSS and peak.

        ``rss0``/``peak0`` carry the previous window's end level and
        running maximum into a streamed window (``None`` starts a run
        from ``base_rss``).
        """
        rss = float(base_rss) if rss0 is None else rss0
        m_pos = plan.pos[_MEM]
        if m_pos.size:
            # RSS changes apply in global time order *within* each phase
            # (barriers order the phases themselves), ties broken by
            # delta — the same total order the scalar fold used.  The
            # running level clamps at zero, a sequential dependency, but
            # between clamps the fold is a plain cumulative sum, so the
            # loop below runs once per *clamp* (usually never), not once
            # per demand, and each segment's cumsum reproduces the
            # scalar left fold bit for bit.
            whens = t1[m_pos]
            deltas = plan.m_deltas
            order = np.lexsort((deltas, whens, plan.m_phase))
            whens = whens[order]
            deltas = deltas[order]
            folded = np.empty(deltas.size)
            start = 0
            while start < deltas.size:
                seg = np.cumsum(np.concatenate(([rss], deltas[start:])))[1:]
                below = np.flatnonzero(seg < 0.0)
                if not below.size:
                    folded[start:] = seg
                    rss = float(seg[-1])
                    break
                cut = int(below[0])
                folded[start : start + cut] = seg[:cut]
                folded[start + cut] = 0.0
                rss = 0.0
                start += cut + 1
            rss_series = _step_series_arrays(
                np.concatenate(([t_lo], whens)),
                np.concatenate(([float(base_rss) if rss0 is None else rss0], folded)),
                t_lo,
                t_hi,
            )
        else:
            rss_series = _step_series([(t_lo, rss)], t_lo, t_hi)
        peak_series = _running_max(rss_series, peak0)
        levels = {
            "mem.rss": rss_series,
            "mem.peak": peak_series,
            "cpu.threads": self._thread_level(plan, t0, t1, t_lo, t_hi),
        }
        levels["sys.load_cpu"] = TimeSeries.presorted(
            levels["cpu.threads"].times,
            levels["cpu.threads"].values / self.machine.cpu.cores,
        )
        return levels, rss, float(peak_series.values[-1])

    @staticmethod
    def _thread_level(
        plan: Prepared, t0: np.ndarray, t1: np.ndarray, t_lo: float, t_hi: float
    ) -> TimeSeries:
        """Active-worker level series, fully vectorised.

        Equivalent to feeding every multi-threaded compute demand's
        ``(start, +workers-1)`` / ``(end, -(workers-1))`` event pair into
        the scalar :func:`_thread_series` accumulation: events sort by
        ``(time, delta)``, the running level starts at one worker, and
        recorded levels clamp at one.  (No cross-window carry is needed:
        windows start at phase barriers, where every stream has joined.)
        """
        pos = plan.t_pos
        if not pos.size:
            return TimeSeries([t_lo, t_hi], [1.0, 1.0])
        extra = plan.t_extra
        whens = np.concatenate([t0[pos], t1[pos]])
        deltas = np.concatenate([extra, -extra])
        order = np.lexsort((deltas, whens))
        whens = whens[order]
        levels = np.maximum(1.0, 1.0 + np.cumsum(deltas[order]))
        return _step_series_arrays(
            np.concatenate(([t_lo], whens)),
            np.concatenate(([1.0], levels)),
            t_lo,
            t_hi,
        )


#: Counter names per demand type, in scalar-dict insertion order (the
#: noise draw order within one demand).
_KIND_COUNTERS: dict[int, tuple[str, ...]] = {
    _COMPUTE: (
        "cpu.instructions",
        "cpu.cycles_used",
        "cpu.cycles_stalled_front",
        "cpu.cycles_stalled_back",
        "cpu.flops",
    ),
    _IO: ("io.bytes_read", "io.bytes_written"),
    _MEM: ("mem.allocated", "mem.freed"),
    _NET: ("net.bytes_written", "net.bytes_read"),
}


def _idle_intervals(n_bps: int, i0: np.ndarray, i1: np.ndarray) -> np.ndarray:
    """Boolean mask of breakpoint intervals with zero active spans.

    The active-span count is exact integer arithmetic, so idle intervals
    are identified identically by a full run and by its streamed
    windows — which is what lets both pin their rates to exactly zero.
    """
    steps = np.zeros(n_bps, dtype=np.int64)
    np.add.at(steps, i0, 1)
    np.add.at(steps, i1, -1)
    return np.cumsum(steps)[:-1] == 0


def _step_series(
    steps: Sequence[tuple[float, float]], t_lo: float, t_hi: float
) -> TimeSeries:
    """Build a piecewise-constant series from (time, new_level) steps.

    The series opens at ``t_lo`` and closes at ``max(t_hi, last step
    time)``.  Steps at absolute time zero only set the opening level;
    steps at any later time emit a level transition — including steps
    exactly at a window's ``t_lo``, which an uninterrupted run (where
    that instant is interior) would have emitted too.
    """
    steps = sorted(steps)
    times: list[float] = []
    values: list[float] = []
    level = steps[0][1] if steps else 0.0
    times.append(t_lo)
    values.append(level)
    for when, new_level in steps:
        if when > 0.0:
            times.extend([when, when])
            values.extend([level, new_level])
        level = new_level
    times.append(max(t_hi, times[-1]))
    values.append(level)
    return TimeSeries(times, values)


def _step_series_arrays(
    times: np.ndarray, values: np.ndarray, t_lo: float, t_hi: float
) -> TimeSeries:
    """Vectorised :func:`_step_series` over ``(time, new_level)`` arrays.

    Replicates the scalar loop exactly: steps sort by ``(time, level)``,
    each positive-time step emits the level just before and just after
    it, and the series is closed at ``max(t_hi, last step time)``.
    """
    if not times.size:
        return _step_series([], t_lo, t_hi)
    order = np.lexsort((values, times))
    times = times[order]
    values = values[order]
    keep = times > 0.0
    kept_t = times[keep]
    prev = np.empty_like(values)
    prev[0] = values[0]
    prev[1:] = values[:-1]
    k = kept_t.size
    out_t = np.empty(2 * k + 2)
    out_v = np.empty(2 * k + 2)
    out_t[0] = t_lo
    out_v[0] = values[0]
    out_t[1:-1:2] = kept_t
    out_t[2:-1:2] = kept_t
    out_v[1:-1:2] = prev[keep]
    out_v[2:-1:2] = values[keep]
    last_t = kept_t[-1] if k else t_lo
    out_t[-1] = t_hi if t_hi > last_t else last_t
    out_v[-1] = values[-1]
    return TimeSeries.presorted(out_t, out_v)


def _thread_series(deltas: Sequence[tuple[float, float]], duration: float) -> TimeSeries:
    """Active-worker level over time from +/- delta events (base 1)."""
    if not deltas:
        return TimeSeries([0.0, duration], [1.0, 1.0])
    events = sorted(deltas)
    steps: list[tuple[float, float]] = []
    level = 1.0
    for when, delta in events:
        level += delta
        steps.append((when, max(1.0, level)))
    return _step_series([(0.0, 1.0)] + steps, 0.0, duration)


def _running_max(series: TimeSeries, floor: float | None = None) -> TimeSeries:
    """Monotone running maximum of a level series (peak RSS).

    ``floor`` carries a previous window's peak into a streamed window.
    """
    if not len(series):
        return series
    values = series.values if floor is None else np.maximum(series.values, floor)
    return TimeSeries.presorted(
        series.times, np.maximum.accumulate(values), monotone=True
    )
