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

Prepare once, replay per seed — a block of seeds at a time
----------------------------------------------------------

:meth:`Engine.run` is written for throughput: many emulated runs per
placement decision (closed-loop validation, E.7) and many seeds per
campaign cell make the engine itself the hot path.  It is split at the
seed boundary, and the split is the only path:

* :meth:`Engine.prepare` does everything that depends on the
  (workload, machine) pair alone and returns a read-only
  :class:`Prepared` plan.  Packed workloads *bind* (machine parameters
  resolved once per distinct class / paradigm / filesystem and fanned
  out by interned code); object workloads are packed first (one Python
  pass over the demand objects, :func:`~repro.sim.packed.pack_workload`)
  and then bound — one way in, one flat per-type view.
  Batched cost kernels then evaluate every compute / I-O / memory /
  network demand at once (closed-form per-demand formulas; the scalar
  reference lives in ``tests/sim/test_cost_oracle.py`` and the
  analytical predictor mirrors it), phase contention scales the
  durations, and the noise slot array is laid out: per demand, its
  duration followed by its counter amounts — the order the scalar engine
  made its draws in, so seeded runs reproduce its noise stream bit for
  bit (zero values skip their draw in both).
* :meth:`Engine.replay_many` replays a plan under any number of noise
  models — the *rows* of a block.  Each model draws its own row of the
  slot array as one RNG batch; everything after that runs once over
  ``(rows, demands)`` arrays with every accumulation along ``axis=1``:
  noisy durations become demand start/end times with per-stream
  ``cumsum`` (left-associated, matching scalar accumulation) — or, for
  a run of phases whose streams are one demand each, with one ``cumsum``
  over the run's phase maxima (see :func:`_timeline_layout`) — and
  counter and level timelines are folded from packed
  ``(t0, t1, amount)`` arrays — no per-demand objects, and no per-seed
  Python pass, anywhere.  The plans a campaign replays are a few
  hundred demands long, so per seed this work is NumPy call overhead,
  not arithmetic; a block pays the calls once.  Rows share a block
  while their arrays are rectangular: see :meth:`Engine._replay`.
* A replay stops where a reader of Tx does.  Noise and timeline run in
  ``replay_many`` (RNG order, ``duration``, ``phase_bounds`` and
  ``io_events`` are fixed there); the counter and level folds of the
  block run when somebody first reads a series of one of its records —
  see :class:`RecordBlock` — and never for a record nobody reads.

``Engine.run(workload)`` is ``prepare`` + the one-row ``replay_many``;
``Engine.run(prepared)`` replays a plan someone else prepared — the run
service prepares each distinct (target, machine) of a batch once and
replays the batch's seeds of it as one block — and
:class:`~repro.sim.stream.EngineStream` feeds every batch through the
same two steps, one row at a time with its carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from repro.core.errors import WorkloadError
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedWorkload, pack_workload
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.util.timeseries import TimeSeries

__all__ = [
    "Engine", "ExecutionRecord", "IOEvent", "Prepared", "RecordBlock",
    "block_rows", "rows_run",
]


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


def rows_run(rows: Sequence[int] | slice) -> slice | list[int]:
    """Row indices as what cuts them out of a table cheapest: a slice
    where they are a run (the rows of one fold come in one, a lone
    record is a run of one), else the list they are."""
    if isinstance(rows, slice):
        return rows
    run = list(rows)
    if run == list(range(run[0], run[0] + len(run))):
        return slice(run[0], run[0] + len(run))
    return run


#: The level series of a replayed record, in the order
#: :meth:`Engine._build_levels` makes them; its other series are counters.
_LEVELS = ("mem.rss", "mem.peak", "cpu.threads", "sys.load_cpu")


class RecordBlock:
    """The series of the records of one replay block, stacked — folded
    when someone first reads them.

    ``series`` maps a name to its ``(times, values)`` tables, each
    ``(rows, breakpoints)`` — the arrays the records' ``TimeSeries`` are
    row views of — counters first, then the ``levels``, as
    :meth:`ExecutionRecord.counters_at` orders them.
    :meth:`counters_many` samples any of its rows at once.

    A replay computes what a Tx reader needs (noise, timeline) and
    leaves the rest here: the block keeps the plan, the demand times and
    the noisy amounts (three arrays of at most ``rows × slots``, inside
    :data:`_BLOCK_ELEMENTS`) until its ``series`` are first asked for,
    folds counters and levels once (:meth:`_fold`) and drops them.
    Rows that turn out ragged there (see :class:`_Ragged`) fold as
    smaller blocks of their own: :meth:`part` says where a row ended up,
    and a block that was cut has no ``series`` itself.  ``ends`` holds
    the fold's per-row window end state ``(carries, rss_end,
    peak_end)`` — what a streamed window hands to the next.
    """

    __slots__ = (
        "durations", "levels", "ends", "_series", "_parts", "_pending",
        "__weakref__",
    )

    def __init__(
        self,
        durations: np.ndarray,
        series: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> None:
        self.durations = durations
        self.levels: Sequence[str] = _LEVELS
        self.ends: tuple[list, list, list] | None = None
        self._series = series
        self._parts: list[tuple["RecordBlock", int]] | None = None
        #: ``(plan, t0, t1, noisy, window)`` of a block still to fold.
        self._pending: tuple | None = None

    @classmethod
    def unfolded(
        cls, durations: np.ndarray, plan: "Prepared", t0: np.ndarray,
        t1: np.ndarray, noisy: np.ndarray, window: tuple,
    ) -> "RecordBlock":
        """The block of replayed rows nobody has read a series of yet:
        what :func:`_fold_rows` takes, kept until somebody does."""
        block = cls(durations)
        block._pending = (plan, t0, t1, noisy, window)
        return block

    @classmethod
    def of(cls, record: "ExecutionRecord") -> "RecordBlock":
        """The block of one that a record built by hand (or unpickled) is."""
        block = cls(
            np.array([record.duration]),
            {
                name: (series.times[None, :], series.values[None, :])
                for group in (record.counters, record.levels)
                for name, series in group.items()
            },
        )
        block.levels = tuple(record.levels)
        return block

    @property
    def series(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        if self._pending is not None:
            self._fold()
        return self._series  # type: ignore[return-value]

    def part(self, row: int) -> tuple["RecordBlock", int]:
        """The block that holds the series of this block's ``row``, and
        its row there: the block itself unless its rows were ragged."""
        if self._pending is not None:
            self._fold()
        return (self, row) if self._parts is None else self._parts[row]

    def _fold(self) -> None:
        """Fold the pending rows.  Every result is assigned at the end,
        the inputs dropped last: a fold that raises leaves the block as
        it was, and two readers that fold at once assign equal tables."""
        pending = self._pending
        if pending is None:  # another reader got here first
            return
        plan, t0, t1, noisy, window = pending
        rows = len(noisy)
        with span("engine.fold", workload=plan.name, rows=rows) as sp:
            try:
                groups = _fold_rows(plan, self.durations, t0, t1, noisy, window)
            except Exception as exc:
                if hasattr(exc, "add_note"):  # Python >= 3.11
                    exc.add_note(
                        f"while folding {rows} row(s) of plan {plan.name!r}"
                    )
                raise
            sp.set(blocks=len(groups))
        registry = get_registry()
        registry.inc("engine.fold.rows", rows)
        registry.inc("engine.fold.blocks", len(groups))
        if len(groups) == 1:
            ((_, self._series, self.ends),) = groups
        else:
            # The regrouping is counted where it happens: the replay
            # counted these rows as one block, and ``split_rows`` gets
            # the share of this chunk alone (its rows outside its
            # largest group), whatever the call's other chunks do.
            registry.inc("engine.replay.blocks", len(groups) - 1)
            registry.inc(
                "engine.replay.split_rows",
                rows - max(len(members) for members, _, _ in groups),
            )
            parts: list = [None] * rows
            for members, series, ends in groups:
                block = RecordBlock(self.durations[members], series)
                block.ends = ends
                for at, row in enumerate(members.tolist()):
                    parts[row] = (block, at)
            self._parts = parts
        self._pending = None

    def total(self, name: str, rows: Any) -> Any:
        """Series ``name`` totalled over ``rows`` (one index, or what
        cuts several out of a table): a counter's final value, a level's
        maximum — ``TimeSeries.last()`` / ``.max()`` read off the tables
        — and zero for a series that is empty or not there."""
        _, values = self.series.get(name, (None, None))
        if values is None or not values.shape[1]:
            return np.zeros(len(self.durations))[rows]
        values = values[rows]
        return values.max(axis=-1) if name in self.levels else values[..., -1]

    def counters_many(
        self, rows: Sequence[int] | slice, ts: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Every series of the given rows (ascending) at ``(len(rows),
        samples)`` query times: one ``(len(rows), samples)`` array per
        name, each entry bit-equal to :meth:`TimeSeries.values_at` on
        that row's series, plus ``time.runtime``.

        The series are the *lanes* of one sorted table — complex keys
        order lexicographically, so ``(lane · rows + row) + time·j``
        sorts by segment, then time — and every query of every row is
        located by one ``searchsorted``: comparisons only, so the index
        is ``np.interp``'s own (the last breakpoint at or before the
        query).  The arithmetic is ``np.interp``'s too, operation for
        operation: ``fp[j]`` where the query hits ``xp[j]`` or ``j`` is
        the last breakpoint, else ``slope * (x - xp[j]) + fp[j]`` with
        ``slope = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j])``, then the
        clamp into the series' value range.  A call costs some fifty
        array operations whatever the number of rows and series; the
        table is built for the call and dropped with it.
        """
        n, samples = ts.shape
        run = rows_run(rows)
        out: dict[str, Any] = {}
        names: list[str] = []
        tables: list[np.ndarray] = []
        values: list[np.ndarray] = []
        for name, (times, series_values) in self.series.items():
            if times.shape[1]:
                names.append(name)
                tables.append(times[run].ravel())
                values.append(series_values[run].ravel())
            # An empty series reads zero; the others keep their place.
            out[name] = None if times.shape[1] else np.zeros(ts.shape)
        out["time.runtime"] = np.minimum(
            np.maximum(ts, 0.0), self.durations[run][:, None]
        )
        if not names:
            return out
        # Segment (lane, row) of the table: ``widths`` breakpoints from ``first``.
        widths = np.repeat([table.size // n for table in tables], n)
        first = (widths.cumsum() - widths).reshape(len(names), n, 1)
        last = first + (widths.reshape(first.shape) - 1)
        xp, fp = np.concatenate(tables), np.concatenate(values)
        segment = np.arange(widths.size)
        keys = np.empty(xp.size, dtype=complex)
        keys.real = np.repeat(segment, widths)
        keys.imag = xp
        queries = np.empty((len(names), n, samples), dtype=complex)
        queries.real = segment.reshape(first.shape)
        queries.imag = ts
        at = keys.searchsorted(queries.ravel(), side="right").reshape(queries.shape)
        at -= 1
        j = np.maximum(at, first)  # a query before xp[0] reads fp[0]
        j1 = np.minimum(j + 1, last)
        x0, x1, f0, f1 = xp[j], xp[j1], fp[j], fp[j1]
        held = (at < first) | (j == last) | (x0 == ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (f1 - f0) / (x1 - x0)
            found = np.where(held, f0, slope * (ts - x0) + f0)
            if np.isnan(found).any():
                # np.interp's way round a non-finite product.
                other = slope * (ts - x1) + f1
                other = np.where(np.isnan(other) & (f0 == f1), f0, other)
                found = np.where(np.isnan(found) & ~held, other, found)
        bounds = first.ravel()
        lo = np.minimum.reduceat(fp, bounds).reshape(first.shape)
        hi = np.maximum.reduceat(fp, bounds).reshape(first.shape)
        out.update(zip(names, np.minimum(np.maximum(found, lo), hi)))
        return out


@dataclass
class ExecutionRecord:
    """Complete observable history of one simulated process execution.

    A record built by hand (or unpickled, or made by
    ``dataclasses.replace``) simply holds its series.  A replayed one
    holds ``duration``, ``phase_bounds``, ``io_events`` and ``metadata``
    and reads the rest from its replay block on demand (see
    :meth:`__getattr__`): what reads only those four never pays for the
    counter and level folds.
    """

    machine: MachineSpec
    duration: float
    counters: dict[str, TimeSeries]
    levels: dict[str, TimeSeries]
    io_events: Sequence[IOEvent]
    phase_bounds: list[tuple[float, float]]
    metadata: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def _replayed(
        cls, block: RecordBlock, row: int, **held: Any
    ) -> "ExecutionRecord":
        """Row ``row`` of a replay block, holding only what the replay
        computed (``held``: every field but the series)."""
        record = cls.__new__(cls)
        record.__dict__.update(held, _replay=(block, row))
        return record

    def __getattr__(self, name: str) -> Any:
        """What a replayed record does not hold until it is read:

        * ``block`` / ``row`` — the fold this record is a row of
          (``None`` / 0 for a record that holds its own series, which
          samples as a block of one); reading them folds the block;
        * ``counters`` / ``levels`` — that row as ``TimeSeries`` (views
          of the block's tables), built on first read.

        The answers are kept, so a record is asked once.
        """
        if name not in ("counters", "levels", "block", "row"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        state = self.__dict__
        replay = state.get("_replay")
        if replay is None:
            if name == "block":
                return None
            if name == "row":
                return 0
            raise AttributeError(name)
        block, row = replay[0].part(replay[1])
        if name in ("counters", "levels"):
            # A counter out of the fold never decreases, nor does the peak.
            series = {
                each: TimeSeries.presorted(
                    times[row], values[row],
                    monotone=each == "mem.peak" or each not in block.levels,
                )
                for each, (times, values) in block.series.items()
            }
            state["levels"] = {each: series.pop(each) for each in block.levels}
            state["counters"] = series
        state["block"], state["row"] = block, row
        return state[name]

    def __getstate__(self) -> dict[str, Any]:
        # A record crosses a process boundary as its own row only.
        return {name: getattr(self, name) for name in _RECORD_FIELDS}

    def tables(self) -> tuple[RecordBlock, int]:
        """The block whose tables hold this record's series, and its
        row of them (a record that holds its own is a block of one)."""
        block = self.block
        return (RecordBlock.of(self), 0) if block is None else (block, self.row)

    def counters_at(self, t: float) -> dict[str, float]:
        """All cumulative counters and levels evaluated at time ``t``."""
        out = {name: ts.value_at(t) for name, ts in self.counters.items()}
        out.update({name: ts.value_at(t) for name, ts in self.levels.items()})
        out["time.runtime"] = min(max(t, 0.0), self.duration)
        return out

    def counters_many(self, ts: np.ndarray) -> dict[str, np.ndarray]:
        """Vectorised :meth:`counters_at`: one array per metric.

        ``ts`` is an array of (relative) sample times; entry *i* of each
        array equals ``counters_at(ts[i])[name]``.  It is the one-row
        call of :meth:`RecordBlock.counters_many`.
        """
        ts = np.asarray(ts, dtype=float)
        block, row = self.tables()
        sampled = block.counters_many([row], ts[None, :])
        return {name: values[0] for name, values in sampled.items()}

    def total(self, name: str) -> float:
        """One of :meth:`totals`: the final value of a counter, the
        maximum of a level, zero for a series the record has not."""
        block = self.block
        if block is not None:  # off its tables: no per-row series is built
            return float(block.total(name, self.row))
        if name in self.levels:
            return self.levels[name].max()
        series = self.counters.get(name)
        return series.last() if series else 0.0

    def totals(self) -> dict[str, float]:
        """Final counter values (cumulative) and maxima (levels)."""
        block = self.block
        names = block.series if block is not None else (*self.counters, *self.levels)
        out = {name: self.total(name) for name in names}
        out["time.runtime"] = self.duration
        return out


_RECORD_FIELDS = tuple(each.name for each in fields(ExecutionRecord))


#: Demand-type codes (the packed workload's ``KIND_*``).
_COMPUTE, _IO, _MEM, _NET, _SLEEP = range(5)
#: Counter slots per demand type (for noise-slot packing).
_COUNTER_SLOTS = np.array([5, 2, 2, 2, 0], dtype=np.int64)


class _Gather:
    """Flat per-type view of one workload bound to one machine.

    The transient input of the cost stage: :meth:`Engine._bind` produces
    it, :meth:`Engine.prepare` consumes it and keeps only the
    :class:`Prepared` plan.

    ``*_pos`` fields hold the global demand index of every demand of one
    type, in execution order; the companion arrays hold that type's
    attributes in the same order (the machine-derived ones — ``c_ipc``
    … ``c_over``, ``i_rlat`` … ``i_wbw`` — only when the type has
    demands).  ``streams`` is the ``(streams, 3)`` table of ``(phase,
    first demand, end demand)``; ``contention`` is the per-demand phase
    slowdown factor (CPU oversubscription for compute, shared-filesystem
    streams for I/O, 1.0 otherwise).
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


def _frozen(data: Any, dtype: Any = None) -> np.ndarray:
    """Read-only view of ``data`` as an array (the owner stays writable)."""
    view = np.asarray(data, dtype=dtype).view()
    view.flags.writeable = False
    return view


class Prepared:
    """One workload bound to one machine, costed and laid out.

    Everything :meth:`Engine.run` needs that no seed changes: demand
    positions per kind, contention-scaled base durations and base
    counter amounts, the noise slot layout, stream/phase structure (and
    how the timeline walks it: see :func:`_timeline_layout`) and the
    seed-independent halves of the level folds.  Built by
    :meth:`Engine.prepare`; replayed any number of times, by any engine
    on the same machine, each replay drawing its own noise.

    Every array is a read-only view, so a plan shared by the requests
    of a run-service batch cannot be altered by one of them.  The plan
    does not track its source: mutate an object workload and prepare
    again.  ``streams`` is the raw ``(streams, 3)`` table of ``(phase,
    first demand, end demand)``; ``segments`` is the same structure cut
    the way :meth:`Engine._timeline` walks it.  ``replays`` — how many runs have used the plan — is the
    one field a replay touches; it is what telemetry reads to tell a
    plan's first use (``built``) from a later one (``reused``).
    """

    __slots__ = (
        "machine", "name", "base_rss", "metadata",
        "n", "n_phases", "streams", "segments", "run_phases", "pos",
        "slot_values", "slot_bases", "slot_groups",
        "m_phase", "m_deltas", "t_pos", "t_extra",
        "i_read", "i_written", "i_block", "i_fs",
        "replays", "__weakref__",
    )

    def __init__(self) -> None:
        self.replays = 0


class Engine:
    """Executes workloads against one machine model.

    :meth:`prepare` turns a workload into a seed-independent
    :class:`Prepared` plan for this machine; :meth:`run` replays a plan
    (preparing first when handed a workload) under this engine's noise
    model, :meth:`replay_many` under as many noise models as it is
    handed.  An engine holds no per-workload state: plans belong to
    whoever prepared them, and any engine over the same machine can
    replay them.
    """

    def __init__(self, machine: MachineSpec, noise: NoiseModel | None = None) -> None:
        self.machine = machine
        self.noise = noise if noise is not None else NoiseModel.silent()

    # -- bind pass ---------------------------------------------------------------

    def _bind(self, p: PackedWorkload) -> _Gather:
        """Bind packed columns to this machine.

        A handful of vectorised lookups: machine parameters are resolved
        once per *distinct* workload class / paradigm / filesystem name
        and fanned out to demands by interned code, and the phase
        contention factors are counted from the stream table.  Object
        workloads reach it through :func:`~repro.sim.packed.pack_workload`.
        """
        cpu = self.machine.cpu
        cores = cpu.cores
        g = _Gather()
        g.n = p.n
        g.n_phases = p.n_phases
        g.kinds = p.kinds
        g.streams = np.empty((p.stream_phase.size, 3), dtype=np.intp)
        g.streams[:, 0] = p.stream_phase
        g.streams[:, 1] = p.stream_first
        g.streams[:, 2] = p.stream_end
        counts = p.stream_end - p.stream_first
        demand_phase = np.repeat(p.stream_phase, counts)
        contention = np.ones(p.n)

        g.c_pos = p.c_pos
        g.c_instr = p.c_instr
        g.c_cc = p.c_cc
        g.c_fpi = p.c_fpi
        g.c_workers = workers = np.minimum(p.c_threads, cores)
        if p.c_pos.size:
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

        g.i_pos = p.i_pos
        g.i_read = p.i_read
        g.i_written = p.i_written
        g.i_block = p.i_block
        g.i_fs = np.asarray(p.fs_names, dtype=object)[p.i_fs]
        if p.i_pos.size:
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

            # Per-(phase, filesystem) stream counts → I/O contention.
            i_stream = np.searchsorted(p.stream_first, p.i_pos, side="right") - 1
            pair = np.unique(i_stream * n_fs + p.i_fs)
            fs_streams = np.zeros((p.n_phases, n_fs))
            np.add.at(fs_streams, (p.stream_phase[pair // n_fs], pair % n_fs), 1.0)
            f_io = np.maximum(1.0, fs_streams)
            contention[p.i_pos] = f_io[demand_phase[p.i_pos], p.i_fs]

        g.m_pos = p.m_pos
        g.m_alloc = p.m_alloc
        g.m_free = p.m_free
        g.m_block = p.m_block
        g.m_phase = demand_phase[p.m_pos]
        g.n_pos = p.net_pos
        g.n_sent = p.net_sent
        g.n_recv = p.net_recv
        g.n_block = p.net_block
        g.s_pos = p.s_pos
        g.s_secs = p.s_secs
        g.contention = contention
        return g

    # -- batched cost kernels ----------------------------------------------------

    def _compute_costs(self, g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every compute demand."""
        cc, ipc = g.c_cc, g.c_ipc
        with np.errstate(invalid="ignore"):
            has_cc = ~np.isnan(cc)
            cycles = np.where(has_cc, cc * g.c_bias, g.c_instr / ipc)
            instructions = np.where(has_cc, cycles * ipc, g.c_instr)
        cycles_total = cycles * (1.0 + g.c_over)
        instr_total = instructions * (1.0 + g.c_over)
        duration = (cycles / self.machine.cpu.frequency) * g.c_factor
        stalled = cycles_total * g.c_sr
        front_fraction = g.c_ff
        return {
            "duration": duration,
            "cpu.instructions": instr_total,
            "cpu.cycles_used": cycles_total,
            "cpu.cycles_stalled_front": stalled * front_fraction,
            "cpu.cycles_stalled_back": stalled * (1.0 - front_fraction),
            "cpu.flops": instr_total * g.c_fpi,
        }

    @staticmethod
    def _io_costs(g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every I/O demand."""
        nread = g.i_read.astype(float)
        nwritten = g.i_written.astype(float)
        block = g.i_block.astype(float)
        read_ops = np.ceil(nread / block)
        write_ops = np.ceil(nwritten / block)
        read_time = np.where(nread > 0, read_ops * g.i_rlat + nread * g.i_rblend, 0.0)
        write_time = np.where(
            nwritten > 0, write_ops * g.i_wlat + nwritten / g.i_wbw, 0.0
        )
        return {
            "duration": read_time + write_time,
            "io.bytes_read": nread,
            "io.bytes_written": nwritten,
        }

    def _memory_costs(self, g: _Gather) -> dict[str, np.ndarray]:
        """Duration and counter amounts of every memory demand."""
        mem = self.machine.memory
        alloc, freed, block = g.m_alloc, g.m_free, g.m_block
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
        sent, recv = g.n_sent, g.n_recv
        nbytes = sent + recv
        ops = -(-nbytes // g.n_block)
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
        engine over the same machine.  Accepts the columnar form
        (:class:`~repro.sim.packed.PackedWorkload`, bound without
        touching a demand object) and the object form (``SimWorkload``,
        packed in one Python pass first) — the plans, and so the
        records, are bit-identical.
        """
        if not isinstance(workload, PackedWorkload):
            workload = pack_workload(workload)
        g = self._bind(workload)
        plan = Prepared()
        plan.machine = self.machine
        plan.name = workload.name
        plan.base_rss = float(workload.base_rss)
        plan.metadata = dict(workload.metadata)
        plan.n = g.n
        plan.n_phases = g.n_phases
        plan.streams = _frozen(g.streams)
        plan.segments, plan.run_phases = _timeline_layout(g.n_phases, g.streams)
        plan.pos = tuple(
            _frozen(pos) for pos in (g.c_pos, g.i_pos, g.m_pos, g.n_pos, g.s_pos)
        )

        # Noise slot layout, per demand in execution order: its duration,
        # then its counter amounts in the fixed per-type order.  This is
        # exactly the order the scalar engine made its ``duration()`` /
        # ``counter()`` calls in, so seeded runs reproduce the scalar
        # noise stream bit for bit (zero values skip their draw in both).
        slots = _COUNTER_SLOTS[g.kinds] + 1
        offsets = np.concatenate(([0], np.cumsum(slots)))
        bases = offsets[:-1]
        values = np.zeros(int(offsets[-1]))
        groups: dict[int, np.ndarray] = {}
        for kind, cost in (
            (_COMPUTE, self._compute_costs),
            (_IO, self._io_costs),
            (_MEM, self._memory_costs),
            (_NET, self._network_costs),
        ):
            pos = plan.pos[kind]
            if pos.size:
                costs = cost(g)
                group_bases = bases[pos]
                values[group_bases] = costs["duration"]
                for slot, name in enumerate(_KIND_COUNTERS[kind], start=1):
                    values[group_bases + slot] = costs[name]
                groups[kind] = _frozen(group_bases)
        if g.s_pos.size:
            values[bases[g.s_pos]] = g.s_secs
        values[bases] *= g.contention
        plan.slot_values = _frozen(values)
        plan.slot_bases = _frozen(bases)
        plan.slot_groups = groups

        # Seed-independent halves of the level folds: signed RSS change
        # per memory demand, extra workers per multi-threaded compute.
        plan.m_phase = _frozen(g.m_phase)
        plan.m_deltas = _frozen((g.m_alloc - g.m_free).astype(float))
        workers = g.c_workers.astype(float)
        multi = workers > 1
        plan.t_pos = _frozen(g.c_pos[multi])
        plan.t_extra = _frozen(workers[multi] - 1.0)

        plan.i_read = _frozen(g.i_read)
        plan.i_written = _frozen(g.i_written)
        plan.i_block = _frozen(g.i_block)
        plan.i_fs = _frozen(g.i_fs)
        get_registry().inc("engine.plans.built")
        return plan

    # -- execution ---------------------------------------------------------------

    def run(
        self, workload: SimWorkload | PackedWorkload | Prepared
    ) -> ExecutionRecord:
        """Execute a workload; returns its full observable history.

        ``run(workload)`` is :meth:`prepare` followed by the one-row
        case of :meth:`replay_many` under this engine's noise model;
        handing in a :class:`Prepared` plan (for this machine) skips
        straight to the replay.  Both produce bit-identical records.
        """
        with span(
            "engine.run", workload=workload.name, machine=self.machine.name
        ) as sp:
            plan = (
                workload if isinstance(workload, Prepared)
                else self.prepare(workload)
            )
            reused = plan.replays > 0
            (record,), _ = self._records(plan, [self.noise])
            sp.set(
                demands=plan.n, sim_duration=record.duration,
                plan="reused" if reused else "built", run_phases=plan.run_phases,
            )
        return record

    def replay_many(
        self, plan: Prepared, noises: Sequence[NoiseModel]
    ) -> list[ExecutionRecord]:
        """Replay one plan once per noise model; one record per model.

        The noise models are the rows of a block: each draws its own row
        of the plan's noise slots, in order (so a model passed twice
        continues its stream, and every record equals what
        ``Engine(machine, noise).run(plan)`` returns for that model in
        that order), and the timeline — and, once somebody reads a
        record's series, the counter and level folds — run once over
        the whole ``(rows, demands)`` block; see :meth:`_replay` for
        when a block is cut smaller.
        """
        with span(
            "engine.replay", workload=plan.name, machine=self.machine.name
        ) as sp:
            records, blocks = self._records(plan, list(noises))
            sp.set(
                demands=plan.n, rows=len(records), blocks=blocks,
                run_phases=plan.run_phases,
            )
        return records

    def _records(
        self, plan: Prepared, noises: Sequence[NoiseModel]
    ) -> tuple[list[ExecutionRecord], int]:
        """The engine's only replay path, under :meth:`run` and
        :meth:`replay_many` alike: one record per noise model, and the
        number of blocks they were replayed in."""
        if plan.machine is not self.machine and plan.machine != self.machine:
            raise WorkloadError(
                f"plan {plan.name!r} was prepared for machine "
                f"{plan.machine.name!r}, not {self.machine.name!r}"
            )
        # Every row but a fresh plan's first replays a used plan.
        reused = len(noises) if plan.replays else max(0, len(noises) - 1)
        get_registry().inc("engine.plans.reused", reused)
        metadata = dict(plan.metadata)
        metadata.setdefault("workload_name", plan.name)
        return self._replay(plan, noises, plan.base_rss, metadata)

    def _replay(
        self,
        plan: Prepared,
        noises: Sequence[NoiseModel],
        base_rss: float,
        metadata: dict[str, Any],
        *,
        t_start: float = 0.0,
        rss0: float | None = None,
        peak0: float | None = None,
        initial: dict[str, tuple[float, float, float]] | None = None,
    ) -> tuple[list[ExecutionRecord], int]:
        """Per-seed replay of a block of rows, as far as a Tx reader
        needs it: noise and timeline.  Returns one record per noise
        model (each with a copy of ``metadata``) and the number of
        blocks they were replayed in; the counter and level folds wait
        in the records' :class:`RecordBlock` for a first reader.

        With the default arguments every row executes the whole plan
        from virtual time zero (the :meth:`replay_many` path).  The
        streaming path calls it with one row per arrival batch and the
        previous batch's end time, RSS level/peak and per-counter
        carries, which — because every accumulation is a left-associated
        fold along the demand axis — continues the timelines
        bit-identically to an uninterrupted run.

        Rows replay together while the arrays they produce are
        rectangular.  Rows × noise slots may not exceed
        :data:`_BLOCK_ELEMENTS` (a plan that large replays row by row,
        in the memory one row takes); rows whose breakpoint structure
        differs (see :class:`_Ragged`) are found, and regrouped, by the
        fold.
        """
        registry = get_registry()
        plan.replays += len(noises)
        window = (base_rss, t_start, rss0, peak0, initial)
        per_block = block_rows(plan)
        records: list[ExecutionRecord] = []
        blocks = 0
        for start in range(0, len(noises), per_block):
            noisy = self._draw_noise(plan, noises[start : start + per_block])
            t0, t1, bounds = self._timeline(plan, noisy[:, plan.slot_bases], t_start)
            if plan.n_phases:
                t_hi = bounds[:, -1, 1]
            else:
                t_hi = np.full(len(noisy), float(t_start))
            block = RecordBlock.unfolded(t_hi, plan, t0, t1, noisy, window)
            blocks += 1
            io_starts = t0[:, plan.pos[_IO]]
            for row, (duration, phase_bounds) in enumerate(
                zip(t_hi.tolist(), bounds.tolist())
            ):
                records.append(ExecutionRecord._replayed(
                    block,
                    row,
                    machine=self.machine,
                    duration=duration,
                    io_events=_LazyIOEvents(
                        io_starts[row], plan.i_read, plan.i_written,
                        plan.i_block, plan.i_fs,
                    ),
                    phase_bounds=[(lo, hi) for lo, hi in phase_bounds],
                    metadata=dict(metadata),
                ))
        registry.inc("engine.replay.rows", len(records))
        registry.inc("engine.replay.blocks", blocks)
        registry.inc(
            "engine.replay.split_rows", len(records) - min(per_block, len(records))
        )
        registry.inc("engine.timeline.run_phases", plan.run_phases * len(records))
        registry.inc(
            "engine.timeline.loop_phases",
            (plan.n_phases - plan.run_phases) * len(records),
        )
        return records, blocks

    def run_many(
        self, workloads: Iterable[SimWorkload | PackedWorkload]
    ) -> list[ExecutionRecord]:
        """Execute several workloads back to back on this engine.

        Runs share the engine's noise model, so the RNG stream continues
        across workloads exactly as consecutive :meth:`run` calls would —
        ``run_many(ws)`` is the batch equivalent of ``[run(w) for w in
        ws]``.  For many seeds of *one* workload see :meth:`replay_many`;
        for multi-core fan-out see
        :class:`repro.runtime.service.RunService` and
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

    @staticmethod
    def _draw_noise(plan: Prepared, noises: Sequence[NoiseModel]) -> np.ndarray:
        """The plan's slot array under each noise model, one row each
        (see :meth:`prepare` for the layout).

        Every model draws for itself, in row order — one
        ``standard_normal`` batch over the slots whose value and sigma
        are both nonzero, exactly the draws :meth:`NoiseModel.apply`
        makes — and the rows are then scaled together.  Slots without a
        draw keep a zero exponent, so they come through unchanged.
        """
        values = plan.slot_values
        shape = (len(noises), values.size)
        if all(noise.silent_model for noise in noises):
            return np.broadcast_to(values, shape)
        is_duration = np.zeros(values.size, dtype=bool)
        is_duration[plan.slot_bases] = True
        sigmas = np.where(
            is_duration,
            np.array([[noise.duration_sigma] for noise in noises]),
            np.array([[noise.counter_sigma] for noise in noises]),
        )
        drawn = (values != 0.0) & (sigmas != 0.0)
        z = np.zeros(shape)
        for row, noise in enumerate(noises):
            z[row, drawn[row]] = noise.normals(int(np.count_nonzero(drawn[row])))
        return values * np.exp(sigmas * z)

    # -- timeline ----------------------------------------------------------------

    @staticmethod
    def _timeline(
        plan: Prepared, durations: np.ndarray, t_start: float = 0.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-row demand start/end times ``(rows, n)`` and phase bounds
        ``(rows, phases, 2)``.

        Demands run serially within a stream (cumulative sum of noisy
        durations, left-associated like the scalar accumulation), streams
        start together at the phase start, and phases are barriers.  The
        first phase starts at ``t_start`` (nonzero for streamed batches).
        The plan's segments say which phases fold as a run and which are
        walked stream by stream; both make the same additions (the
        per-stream walk alone is the oracle of
        ``tests/sim/test_timeline_oracle.py``).
        """
        rows = len(durations)
        t0 = np.empty((rows, plan.n))
        t1 = np.empty((rows, plan.n))
        bounds = np.empty((rows, plan.n_phases, 2))
        t_phase = np.full(rows, float(t_start))
        for segment in plan.segments:
            if type(segment) is _Run:
                # Every stream of these phases is one demand, so a phase
                # ends at ``max_s fl(t + d_s)`` — which is ``fl(t + max_s
                # d_s)``, rounding being monotone — and the phase starts
                # are the left fold of those maxima: the same additions
                # the per-stream ``cumsum``s below make, made at once.
                first, end = segment.demands
                spans = durations[:, first:end]
                steps = np.empty((rows, len(segment.firsts) + 1))
                steps[:, 0] = t_phase
                np.maximum.reduceat(spans, segment.firsts, axis=1, out=steps[:, 1:])
                steps = steps.cumsum(axis=1)
                starts = steps[:, segment.phase_of]
                t0[:, first:end] = starts
                np.add(starts, spans, out=t1[:, first:end])
                lo, hi = segment.phases
                bounds[:, lo:hi, 0] = steps[:, :-1]
                bounds[:, lo:hi, 1] = steps[:, 1:]
                t_phase = steps[:, -1]
                continue
            stream_iter = iter(segment.streams)
            pending = next(stream_iter, None)
            for p_idx in range(*segment.phases):
                phase_end = t_phase
                while pending is not None and pending[0] == p_idx:
                    _, first, end = pending
                    if end > first:
                        steps = np.concatenate(
                            (t_phase[:, None], durations[:, first:end]), axis=1
                        ).cumsum(axis=1)
                        t0[:, first:end] = steps[:, :-1]
                        t1[:, first:end] = steps[:, 1:]
                        phase_end = np.maximum(phase_end, steps[:, -1])
                    pending = next(stream_iter, None)
                bounds[:, p_idx, 0] = t_phase
                bounds[:, p_idx, 1] = phase_end
                t_phase = phase_end
        return t0, t1, bounds

    # -- counter timelines ---------------------------------------------------------

    @staticmethod
    def _build_counters(
        plan: Prepared,
        t0: np.ndarray,
        t1: np.ndarray,
        noisy: np.ndarray,
        t_lo: float,
        t_hi: np.ndarray,
        initial: dict[str, tuple[float, float, float]] | None = None,
    ) -> tuple[
        dict[str, tuple[np.ndarray, np.ndarray]],
        list[dict[str, tuple[float, float, float]]],
    ]:
        """Turn accrual spans into piecewise-linear cumulative series.

        Row *r*'s series cover the window ``[t_lo, t_hi[r]]`` (the whole
        run for the batch path).  ``initial`` maps counter names to
        their ``(raw, guarded, rate)`` carry from the previous window:
        the raw left-fold sum seeds this window's ``cumsum``, the
        guarded value floors the monotonic guard and the running rate
        seeds the rate fold, so streamed windows reproduce the
        uninterrupted series bit for bit.  Returns the series as
        ``(rows, breakpoints)`` time and value tables and, per row, this
        window's end carries, both in sorted-name order.
        """
        rows = len(noisy)
        if initial is None:
            initial = {}
        # Which spans accrue is read off the zero pattern of the noisy
        # slots.  Noise scales and never zeroes, so the rows agree —
        # unless a draw under- or overflowed, which is a difference in
        # structure like any other.
        live = noisy != 0.0
        if rows > 1 and (live != live[0]).any():
            raise _Ragged(np.unique(live, axis=0, return_inverse=True)[1].ravel())
        idle, groups = _accrual(live[0], plan.slot_groups)
        edges = np.empty((rows, 2))
        edges[:, 0] = t_lo
        edges[:, 1] = t_hi
        none = (0.0, 0.0, 0.0)
        folded: dict[str, tuple[np.ndarray, np.ndarray, list]] = {}
        carried = set(initial).difference(*(group[0] for group in groups))
        for name in carried.union(idle):
            # Nothing accrues in this window: carry the level flat.
            carry = initial.get(name, none)
            folded[name] = (edges, np.full((rows, 2), carry[1]), [carry] * rows)
        kind_spans: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for names, kind, cols, slots in groups:
            spans = kind_spans.get(kind)
            if spans is None:
                pos = plan.pos[kind]
                spans = kind_spans[kind] = (t0[:, pos], t1[:, pos])
            if cols is not None:
                spans = (spans[0][:, cols], spans[1][:, cols])
            grid = _Grid(*spans, edges)
            # Counters on one grid fold as lanes of one array, as many
            # at a time as the element budget allows.
            lanes = max(1, _BLOCK_ELEMENTS // spans[0].size)
            for first in range(0, len(names), lanes):
                part = names[first : first + lanes]
                values, ends = grid.accumulate(
                    noisy[:, slots[first : first + lanes]],
                    np.array([initial.get(name, none) for name in part]),
                )
                for lane, name in enumerate(part):
                    folded[name] = (
                        grid.bps, values[:, lane], ends[:, lane].tolist()
                    )
        tables: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        carries: list[dict[str, tuple[float, float, float]]] = [
            {} for _ in range(rows)
        ]
        for name in sorted(folded):
            times, values, ends = folded[name]
            tables[name] = (times, values)
            for row in range(rows):
                carries[row][name] = tuple(ends[row])
        return tables, carries

    # -- level timelines -----------------------------------------------------------

    @staticmethod
    def _build_levels(
        plan: Prepared,
        t0: np.ndarray,
        t1: np.ndarray,
        base_rss: float,
        t_lo: float,
        t_hi: np.ndarray,
        rss0: float | None = None,
        peak0: float | None = None,
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], list[float], list[float]]:
        """Level series over ``[t_lo, t_hi[r]]`` as ``(rows, breakpoints)``
        time and value tables, and per row the end RSS and peak.

        ``rss0``/``peak0`` carry the previous window's end level and
        running maximum into a streamed window (``None`` starts a run
        from ``base_rss``).
        """
        rows = len(t0)
        opening = float(base_rss) if rss0 is None else rss0
        step_t = np.full((rows, 1), t_lo)
        step_v = np.full((rows, 1), opening)
        m_pos = plan.pos[_MEM]
        if m_pos.size:
            # RSS changes apply in global time order *within* each phase
            # (barriers order the phases themselves), ties broken by
            # delta — the same total order the scalar fold used.  The
            # running level clamps at zero, a sequential dependency, but
            # between clamps the fold is a plain cumulative sum, so only
            # rows that do clamp (usually none) leave the stacked cumsum
            # for :func:`_clamped_fold`.
            keys = np.empty((3, rows, m_pos.size))
            keys[0] = plan.m_deltas
            keys[1] = t1[:, m_pos]
            keys[2] = plan.m_phase
            order = np.lexsort(keys)
            whens = _by_row(keys[1], order)
            deltas = plan.m_deltas[order]
            folded = np.concatenate((step_v, deltas), axis=1).cumsum(axis=1)[:, 1:]
            for row in np.flatnonzero((folded < 0.0).any(axis=1)):
                folded[row] = _clamped_fold(opening, deltas[row])
            step_t = np.concatenate((step_t, whens), axis=1)
            step_v = np.concatenate((step_v, folded), axis=1)
        rss_t, rss_v = _step_series_arrays(step_t, step_v, t_lo, t_hi)
        peak_v = np.maximum.accumulate(
            rss_v if peak0 is None else np.maximum(rss_v, peak0), axis=1
        )
        threads_t, threads_v = Engine._thread_level(plan, t0, t1, t_lo, t_hi)
        load_v = threads_v / plan.machine.cpu.cores
        levels = dict(zip(_LEVELS, (
            (rss_t, rss_v), (rss_t, peak_v), (threads_t, threads_v), (threads_t, load_v),
        )))
        return levels, step_v[:, -1].tolist(), peak_v[:, -1].tolist()

    @staticmethod
    def _thread_level(
        plan: Prepared, t0: np.ndarray, t1: np.ndarray, t_lo: float, t_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Active-worker level series as ``(times, values)`` row arrays.

        Every multi-threaded compute demand contributes a
        ``(start, +workers-1)`` / ``(end, -(workers-1))`` event pair:
        events sort by ``(time, delta)``, the running level starts at
        one worker, and recorded levels clamp at one (the scalar
        accumulation kept as the oracle in
        ``tests/sim/test_engine_levels.py``).  No cross-window carry is
        needed: windows start at phase barriers, where every stream has
        joined.
        """
        rows = len(t0)
        pos = plan.t_pos
        if not pos.size:
            return (
                np.stack((np.full(rows, t_lo), t_hi), axis=1),
                np.ones((rows, 2)),
            )
        keys = np.empty((2, rows, 2 * pos.size))
        keys[0, :, : pos.size] = plan.t_extra
        keys[0, :, pos.size :] = -plan.t_extra
        keys[1, :, : pos.size] = t0[:, pos]
        keys[1, :, pos.size :] = t1[:, pos]
        order = np.lexsort(keys)
        whens = _by_row(keys[1], order)
        levels = np.maximum(1.0, 1.0 + _by_row(keys[0], order).cumsum(axis=1))
        return _step_series_arrays(
            np.concatenate((np.full((rows, 1), t_lo), whens), axis=1),
            np.concatenate((np.ones((rows, 1)), levels), axis=1),
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

#: Most ``rows × noise slots`` one replay block may hold.  It bounds the
#: block's temporaries (a dozen or so float64 arrays of that many
#: elements, ~1 MB each), so stacking seeds never scales memory with
#: demand count: a plan with more slots than this replays row by row.
_BLOCK_ELEMENTS = 1 << 17


def _fold_rows(
    plan: Prepared,
    t_hi: np.ndarray,
    t0: np.ndarray,
    t1: np.ndarray,
    noisy: np.ndarray,
    window: tuple,
) -> list[tuple[np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]], tuple]]:
    """The counter and level folds of replayed rows, every accumulation
    along ``axis=1``: as one rectangular block, or — when the rows turn
    out ragged — as one block per group of like rows.  Per block folded:
    which rows it holds, their series tables (counters, then levels) and
    their window end state ``(carries, rss_end, peak_end)``."""
    base_rss, t_start, rss0, peak0, initial = window
    try:
        tables, carries = Engine._build_counters(
            plan, t0, t1, noisy, t_start, t_hi, initial
        )
        levels, rss_end, peak_end = Engine._build_levels(
            plan, t0, t1, base_rss, t_start, t_hi, rss0, peak0
        )
    except _Ragged as ragged:
        groups = []
        for key in np.unique(ragged.keys):
            rows = np.flatnonzero(ragged.keys == key)
            for members, series, ends in _fold_rows(
                plan, t_hi[rows], t0[rows], t1[rows], noisy[rows], window
            ):
                groups.append((rows[members], series, ends))
        return groups
    return [(
        np.arange(len(noisy)), {**tables, **levels}, (carries, rss_end, peak_end)
    )]


def block_rows(plan: Prepared) -> int:
    """How many rows of ``plan`` one replay block may hold (at least 1)."""
    return max(1, _BLOCK_ELEMENTS // max(1, plan.slot_values.size))


class _Run(NamedTuple):
    """Consecutive phases whose every stream holds exactly one demand:
    :meth:`Engine._timeline` folds them with array operations."""

    #: ``(first, end)`` phase indices.
    phases: tuple[int, int]
    #: ``(first, end)`` demand indices: one demand per stream, in order.
    demands: tuple[int, int]
    #: Per phase, the offset of its first demand within ``demands``.
    firsts: np.ndarray
    #: Per demand, the offset of its phase within ``phases``.
    phase_of: np.ndarray


class _Loop(NamedTuple):
    """Consecutive phases of any other shape, walked stream by stream."""

    #: ``(first, end)`` phase indices.
    phases: tuple[int, int]
    #: Their streams as ``(phase, first demand, end demand)``, in order.
    streams: tuple[tuple[int, int, int], ...]


#: Shortest run of single-demand phases worth leaving the stream loop
#: for.  Finding a run and folding it cost about what the loop spends on
#: eight single-demand streams (≈ 55 µs against ≈ 7 µs a stream), so
#: shorter runs — the 2- and 5-sample emulation plans — stay in the loop.
_MIN_RUN = 8


def _single_runs(n_phases: int, streams: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Runs of at least :data:`_MIN_RUN` consecutive phases that have
    streams, each of exactly one demand, as ``(first phase, end phase,
    first stream, end stream)`` — from the ``(streams, 3)`` layout."""
    if n_phases < _MIN_RUN or len(streams) < _MIN_RUN:
        return []
    phase, first, end = streams.T
    ones = end - first == 1
    # Runs slice demands and streams by range: the streams must tile the
    # demands in phase order (every builder's layout).
    if not (
        np.count_nonzero(ones) >= _MIN_RUN
        and (first[1:] == end[:-1]).all()
        and (phase[1:] >= phase[:-1]).all()
    ):
        return []
    per_phase = np.bincount(phase, minlength=n_phases)
    single = np.zeros(n_phases + 2, dtype=bool)
    single[1:-1] = per_phase == np.bincount(phase, weights=ones, minlength=n_phases)
    single[1:-1] &= per_phase > 0
    edges = np.flatnonzero(single[1:] != single[:-1])
    lo, hi = edges[::2], edges[1::2]
    long = hi - lo >= _MIN_RUN
    lo, hi = lo[long], hi[long]
    first_stream = np.zeros(n_phases + 1, dtype=np.intp)
    np.cumsum(per_phase, out=first_stream[1:])
    return list(zip(
        lo.tolist(), hi.tolist(), first_stream[lo].tolist(), first_stream[hi].tolist()
    ))


def _timeline_layout(
    n_phases: int, streams: np.ndarray
) -> tuple[tuple[_Run | _Loop, ...], int]:
    """Cut a plan's phases into :class:`_Run` and :class:`_Loop`
    segments, from its ``(streams, 3)`` layout alone; also returns how
    many phases the runs hold.

    A phase belongs to a run when it has streams and each holds exactly
    one demand (an emulation plan's sample phases: one stream per atom);
    runs shorter than :data:`_MIN_RUN` phases, and every other phase,
    stay with the stream loop.
    """
    segments: list[_Run | _Loop] = []
    p_done = s_done = run_phases = 0

    def loop_until(p_end: int, s_end: int) -> None:
        if p_end > p_done:
            segments.append(
                _Loop((p_done, p_end), tuple(map(tuple, streams[s_done:s_end].tolist())))
            )

    for p_lo, p_hi, s_lo, s_hi in _single_runs(n_phases, streams):
        loop_until(p_lo, s_lo)
        phase_of = streams[s_lo:s_hi, 0] - p_lo
        firsts = np.flatnonzero(phase_of[1:] != phase_of[:-1])
        firsts += 1
        segments.append(_Run(
            (p_lo, p_hi),
            (int(streams[s_lo, 1]), int(streams[s_hi - 1, 2])),
            _frozen(np.concatenate(([0], firsts))),
            _frozen(phase_of),
        ))
        p_done, s_done = p_hi, s_hi
        run_phases += p_hi - p_lo
    loop_until(n_phases, len(streams))
    return tuple(segments), run_phases


class _Ragged(Exception):
    """The rows of a block do not fit one rectangle.

    Rows stack only while every array they produce has the same length
    in each of them — the number of distinct breakpoints of a counter
    grid, of accruing spans of a counter, of positive-time level steps.
    Those counts are structural in the normal case (coincident
    breakpoints are ``t1[i] == t0[i+1]``, phase starts, ``t_hi``), but a
    seed may add a coincidence of its own.  ``keys`` holds the count
    that differed, one per row; :func:`_fold_rows` regroups the
    rows by it and folds each group as a smaller block.
    """

    def __init__(self, keys: np.ndarray) -> None:
        super().__init__("rows of a replay block differ in structure")
        self.keys = keys


class _Grid:
    """The breakpoint grid of one set of accrual spans, per row.

    Built from ``(rows, k)`` span starts and ends and the ``(rows, 2)``
    window edges: ``bps`` are each row's sorted distinct breakpoints
    (``t_lo``, ``t_hi`` and every span boundary — what ``np.unique``
    returns for that row, found here with a per-row stable argsort and
    an adjacent-duplicate mask so that the rows stay one array), with
    every span's start and end located on them.  :meth:`accumulate`
    folds counters' amounts over the grid.
    """

    __slots__ = ("bps", "widths", "lengths", "idle", "bins", "n_bins")

    def __init__(self, t0a: np.ndarray, t1a: np.ndarray, edges: np.ndarray) -> None:
        rows, k = t0a.shape
        t1a = np.maximum(t1a, t0a + 1e-12)
        points = np.concatenate((edges, t0a, t1a), axis=1)
        width = 2 * k + 2
        order = points.argsort(axis=1, kind="stable")
        if rows > 1:
            order += np.arange(0, rows * width, width)[:, None]
        ranked = points.ravel()[order]
        fresh = np.empty(points.shape, dtype=bool)
        fresh[:, 0] = True
        np.not_equal(ranked[:, 1:], ranked[:, :-1], out=fresh[:, 1:])
        rank = fresh.cumsum(axis=1)
        n_bps = int(rank[0, -1])
        if rows > 1 and (rank[:, -1] != n_bps).any():
            raise _Ragged(rank[:, -1])
        # Position of every point on its row's grid, one-based: the
        # inverse ``np.unique(return_inverse=True)`` gives, row by row.
        index = np.empty(points.shape, dtype=np.intp)
        index.ravel()[order.ravel()] = rank.ravel()
        self.bps = ranked[fresh].reshape(rows, n_bps)
        self.widths = self.bps[:, 1:] - self.bps[:, :-1]
        self.lengths = t1a - t0a
        # Two bins per breakpoint — span *ends* fold before span
        # *starts* at the same timestamp.  This keeps the running rate a
        # pure left fold that batch boundaries (always phase barriers)
        # split cleanly, so streamed windows seeded with the carried
        # running rate continue it bit for bit.
        self.n_bins = 2 * n_bps
        self.bins = bins = 2 * index[:, 2:] - 2
        bins[:, :k] += 1
        # The active-span count is exact integer arithmetic, so idle
        # intervals are identified identically by a full run and by its
        # streamed windows — which is what lets both pin their rates to
        # exactly zero.
        lanes = np.arange(0, rows * self.n_bins, self.n_bins)[:, None]
        hits = np.bincount(
            (bins + lanes).ravel(), minlength=rows * self.n_bins
        ).reshape(rows, n_bps, 2)
        self.idle = (hits[:, :-1, 1] - hits[:, :-1, 0]).cumsum(axis=1) == 0

    def accumulate(
        self, amounts: np.ndarray, start: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fold ``(rows, counters, k)`` amounts over the grid.

        ``start`` holds one ``(raw, guarded, rate)`` carry per counter.
        Returns the cumulative values ``(rows, counters, breakpoints)``
        and the end carries ``(rows, counters, 3)``.
        """
        rows, lanes, k = amounts.shape
        rates = amounts / self.lengths[:, None, :]
        weights = np.empty((rows, lanes, 2 * k))
        weights[:, :, :k] = rates
        np.negative(rates, out=weights[:, :, k:])
        bins = self.bins[:, None, :] + np.arange(
            0, rows * lanes * self.n_bins, self.n_bins
        ).reshape(rows, lanes, 1)
        # Weighted ``bincount`` adds a bin's weights in index order from
        # zero — the accumulation ``np.add.at`` makes.
        running = np.empty((rows, lanes, self.n_bins + 1))
        running[:, :, 0] = start[:, 2]
        running[:, :, 1:] = np.bincount(
            bins.ravel(), weights=weights.ravel(),
            minlength=rows * lanes * self.n_bins,
        ).reshape(rows, lanes, self.n_bins)
        running = running.cumsum(axis=2)
        values = np.empty((rows, lanes, self.n_bins // 2))
        values[:, :, 0] = start[:, 0]
        np.multiply(
            running[:, :, 2:-1:2], self.widths[:, None, :], out=values[:, :, 1:]
        )
        # Overlapping spans leave ~1-ulp fold residue after they all
        # end; the exact integer span count pins idle intervals to a
        # rate of exactly zero (and makes them exactly flat).
        np.copyto(values[:, :, 1:], 0.0, where=self.idle[:, None, :])
        values = values.cumsum(axis=2)
        ends = np.empty((rows, lanes, 3))
        ends[:, :, 0] = values[:, :, -1]
        ends[:, :, 2] = running[:, :, -1]
        # Guard against tiny negative drift from float cancellation.
        values = np.maximum.accumulate(
            np.maximum(values, start[:, 1][:, None]), axis=2
        )
        ends[:, :, 1] = values[:, :, -1]
        return values, ends


def _accrual(
    live: np.ndarray, slot_groups: dict[int, np.ndarray]
) -> tuple[list[str], list[tuple]]:
    """How a block's counters fold, read off which noise slots are
    nonzero: the names that accrue nothing (flat series), and the rest
    grouped by breakpoint grid as ``(names, kind, cols, slots)`` —
    counters of one demand type whose every amount is nonzero share the
    type's grid (``cols`` is None), a counter with zero amounts has its
    own over the spans ``cols`` that do accrue; ``slots[c]`` are counter
    *c*'s amount slots on that grid."""
    idle: list[str] = []
    groups: list[tuple] = []
    for kind, group_bases in slot_groups.items():
        names = _KIND_COUNTERS[kind]
        slots = group_bases + np.arange(1, len(names) + 1)[:, None]
        accrues = live[slots]
        full = []
        for lane, count in enumerate(accrues.sum(axis=1).tolist()):
            if count == group_bases.size:
                full.append(lane)
            elif count:
                cols = np.flatnonzero(accrues[lane])
                groups.append(((names[lane],), kind, cols, slots[lane : lane + 1, cols]))
            else:
                idle.append(names[lane])
        if full:
            groups.append((tuple(names[lane] for lane in full), kind, None, slots[full]))
    return idle, groups


def _by_row(array: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(array, order, axis=1)`` for a C-contiguous
    2-D array, without its per-call overhead."""
    rows, width = array.shape
    return array.ravel()[order + np.arange(0, rows * width, width)[:, None]]


def _clamped_fold(level: float, deltas: np.ndarray) -> np.ndarray:
    """Running level of one row whose fold clamps at zero.

    Between clamps the fold is a plain cumulative sum, so the loop runs
    once per *clamp*, not once per delta, and each segment's ``cumsum``
    reproduces the scalar left fold bit for bit.
    """
    folded = np.empty(deltas.size)
    start = 0
    while start < deltas.size:
        seg = np.cumsum(np.concatenate(([level], deltas[start:])))[1:]
        below = np.flatnonzero(seg < 0.0)
        if not below.size:
            folded[start:] = seg
            break
        cut = int(below[0])
        folded[start : start + cut] = seg[:cut]
        folded[start + cut] = 0.0
        level = 0.0
        start += cut + 1
    return folded


def _step_series_arrays(
    times: np.ndarray, values: np.ndarray, t_lo: float, t_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Piecewise-constant series from ``(rows, m)`` ``(time, new_level)``
    steps, as ``(times, values)`` row arrays.

    Row by row: steps sort by ``(time, level)``; the series opens at
    ``t_lo`` with the first step's level and closes at ``max(t_hi, last
    step time)``.  Steps at absolute time zero only set the opening
    level; steps at any later time emit the level just before and just
    after them — including steps exactly at a window's ``t_lo``, which
    an uninterrupted run (where that instant is interior) would have
    emitted too.
    """
    rows = len(times)
    order = np.lexsort((values, times))
    times = _by_row(times, order)
    values = _by_row(values, order)
    keep = times > 0.0
    sizes = keep.sum(axis=1)
    k = int(sizes[0])
    if (sizes != k).any():
        raise _Ragged(sizes)
    kept_t = times[keep].reshape(rows, k)
    prev = np.empty_like(values)
    prev[:, 0] = values[:, 0]
    prev[:, 1:] = values[:, :-1]
    out_t = np.empty((rows, 2 * k + 2))
    out_v = np.empty((rows, 2 * k + 2))
    out_t[:, 0] = t_lo
    out_v[:, 0] = values[:, 0]
    out_t[:, 1:-1:2] = kept_t
    out_t[:, 2:-1:2] = kept_t
    out_v[:, 1:-1:2] = prev[keep].reshape(rows, k)
    out_v[:, 2:-1:2] = values[keep].reshape(rows, k)
    out_t[:, -1] = np.maximum(t_hi, kept_t[:, -1] if k else t_lo)
    out_v[:, -1] = values[:, -1]
    return out_t, out_v
