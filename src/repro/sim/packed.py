"""Columnar (struct-of-arrays) workload representation.

A :class:`PackedWorkload` holds the exact information content of a
:class:`~repro.sim.workload.SimWorkload` — demand parameters, stream
segmentation, phase barriers — as flat NumPy columns instead of
per-demand Python objects.  It is the zero-object input format of the
engine's hot path: :meth:`repro.sim.engine.Engine.run` binds the columns
to a machine model with a handful of vectorised lookups, so a
10⁶-demand run never materialises 10⁶ ``Demand`` instances.

Who builds the columns:

* :func:`pack_workload` compiles an object workload in one pass: every
  application model's ``build_packed`` is the pack of its
  ``build_workload``, and ``Engine.layout`` packs object workloads
  itself.  An emulation plan's ``build_packed_workload`` makes one pass
  of its own over the plan's samples; both hand their plain row lists
  to :meth:`PackedWorkload.from_rows`;
* :class:`PackedBuilder` appends demands with the same
  phase/stream/demand vocabulary as ``SimWorkload``, one call per
  demand;
* :meth:`PackedBuilder.compute_many` & friends append whole column
  chunks at once, and :mod:`repro.traffic.workload` fills the columns
  itself: bulk request traffic and benchmarks build million-demand
  workloads in milliseconds.

Every path runs each demand through its kind's one check in
:mod:`repro.sim.demands` once: a ``*Demand`` object when it is
constructed, the scalar appends and the plan compile per demand, the
``*_many`` appends on each column's minimum and maximum (the rules are
ranges, and ``min`` / ``max`` carry a NaN along).  The traffic plane's
columns scale checked :class:`~repro.predict.models.DemandVector`
numbers.

String-valued demand attributes (workload class, paradigm, filesystem)
are interned into small name tables with integer codes per demand, so
machine-model resolution happens once per distinct name instead of once
per demand.  ``NetworkDemand.endpoint`` is not represented: the engine
ignores it (all simulated traffic shares one machine-level link).

Packed workloads are plain picklable dataclasses of arrays: they ship
through the run-service pool exactly like object workloads do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.errors import WorkloadError
from repro.sim.demands import (
    ComputeDemand,
    IODemand,
    MemoryDemand,
    NetworkDemand,
    SleepDemand,
    check_compute,
    check_io,
    check_memory,
    check_network,
    check_sleep,
)
from repro.sim.workload import SimWorkload
from repro.telemetry.spans import span

__all__ = ["PackedWorkload", "PackedBuilder", "pack_workload"]

#: Demand-kind codes (the engine's ``_COMPUTE`` … ``_SLEEP``).
KIND_COMPUTE, KIND_IO, KIND_MEM, KIND_NET, KIND_SLEEP = range(5)

_EMPTY_IDX = np.zeros(0, dtype=np.intp)
_EMPTY_I64 = np.zeros(0, dtype=np.int64)
_EMPTY_F64 = np.zeros(0, dtype=np.float64)


@dataclass
class PackedWorkload:
    """A complete workload as flat per-type demand columns.

    Demands are numbered globally in execution order (phase by phase,
    stream by stream, serially within a stream).  ``kinds[i]`` is the
    demand-kind code of demand *i*; the per-type ``*_pos`` arrays hold
    the global indices of that type's demands, and the companion columns
    hold their attributes in the same order.  Streams are contiguous
    index ranges ``[stream_first[s], stream_end[s])`` belonging to phase
    ``stream_phase[s]``; phases are barriers exactly as in
    :class:`~repro.sim.workload.SimWorkload`.
    """

    name: str
    base_rss: int = 2 << 20
    metadata: dict[str, Any] = field(default_factory=dict)

    n: int = 0
    n_phases: int = 0
    kinds: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    stream_phase: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    stream_first: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    stream_end: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)

    #: Interned string tables; per-demand columns store codes into these.
    class_names: tuple[str, ...] = ()
    paradigm_names: tuple[str, ...] = ()
    fs_names: tuple[str, ...] = ()

    # compute columns
    c_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    c_instr: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    #: Calibrated cycle targets; NaN encodes "derive from instructions".
    c_cc: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    c_class: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    c_fpi: np.ndarray = field(default_factory=lambda: _EMPTY_F64)
    c_threads: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    c_paradigm: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    #: Stall-ratio overrides; NaN encodes "use the class default".
    c_sr: np.ndarray = field(default_factory=lambda: _EMPTY_F64)

    # io columns
    i_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    i_read: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    i_written: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    i_block: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    i_fs: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)

    # memory columns
    m_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    m_alloc: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    m_free: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    m_block: np.ndarray = field(default_factory=lambda: _EMPTY_I64)

    # network columns
    net_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    net_sent: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    net_recv: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    net_block: np.ndarray = field(default_factory=lambda: _EMPTY_I64)

    # sleep columns
    s_pos: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    s_secs: np.ndarray = field(default_factory=lambda: _EMPTY_F64)

    @property
    def n_demands(self) -> int:
        """Total number of demands (mirrors ``SimWorkload.n_demands``)."""
        return self.n

    @property
    def empty(self) -> bool:
        """Whether the workload holds no demands."""
        return self.n == 0

    @classmethod
    def from_rows(
        cls,
        name: str,
        base_rss: int,
        metadata: dict[str, Any],
        n: int,
        n_phases: int,
        streams: tuple[list[int], list[int], list[int]],
        rows: tuple[list[tuple], ...],
    ) -> "PackedWorkload":
        """The columns of one pass's plain lists.

        ``streams`` holds the phase, first demand and end demand of
        every stream; ``rows`` the compute, I/O, memory, network and
        sleep demands, one tuple each in demand order, with the fields
        of the ``*Demand`` class in :func:`pack_workload`'s order
        (names as strings, ``None`` for an unset optional).  Unzipped
        field by field: ``None`` optionals become NaN in their float64
        columns (a column nobody set is filled at once: NumPy's
        per-element ``None`` conversion is the slow one), names become
        codes in first-seen order — the columns and name tables
        :class:`PackedBuilder` makes of the same demands.
        """
        columns: dict[str, Any] = {}
        kinds = np.zeros(n, dtype=_I64)
        for kind_code, (kind_rows, fields) in enumerate(zip(rows, _FIELDS)):
            if not kind_rows:
                continue
            for (column, dtype), values in zip(fields, zip(*kind_rows)):
                if isinstance(dtype, str):
                    codes = {each: code for code, each in enumerate(dict.fromkeys(values))}
                    columns[dtype] = tuple(codes)
                    columns[column] = np.fromiter(
                        map(codes.__getitem__, values), _IDX, len(values)
                    )
                elif values[0] is None and values.count(None) == len(values):
                    columns[column] = np.full(len(values), np.nan)
                else:
                    columns[column] = np.array(values, dtype=dtype)
            kinds[columns[fields[0][0]]] = kind_code
        stream_phase, stream_first, stream_end = streams
        return cls(
            name=name,
            base_rss=base_rss,
            metadata=metadata,
            n=n,
            n_phases=n_phases,
            kinds=kinds,
            stream_phase=np.array(stream_phase, dtype=_IDX),
            stream_first=np.array(stream_first, dtype=_IDX),
            stream_end=np.array(stream_end, dtype=_IDX),
            **columns,
        )

    def column_arrays(self) -> dict[str, np.ndarray]:
        """All array columns by field name (tests compare these)."""
        return {
            name: getattr(self, name)
            for name in (
                "kinds", "stream_phase", "stream_first", "stream_end",
                "c_pos", "c_instr", "c_cc", "c_class", "c_fpi",
                "c_threads", "c_paradigm", "c_sr",
                "i_pos", "i_read", "i_written", "i_block", "i_fs",
                "m_pos", "m_alloc", "m_free", "m_block",
                "net_pos", "net_sent", "net_recv", "net_block",
                "s_pos", "s_secs",
            )
        }

    def nbytes(self) -> int:
        """Total array payload size in bytes (the columnar footprint)."""
        return sum(column.nbytes for column in self.column_arrays().values())


class _Interner:
    """String → small-int code table preserving first-seen order."""

    __slots__ = ("codes",)

    def __init__(self) -> None:
        self.codes: dict[str, int] = {}

    def __call__(self, name: str) -> int:
        code = self.codes.get(name)
        if code is None:
            code = len(self.codes)
            self.codes[name] = code
        return code

    def names(self) -> tuple[str, ...]:
        return tuple(self.codes)


class PackedBuilder:
    """Incremental constructor of :class:`PackedWorkload` columns.

    Mirrors the object API's building vocabulary::

        b = PackedBuilder("my-app")
        b.phase("startup")
        b.stream("main")
        b.compute(instructions=1e9, workload_class="app.md")
        b.io(bytes_read=1 << 20, filesystem="lustre")
        packed = b.build()

    ``phase``/``stream`` only delimit segments (names are accepted for
    symmetry with ``SimWorkload`` but not stored).  Appending a demand
    with no open stream opens one implicitly (and a phase if needed).
    The ``*_many`` methods append whole column chunks to the current
    stream in one call.
    """

    def __init__(
        self,
        name: str,
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.base_rss = base_rss
        self.metadata = dict(metadata) if metadata else {}
        self._n = 0
        self._n_phases = 0
        self._kinds: list[int] = []
        self._stream_phase: list[int] = []
        self._stream_first: list[int] = []
        self._stream_end: list[int] = []
        self._stream_open = False
        self._classes = _Interner()
        self._paradigms = _Interner()
        self._fs = _Interner()
        self._c: dict[str, list] = {k: [] for k in (
            "pos", "instr", "cc", "cls", "fpi", "threads", "paradigm", "sr")}
        self._i: dict[str, list] = {k: [] for k in (
            "pos", "read", "written", "block", "fs")}
        self._m: dict[str, list] = {k: [] for k in ("pos", "alloc", "free", "block")}
        self._net: dict[str, list] = {k: [] for k in ("pos", "sent", "recv", "block")}
        self._s: dict[str, list] = {k: [] for k in ("pos", "secs")}

    # -- segmentation -------------------------------------------------------

    def phase(self, name: str = "") -> "PackedBuilder":
        """Open a new phase (a barrier); returns self for chaining."""
        del name
        self._close_stream()
        self._n_phases += 1
        return self

    def stream(self, name: str = "") -> "PackedBuilder":
        """Open a new stream in the current phase; returns self."""
        del name
        if self._n_phases == 0:
            self._n_phases = 1
        self._close_stream()
        self._stream_phase.append(self._n_phases - 1)
        self._stream_first.append(self._n)
        self._stream_open = True
        return self

    def _close_stream(self) -> None:
        if self._stream_open:
            self._stream_end.append(self._n)
            self._stream_open = False

    def _slot(self) -> int:
        """Global index for the next demand (opens segments as needed)."""
        if not self._stream_open:
            self.stream()
        index = self._n
        self._n = index + 1
        return index

    def _bulk_slots(self, count: int) -> int:
        if not self._stream_open:
            self.stream()
        first = self._n
        self._n = first + count
        return first

    # -- scalar appends -----------------------------------------------------

    def compute(
        self,
        instructions: float = 0.0,
        workload_class: str = "app.generic",
        flops_per_instruction: float = 0.0,
        threads: int = 1,
        paradigm: str = "serial",
        calibrated_cycles: float | None = None,
        stall_ratio: float | None = None,
    ) -> "PackedBuilder":
        """Append one compute demand (``ComputeDemand`` semantics)."""
        check_compute(
            instructions, flops_per_instruction, threads, calibrated_cycles, stall_ratio
        )
        c = self._c
        c["pos"].append(self._slot())
        self._kinds.append(KIND_COMPUTE)
        c["instr"].append(float(instructions))
        c["cc"].append(np.nan if calibrated_cycles is None else float(calibrated_cycles))
        c["cls"].append(self._classes(workload_class))
        c["fpi"].append(float(flops_per_instruction))
        c["threads"].append(int(threads))
        c["paradigm"].append(self._paradigms(paradigm))
        c["sr"].append(np.nan if stall_ratio is None else float(stall_ratio))
        return self

    def io(
        self,
        bytes_read: int = 0,
        bytes_written: int = 0,
        block_size: int = 1 << 20,
        filesystem: str = "local",
    ) -> "PackedBuilder":
        """Append one I/O demand (``IODemand`` semantics)."""
        check_io(bytes_read, bytes_written, block_size)
        i = self._i
        i["pos"].append(self._slot())
        self._kinds.append(KIND_IO)
        i["read"].append(int(bytes_read))
        i["written"].append(int(bytes_written))
        i["block"].append(int(block_size))
        i["fs"].append(self._fs(filesystem))
        return self

    def memory(
        self, allocate: int = 0, free: int = 0, block_size: int = 1 << 20
    ) -> "PackedBuilder":
        """Append one memory demand (``MemoryDemand`` semantics)."""
        check_memory(allocate, free, block_size)
        m = self._m
        m["pos"].append(self._slot())
        self._kinds.append(KIND_MEM)
        m["alloc"].append(int(allocate))
        m["free"].append(int(free))
        m["block"].append(int(block_size))
        return self

    def network(
        self, bytes_sent: int = 0, bytes_received: int = 0, block_size: int = 64 << 10
    ) -> "PackedBuilder":
        """Append one network demand (``NetworkDemand`` semantics)."""
        check_network(bytes_sent, bytes_received, block_size)
        n = self._net
        n["pos"].append(self._slot())
        self._kinds.append(KIND_NET)
        n["sent"].append(int(bytes_sent))
        n["recv"].append(int(bytes_received))
        n["block"].append(int(block_size))
        return self

    def sleep(self, seconds: float) -> "PackedBuilder":
        """Append one sleep demand (``SleepDemand`` semantics)."""
        check_sleep(seconds)
        s = self._s
        s["pos"].append(self._slot())
        self._kinds.append(KIND_SLEEP)
        s["secs"].append(float(seconds))
        return self

    # -- bulk appends -------------------------------------------------------

    def compute_many(
        self,
        instructions: object,
        workload_class: str = "app.generic",
        flops_per_instruction: object = 0.0,
        threads: object = 1,
        paradigm: str = "serial",
        calibrated_cycles: object = None,
        stall_ratio: object = None,
    ) -> "PackedBuilder":
        """Append a chunk of compute demands from arrays/scalars.

        ``instructions`` fixes the chunk length; the remaining numeric
        arguments broadcast (scalars repeat).  ``workload_class`` and
        ``paradigm`` are single names for the whole chunk.
        """
        instr = np.asarray(instructions, dtype=float).ravel()
        count = instr.size
        if count == 0:
            return self
        fpi = np.broadcast_to(np.asarray(flops_per_instruction, dtype=float), (count,))
        thr = np.broadcast_to(np.asarray(threads), (count,))
        cc = sr = None
        if calibrated_cycles is not None:
            cc = np.broadcast_to(np.asarray(calibrated_cycles, dtype=float), (count,))
        if stall_ratio is not None:
            sr = np.broadcast_to(np.asarray(stall_ratio, dtype=float), (count,))
        for extreme in (np.min, np.max):
            check_compute(
                extreme(instr), extreme(fpi), extreme(thr),
                None if cc is None else extreme(cc),
                None if sr is None else extreme(sr),
            )
        first = self._bulk_slots(count)
        c = self._c
        c["pos"].extend(range(first, first + count))
        self._kinds.extend([KIND_COMPUTE] * count)
        c["instr"].extend(instr.tolist())
        c["cc"].extend([np.nan] * count if cc is None else cc.tolist())
        c["cls"].extend([self._classes(workload_class)] * count)
        c["fpi"].extend(fpi.tolist())
        c["threads"].extend(thr.astype(np.int64).tolist())
        c["paradigm"].extend([self._paradigms(paradigm)] * count)
        c["sr"].extend([np.nan] * count if sr is None else sr.tolist())
        return self

    def _transfers(
        self, kind: int, columns: dict[str, list], check: Any,
        first: object, second: object, block_size: object, count: int | None,
    ) -> int:
        """Append a checked chunk of two byte-count columns and a block
        size column (arrays broadcast like NumPy); the demands appended."""
        first, second = np.asarray(first).ravel(), np.asarray(second).ravel()
        if count is None:
            count = max(first.size, second.size)
        if count == 0:
            return 0
        chunk = [
            np.broadcast_to(column if column.size > 1 else column[:1], (count,))
            for column in (first, second, np.asarray(block_size).ravel())
        ]
        for extreme in (np.min, np.max):
            check(*map(extreme, chunk))
        start = self._bulk_slots(count)
        columns["pos"].extend(range(start, start + count))
        self._kinds.extend([kind] * count)
        for key, column in zip(list(columns)[1:], chunk):
            columns[key].extend(column.astype(np.int64).tolist())
        return count

    def io_many(
        self,
        bytes_read: object = 0,
        bytes_written: object = 0,
        block_size: object = 1 << 20,
        filesystem: str = "local",
        count: int | None = None,
    ) -> "PackedBuilder":
        """Append a chunk of I/O demands (arrays broadcast like NumPy)."""
        count = self._transfers(
            KIND_IO, self._i, check_io, bytes_read, bytes_written, block_size, count
        )
        if count:
            self._i["fs"].extend([self._fs(filesystem)] * count)
        return self

    def memory_many(
        self,
        allocate: object = 0,
        free: object = 0,
        block_size: object = 1 << 20,
        count: int | None = None,
    ) -> "PackedBuilder":
        """Append a chunk of memory demands (arrays broadcast like NumPy)."""
        self._transfers(KIND_MEM, self._m, check_memory, allocate, free, block_size, count)
        return self

    def network_many(
        self,
        bytes_sent: object = 0,
        bytes_received: object = 0,
        block_size: object = 64 << 10,
        count: int | None = None,
    ) -> "PackedBuilder":
        """Append a chunk of network demands (arrays broadcast like NumPy)."""
        self._transfers(
            KIND_NET, self._net, check_network, bytes_sent, bytes_received, block_size,
            count,
        )
        return self

    # -- finalisation -------------------------------------------------------

    @property
    def n_demands(self) -> int:
        """Demands appended so far."""
        return self._n

    def build(self) -> PackedWorkload:
        """Freeze the columns into an immutable-by-convention workload."""
        self._close_stream()
        c, i, m, net, s = self._c, self._i, self._m, self._net, self._s
        return PackedWorkload(
            name=self.name,
            base_rss=self.base_rss,
            metadata=self.metadata,
            n=self._n,
            n_phases=self._n_phases,
            kinds=np.asarray(self._kinds, dtype=np.int64),
            stream_phase=np.asarray(self._stream_phase, dtype=np.intp),
            stream_first=np.asarray(self._stream_first, dtype=np.intp),
            stream_end=np.asarray(self._stream_end, dtype=np.intp),
            class_names=self._classes.names(),
            paradigm_names=self._paradigms.names(),
            fs_names=self._fs.names(),
            c_pos=np.asarray(c["pos"], dtype=np.intp),
            c_instr=np.asarray(c["instr"], dtype=np.float64),
            c_cc=np.asarray(c["cc"], dtype=np.float64),
            c_class=np.asarray(c["cls"], dtype=np.intp),
            c_fpi=np.asarray(c["fpi"], dtype=np.float64),
            c_threads=np.asarray(c["threads"], dtype=np.int64),
            c_paradigm=np.asarray(c["paradigm"], dtype=np.intp),
            c_sr=np.asarray(c["sr"], dtype=np.float64),
            i_pos=np.asarray(i["pos"], dtype=np.intp),
            i_read=np.asarray(i["read"], dtype=np.int64),
            i_written=np.asarray(i["written"], dtype=np.int64),
            i_block=np.asarray(i["block"], dtype=np.int64),
            i_fs=np.asarray(i["fs"], dtype=np.intp),
            m_pos=np.asarray(m["pos"], dtype=np.intp),
            m_alloc=np.asarray(m["alloc"], dtype=np.int64),
            m_free=np.asarray(m["free"], dtype=np.int64),
            m_block=np.asarray(m["block"], dtype=np.int64),
            net_pos=np.asarray(net["pos"], dtype=np.intp),
            net_sent=np.asarray(net["sent"], dtype=np.int64),
            net_recv=np.asarray(net["recv"], dtype=np.int64),
            net_block=np.asarray(net["block"], dtype=np.int64),
            s_pos=np.asarray(s["pos"], dtype=np.intp),
            s_secs=np.asarray(s["secs"], dtype=np.float64),
        )


#: The demand classes :func:`pack_workload` dispatches on.
_DEMAND_TYPES = (ComputeDemand, IODemand, MemoryDemand, NetworkDemand, SleepDemand)

_IDX, _I64, _F64 = np.intp, np.int64, np.float64
#: Per kind: the packed column of each field of its row tuples, and the
#: field's dtype — or, for a name column, the name table it interns into.
_C_FIELDS = (
    ("c_pos", _IDX), ("c_instr", _F64), ("c_cc", _F64), ("c_class", "class_names"),
    ("c_fpi", _F64), ("c_threads", _I64), ("c_paradigm", "paradigm_names"),
    ("c_sr", _F64),
)
_I_FIELDS = (
    ("i_pos", _IDX), ("i_read", _I64), ("i_written", _I64), ("i_block", _I64),
    ("i_fs", "fs_names"),
)
_M_FIELDS = (("m_pos", _IDX), ("m_alloc", _I64), ("m_free", _I64), ("m_block", _I64))
_N_FIELDS = (
    ("net_pos", _IDX), ("net_sent", _I64), ("net_recv", _I64), ("net_block", _I64),
)
_S_FIELDS = (("s_pos", _IDX), ("s_secs", _F64))
#: The fields of every kind, in ``KIND_*`` order.
_FIELDS = (_C_FIELDS, _I_FIELDS, _M_FIELDS, _N_FIELDS, _S_FIELDS)


def _demand_type(demand: object) -> type:
    """The demand class a subclass instance packs as."""
    for base in _DEMAND_TYPES:
        if isinstance(demand, base):
            return base
    raise WorkloadError(f"unsupported demand type {type(demand).__name__}")


def pack_workload(workload: SimWorkload) -> PackedWorkload:
    """Compile an object workload into columns (one Python pass).

    The compiled form executes **bit-identically** to the original:
    demand order, stream segmentation and attribute values are preserved
    exactly, so seeded noisy runs of the packed and object forms draw
    the same RNG stream and produce the same record.  The columns and
    name tables are those :class:`PackedBuilder` makes of the same
    demands.  Every ``*Demand`` ran its kind's check when it was
    constructed (:mod:`repro.sim.demands`), so the pass checks nothing.
    """
    with span("engine.pack", workload=workload.name) as sp:
        c_rows: list[tuple] = []
        i_rows: list[tuple] = []
        m_rows: list[tuple] = []
        n_rows: list[tuple] = []
        s_rows: list[tuple] = []
        stream_phase: list[int] = []
        stream_first: list[int] = []
        stream_end: list[int] = []
        n = 0
        for p_idx, phase in enumerate(workload.phases):
            for stream in phase.streams:
                demands = stream.demands
                stream_phase.append(p_idx)
                stream_first.append(n)
                for index, d in enumerate(demands, n):
                    kind = type(d)
                    if kind not in _DEMAND_TYPES:
                        kind = _demand_type(d)
                    if kind is ComputeDemand:
                        c_rows.append((
                            index, d.instructions, d.calibrated_cycles,
                            d.workload_class, d.flops_per_instruction, d.threads,
                            d.paradigm, d.stall_ratio,
                        ))
                    elif kind is IODemand:
                        i_rows.append((
                            index, d.bytes_read, d.bytes_written, d.block_size,
                            d.filesystem,
                        ))
                    elif kind is MemoryDemand:
                        m_rows.append((index, d.allocate, d.free, d.block_size))
                    elif kind is NetworkDemand:
                        n_rows.append(
                            (index, d.bytes_sent, d.bytes_received, d.block_size)
                        )
                    else:
                        s_rows.append((index, d.seconds))
                n += len(demands)
                stream_end.append(n)

        packed = PackedWorkload.from_rows(
            workload.name, workload.base_rss, dict(workload.metadata), n,
            len(workload.phases), (stream_phase, stream_first, stream_end),
            (c_rows, i_rows, m_rows, n_rows, s_rows),
        )
        sp.set(demands=packed.n, nbytes=packed.nbytes())
    return packed
