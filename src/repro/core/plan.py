"""Emulation plans: the bridge from a profile to atom workloads.

A plan is the ordered list of per-sample resource quanta the emulator
will replay, held as columns (:class:`PlanColumns`: one array per
resource, one entry per sample) so that building, tuning and packing a
plan cost array operations, not a Python pass per sample.  Building it
from a profile preserves two invariants the paper's fidelity rests on
(§4 and §4.4):

* **conservation** — per resource, the plan's total equals the profile's
  recorded total (emulation "attempts to consume the same amount of
  system resources as the original application");
* **order** — plan samples appear exactly in profile sample order
  ("the sample ordering is an essential element of the fidelity").

Plans are also the malleability surface (requirement E.3): they can be
rescaled per resource dimension, re-gridded, or translated into a
simulation workload for any target machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator, NamedTuple

import numpy as np

from repro.atoms.base import AtomWork
from repro.core.config import SynapseConfig
from repro.core.errors import EmulationError
from repro.core.samples import Profile
from repro.kernels.registry import get_kernel
from repro.sim.demands import check_compute, check_io, check_memory, check_network
from repro.sim.packed import PackedWorkload
from repro.sim.resource import MachineSpec
from repro.telemetry.spans import span

__all__ = [
    "PlanSample",
    "PlanColumns",
    "EmulationPlan",
    "BuildSettings",
    "EMULATOR_STARTUP_SLEEP",
    "EMULATOR_STARTUP_INSTRUCTIONS",
]

#: Emulator startup delay components (§5 E.2: "the Synapse Emulator
#: startup delay (~1 sec)"): mostly waiting on the profile fetch and
#: interpreter spin-up (I/O bound, few cycles) ...
EMULATOR_STARTUP_SLEEP = 0.9
#: ... plus a small amount of plan-preparation compute, at startup IPC.
EMULATOR_STARTUP_INSTRUCTIONS = 5.0e7
#: Resident footprint of the emulator driver ("multiple Python instances",
#: §4.5 "Overheads"; the profiler itself uses ~150 MB).
EMULATOR_BASE_RSS = 150 << 20


@dataclass(frozen=True)
class PlanSample:
    """One replay quantum: everything sample ``index`` asks the atoms for."""

    index: int
    work: AtomWork


#: The quanta of an :class:`~repro.atoms.base.AtomWork`, in field order,
#: with the profile metric each is read from.  The first two are float
#: quantities; the rest are byte counts, truncated to integers.
_QUANTA = (
    ("cycles", "cpu.cycles_used"),
    ("flops", "cpu.flops"),
    ("alloc_bytes", "mem.allocated"),
    ("free_bytes", "mem.freed"),
    ("read_bytes", "io.bytes_read"),
    ("write_bytes", "io.bytes_written"),
    ("sent_bytes", "net.bytes_written"),
    ("received_bytes", "net.bytes_read"),
)
_N_FLOAT = 2
#: Largest value each quantum may hold: any finite float, or an int64.
_LIMITS = np.array([np.inf] * _N_FLOAT + [2.0**63] * (len(_QUANTA) - _N_FLOAT))


def _byte_counts(values: np.ndarray, name: str) -> np.ndarray:
    """Byte counts as int64; float ones truncate as ``int()`` does,
    after checking that every one of them is a number an int64 holds
    (``astype`` would wrap the others silently)."""
    if values.dtype.kind == "f" and not (np.abs(values) < 2.0**63).all():
        raise EmulationError(f"{name}: byte counts must be finite and below 2**63")
    return values.astype(np.int64, copy=False)


def _left_sums(column: np.ndarray, width: int) -> np.ndarray:
    """Sums of every ``width`` consecutive entries of ``column``, each
    accumulated left to right from zero as ``AtomWork.__add__`` chains
    do (``cumsum`` is sequential; ``sum``/``reduceat`` add floats
    pairwise).  The last chunk may be short: its padding adds zeros."""
    if column.dtype.kind == "i" and column.size:
        if max(-int(column.min()), int(column.max())) * min(width, column.size) >= 2**63:
            raise EmulationError("summed byte counts must stay below 2**63")
    steps = np.zeros((-(-column.size // width), width + 1), dtype=column.dtype)
    steps[:, 1:].flat[: column.size] = column
    return steps.cumsum(axis=1)[:, -1]


class PlanColumns:
    """The quanta of a plan: the sample ``index`` and one column per
    :class:`~repro.atoms.base.AtomWork` field (``cycles`` and ``flops``
    float64, the byte counts int64), all of one length.

    Reads like the ``list[PlanSample]`` it replaces — indexing, slicing,
    iteration, ``len`` and ``==`` hand out :class:`PlanSample` /
    :class:`AtomWork` objects built on demand.
    """

    def __init__(self, index: Any, *quanta: Any) -> None:
        self.index = np.asarray(index, dtype=np.int64)
        if len(quanta) != len(_QUANTA):
            raise EmulationError(f"a plan has {len(_QUANTA)} quanta columns")
        for position, ((name, _), column) in enumerate(zip(_QUANTA, quanta)):
            if position < _N_FLOAT:
                column = np.asarray(column, dtype=np.float64)
            else:
                column = _byte_counts(np.asarray(column), name)
            if column.shape != self.index.shape or column.ndim != 1:
                raise EmulationError(f"plan column {name!r} does not match the index")
            setattr(self, name, column)

    @classmethod
    def from_samples(cls, samples: Iterable[PlanSample]) -> "PlanColumns":
        """Columns of an explicit list of plan samples."""
        samples = list(samples)
        works = [sample.work for sample in samples]
        return cls(
            [sample.index for sample in samples],
            *([getattr(work, name) for work in works] for name, _ in _QUANTA),
        )

    def quanta(self) -> tuple[np.ndarray, ...]:
        """The eight quanta columns, in ``AtomWork`` field order."""
        return tuple(getattr(self, name) for name, _ in _QUANTA)

    def rows(self) -> Iterator[tuple]:
        """``(index, cycles, flops, alloc_bytes, ...)`` per sample, as
        Python numbers."""
        return zip(self.index.tolist(), *(col.tolist() for col in self.quanta()))

    def __len__(self) -> int:
        return self.index.size

    def __iter__(self) -> Iterator[PlanSample]:
        for index, *quanta in self.rows():
            yield PlanSample(index, AtomWork(*quanta))

    def __getitem__(self, item: int | slice) -> PlanSample | list[PlanSample]:
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(len(self)))]
        return PlanSample(
            int(self.index[item]), AtomWork(*(col[item].item() for col in self.quanta()))
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PlanColumns):
            return np.array_equal(self.index, other.index) and all(
                np.array_equal(a, b) for a, b in zip(self.quanta(), other.quanta())
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<plan columns n={len(self)}>"


class BuildSettings(NamedTuple):
    """What :meth:`EmulationPlan.build_packed_workload` reads of a
    config, resolved against the plan (:meth:`EmulationPlan.build_settings`):
    one plan builds equal workloads under configs with equal settings."""

    compute_kernel: str
    threads: int
    paradigm: str
    filesystem: str
    #: Stalled per used cycle from ``efficiency_target``, or ``None``.
    stall_ratio: float | None
    cpu_load: float
    disk_load: float
    #: Bytes held resident on top of the emulator's own footprint.
    mem_load: int
    read_block: int
    write_block: int
    mem_block: int
    net_block: int


@dataclass
class EmulationPlan:
    """Ordered atom workloads derived from one profile.

    ``samples`` is held as :class:`PlanColumns`; a ``list[PlanSample]``
    handed to the constructor is converted.
    """

    samples: PlanColumns
    command: str = ""
    tags: tuple[str, ...] = ()
    source_machine: dict[str, Any] = field(default_factory=dict)
    sample_rate: float = 1.0
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.samples, PlanColumns):
            self.samples = PlanColumns.from_samples(self.samples)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_profile(cls, profile: Profile, config: SynapseConfig | None = None) -> "EmulationPlan":
        """Translate a profile's samples into replay quanta.

        Counter deltas can carry tiny negative noise (unsynchronised
        watcher clocks); they are clamped at zero (NaN too), which keeps
        the conservation error bounded by the noise floor.  A quantum
        that is infinite, or a byte count no int64 holds, is an error.
        """
        samples = profile.samples
        if not len(samples):
            raise EmulationError("cannot build an emulation plan from an empty profile")
        table = np.array([samples.column(metric) for _, metric in _QUANTA])
        table = np.where(table > 0.0, table, 0.0)
        unfit = table >= _LIMITS[:, None]
        if unfit.any():
            column, row = np.argwhere(unfit)[0].tolist()
            raise EmulationError(
                f"sample {samples.index[row]}: {_QUANTA[column][1]} = "
                f"{table[column, row]!r} is not a quantum that can be replayed"
            )
        info: dict[str, Any] = {
            "source_tx": profile.tx,
            "source_samples": len(samples),
        }
        # Block sizes inferred by the experimental blktrace watcher (§6):
        # carried along so "auto" block-size emulation can use them.
        for key in ("io.block_size_read_mean", "io.block_size_write_mean"):
            if key in profile.statics:
                info[key] = float(profile.statics[key])
        return cls(
            samples=PlanColumns(
                samples.index,
                *table[:_N_FLOAT],
                *table[_N_FLOAT:].astype(np.int64),
            ),
            command=profile.command,
            tags=profile.tags,
            source_machine=dict(profile.machine),
            sample_rate=profile.sample_rate,
            info=info,
        )

    # -- queries ---------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        """Number of replay quanta."""
        return len(self.samples)

    def totals(self) -> AtomWork:
        """Summed resource consumption across all plan samples."""
        quanta = self.samples.quanta()
        # Floats fold left to right from zero (``cumsum`` is sequential);
        # byte counts add as Python integers.
        return AtomWork(
            *(float(np.cumsum((0.0, *col.tolist()))[-1]) for col in quanta[:_N_FLOAT]),
            *(sum(col.tolist()) for col in quanta[_N_FLOAT:]),
        )

    # -- malleability (requirement E.3) ---------------------------------------

    def scaled(
        self,
        cpu: float = 1.0,
        io: float = 1.0,
        mem: float = 1.0,
        net: float = 1.0,
    ) -> "EmulationPlan":
        """Rescale resource dimensions (tuning beyond the original app)."""
        if min(cpu, io, mem, net) < 0:
            raise EmulationError("scale factors must be non-negative")
        s = self.samples
        scaled = PlanColumns(
            s.index,
            s.cycles * cpu,
            s.flops * cpu,
            s.alloc_bytes * mem,
            s.free_bytes * mem,
            s.read_bytes * io,
            s.write_bytes * io,
            s.sent_bytes * net,
            s.received_bytes * net,
        )
        plan = replace(self, samples=scaled)
        plan.info = dict(self.info, scaled={"cpu": cpu, "io": io, "mem": mem, "net": net})
        return plan

    def regrid(self, factor: int) -> "EmulationPlan":
        """Merge every ``factor`` consecutive samples into one.

        This is the Fig 2 sampling-rate knob in reverse: a coarser grid
        removes serialisation points, potentially increasing concurrency
        speed-up during replay.  Totals are preserved exactly.
        """
        if factor < 1:
            raise EmulationError("regrid factor must be >= 1")
        merged = [_left_sums(col, factor) for col in self.samples.quanta()]
        plan = replace(self, samples=PlanColumns(np.arange(merged[0].size), *merged))
        plan.sample_rate = self.sample_rate / factor
        plan.info = dict(self.info, regrid=factor)
        return plan

    # -- configuration resolution ---------------------------------------------

    def effective_config(self, config: SynapseConfig) -> SynapseConfig:
        """Resolve ``"auto"`` block sizes against profiled block sizes.

        When the profile was taken with the blktrace watcher, the plan
        carries byte-weighted mean block sizes; ``"auto"`` picks those up
        (§6 future work).  Without profiled data, ``"auto"`` falls back
        to 1 MB — the conservative large-block assumption of §4.2.
        """
        changes: dict[str, Any] = {}
        if config.io_block_size_read == "auto":
            changes["io_block_size_read"] = int(
                self.info.get("io.block_size_read_mean", 1 << 20)
            )
        if config.io_block_size_write == "auto":
            changes["io_block_size_write"] = int(
                self.info.get("io.block_size_write_mean", 1 << 20)
            )
        return config.replace(**changes) if changes else config

    # -- simulation-plane translation ---------------------------------------------

    def build_settings(self, config: SynapseConfig) -> BuildSettings:
        """The values :meth:`build_packed_workload` builds with, read from
        ``config`` once ``"auto"`` block sizes are resolved against this
        plan (:meth:`effective_config`)."""
        config = self.effective_config(config)
        threads, paradigm = max(config.openmp_threads, 1), "openmp"
        if config.mpi_processes > 1:
            threads, paradigm = config.mpi_processes, "mpi"
        # CPU-efficiency targeting (Table 1: partially supported, manual):
        # efficiency = used/(used+stalled)  =>  stalled/used = 1/eff - 1.
        stall_ratio = None
        if config.efficiency_target is not None:
            stall_ratio = 1.0 / config.efficiency_target - 1.0
        return BuildSettings(
            compute_kernel=config.compute_kernel,
            threads=threads,
            paradigm=paradigm,
            filesystem=config.io_filesystem,
            stall_ratio=stall_ratio,
            cpu_load=config.cpu_load,
            disk_load=config.disk_load,
            mem_load=int(config.mem_load),
            read_block=int(config.io_block_size_read),
            write_block=int(config.io_block_size_write),
            mem_block=int(config.mem_block_size),
            net_block=int(config.net_block_size),
        )

    def build_packed_workload(
        self, config: SynapseConfig, machine: MachineSpec | None = None
    ) -> PackedWorkload:
        """Express this plan as a packed simulation workload (Fig 2
        semantics), under ``config``'s :meth:`build_settings`.

        Each non-empty plan sample becomes one phase; each atom with work
        becomes a concurrent stream inside it.  Compute demands carry the
        selected kernel's workload class and the target cycle budget, so
        the machine's calibration bias applies exactly as on real
        hardware.  The build is one Python pass over the samples into
        plain row lists, turned into columns at the end (see
        :meth:`_build`): a plan of thousands of samples never
        materialises per-demand objects, nor calls a builder per
        demand.  The build does not depend on ``machine``, so an
        emulation on several machines builds once (and the run service
        lays the result out once for all of them).  Emits one
        ``emulate.compile`` span (``samples=``, ``demands=``).

        The artificial loads of §4.3 are built in here.  ``cpu_load``
        adds a ``cpu-load`` stream burning that fraction of each sample's
        cycles.  ``disk_load`` adds a ``disk-load`` stream writing that
        fraction of each sample's read plus written bytes to the same
        filesystem; the engine shares a filesystem's bandwidth by stream
        count, so every ``disk_load > 0`` takes the same share, as extra
        workers do for ``cpu_load``.  ``mem_load`` raises the workload's
        ``base_rss``: memory held for the whole run, with no demand.
        """
        del machine
        with span("emulate.compile", samples=self.n_samples) as sp:
            workload = self._build(self.build_settings(config))
            sp.set(demands=workload.n)
        return workload

    def _build(self, settings: BuildSettings) -> PackedWorkload:
        """The workload of :meth:`build_packed_workload`, in one pass
        over the samples into plain per-kind row lists, which
        :meth:`PackedWorkload.from_rows` unzips into columns (as it does
        for :func:`~repro.sim.packed.pack_workload`).  Columns, name
        tables and errors are those
        :class:`~repro.sim.packed.PackedBuilder` makes of the same
        demands appended one by one (the oracle of
        ``tests/core/test_plan_compile.py``): each demand goes through
        its kind's one check in :mod:`repro.sim.demands` as it is made,
        so the first demand that fails raises, and a bad setting of a
        kind of demand the plan never makes (a zero read block with no
        I/O sample) raises nothing.
        """
        kernel = get_kernel(settings.compute_kernel)
        command = f"synapse-emulate {self.command}"
        # The loop reads plain locals: it runs once per plan sample.
        threads, paradigm = settings.threads, settings.paradigm
        stall_ratio, load_fraction = settings.stall_ratio, settings.cpu_load
        disk_load, fs = settings.disk_load, settings.filesystem
        workload_class = kernel.workload_class
        read_block, write_block = settings.read_block, settings.write_block
        mem_block, net_block = settings.mem_block, settings.net_block

        # The driver stream of the startup phase: sleep, then compute.
        c_rows: list[tuple] = [(
            1, EMULATOR_STARTUP_INSTRUCTIONS, None, "app.startup", 0.0, 1,
            "serial", None,
        )]
        i_rows: list[tuple] = []
        m_rows: list[tuple] = []
        n_rows: list[tuple] = []
        stream_phase, stream_first = [0], [0]
        n, n_phases = 2, 1
        for _, cycles, flops, alloc, freed, read, written, sent, received in (
            self.samples.rows()
        ):
            # ``AtomWork.empty``: nothing but (possibly) flops.
            if not (cycles or alloc or freed or read or written or sent or received):
                continue
            phase = n_phases
            n_phases += 1
            if cycles > 0:
                fpi = min(1.0, flops / cycles)
                check_compute(0.0, fpi, threads, cycles, stall_ratio)
                stream_phase.append(phase)
                stream_first.append(n)
                c_rows.append(
                    (n, 0.0, cycles, workload_class, fpi, threads, paradigm, stall_ratio)
                )
                n += 1
                if load_fraction > 0:
                    # Artificial background load (§4.3): co-scheduled CPU
                    # work proportional to the sample's own cycle budget.
                    load = cycles * load_fraction
                    check_compute(0.0, 0.0, 1, load, None)
                    stream_phase.append(phase)
                    stream_first.append(n)
                    c_rows.append((n, 0.0, load, workload_class, 0.0, 1, "serial", None))
                    n += 1
            if read > 0 or written > 0:
                stream_phase.append(phase)
                stream_first.append(n)
                if read > 0:
                    check_io(read, 0, read_block)
                    i_rows.append((n, read, 0, read_block, fs))
                    n += 1
                if written > 0:
                    check_io(0, written, write_block)
                    i_rows.append((n, 0, written, write_block, fs))
                    n += 1
                if disk_load > 0:
                    # Its I/O twin: writes sized from the sample's own bytes.
                    extra = round((read + written) * disk_load)
                    check_io(0, extra, write_block)
                    stream_phase.append(phase)
                    stream_first.append(n)
                    i_rows.append((n, 0, extra, write_block, fs))
                    n += 1
            if alloc > 0 or freed > 0:
                check_memory(alloc, freed, mem_block)
                stream_phase.append(phase)
                stream_first.append(n)
                m_rows.append((n, alloc, freed, mem_block))
                n += 1
            if sent > 0 or received > 0:
                check_network(sent, received, net_block)
                stream_phase.append(phase)
                stream_first.append(n)
                n_rows.append((n, sent, received, net_block))
                n += 1
        return PackedWorkload.from_rows(
            command,
            EMULATOR_BASE_RSS + settings.mem_load,
            {"emulation_of": self.command, "kernel": kernel.name, "command": command},
            n,
            n_phases,
            # Streams tile the demands in order: each ends where the next starts.
            (stream_phase, stream_first, stream_first[1:] + [n]),
            (c_rows, i_rows, m_rows, n_rows, [(0, EMULATOR_STARTUP_SLEEP)]),
        )
