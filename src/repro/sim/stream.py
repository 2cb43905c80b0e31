"""Incremental (streaming) engine runs with checkpoint/restore.

:class:`EngineStream` turns :class:`~repro.sim.engine.Engine` from a
batch executor into an online one: arrival batches of demands are fed
one at a time, each yielding an incremental :class:`ExecutionRecord`
covering just that batch's window of virtual time, so total memory is
bounded by the largest batch — not the workload.  A million-demand
campaign day can stream through in fixed RSS, suspend itself to a
JSON-safe checkpoint, and resume later (or elsewhere) mid-workload.

Semantics:

* a batch is a complete *phase group* — every batch starts at a phase
  barrier, exactly as consecutive phases of one big workload would;
* record times are **absolute** (batch *k*'s window starts where batch
  *k−1* ended) and counter values **cumulative** across batches;
* the run is bit-identical to executing the concatenated workload in
  one :meth:`Engine.run` call: timelines are left-associated folds, so
  carrying the fold state (virtual time, RSS level/peak, per-counter
  raw/guarded sums, RNG position) continues them exactly.  This also
  holds across a checkpoint/restore boundary — resuming reproduces the
  uninterrupted run bit for bit.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import WorkloadError
from repro.sim.engine import Engine, ExecutionRecord
from repro.sim.noise import NoiseModel
from repro.sim.packed import PackedWorkload, pack_workload
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload
from repro.telemetry.events import get_bus

__all__ = ["EngineStream"]

_CHECKPOINT_VERSION = 1


class EngineStream:
    """One incremental engine run; create via :meth:`Engine.open_stream`."""

    def __init__(
        self,
        engine: Engine,
        name: str = "stream",
        base_rss: int = 2 << 20,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.base_rss = int(base_rss)
        self.metadata = dict(metadata) if metadata else {}
        #: Virtual time reached so far (end of the last batch's window).
        self.t = 0.0
        self.phases_done = 0
        self.batches_done = 0
        self._rss: float | None = None
        self._peak: float | None = None
        #: Per-counter ``(raw sum, guarded sum, running rate)`` fold state.
        self._carries: dict[str, tuple[float, float, float]] = {}

    def feed(self, batch: SimWorkload | PackedWorkload) -> ExecutionRecord:
        """Execute one arrival batch; returns its incremental record.

        The record's series cover ``[previous t, new t]`` in absolute
        virtual time; counters continue their cumulative values, levels
        continue from the carried RSS/peak.  Counters seen in earlier
        batches but idle in this one appear as flat carried series.
        """
        packed = batch if isinstance(batch, PackedWorkload) else pack_workload(batch)
        index = self.batches_done
        metadata = dict(self.metadata)
        metadata.setdefault("workload_name", self.name)
        metadata["stream_batch"] = index
        (record,), _ = self.engine._replay(
            self.engine.prepare(packed),
            [self.engine.noise],
            float(self.base_rss),
            metadata,
            t_start=self.t,
            rss0=self._rss,
            peak0=self._peak,
            initial=self._carries if self._carries else None,
        )
        # The next batch continues from where this one's folds end, so
        # a streamed record is folded at once.
        carries, rss_end, peak_end = record.block.ends
        self.t = record.duration
        self._rss = rss_end[record.row]
        self._peak = peak_end[record.row]
        self._carries = carries[record.row]
        self.phases_done += len(record.phase_bounds)
        self.batches_done = index + 1
        get_bus().event(
            "engine.stream.batch",
            level="debug",
            workload=self.name,
            machine=self.engine.machine.name,
            batch=index,
            demands=packed.n,
            phases=len(record.phase_bounds),
            t_end=self.t,
        )
        return record

    def totals(self) -> dict[str, float]:
        """Cumulative counter totals and peak levels reached so far."""
        out = {name: carry[1] for name, carry in sorted(self._carries.items())}
        if self._peak is not None:
            out["mem.peak"] = self._peak
        out["time.runtime"] = self.t
        return out

    # -- checkpoint / restore ----------------------------------------------

    def checkpoint(self) -> dict[str, Any]:
        """JSON-safe snapshot of the stream's full fold state.

        Size is O(distinct counter names), independent of how many
        demands have been executed.
        """
        return {
            "version": _CHECKPOINT_VERSION,
            "name": self.name,
            "base_rss": self.base_rss,
            "metadata": dict(self.metadata),
            "machine": self.engine.machine.name,
            "t": self.t,
            "phases_done": self.phases_done,
            "batches_done": self.batches_done,
            "rss": self._rss,
            "peak": self._peak,
            "counters": {
                name: list(carry) for name, carry in sorted(self._carries.items())
            },
            "noise": self.engine.noise.state_dict(),
        }

    @classmethod
    def restore(
        cls, state: dict[str, Any], machine: MachineSpec | str | None = None
    ) -> "EngineStream":
        """Rebuild a stream mid-run from :meth:`checkpoint` output.

        ``machine`` defaults to resolving the checkpointed machine name
        from the registry; pass a spec to restore onto an unregistered
        machine.  The restored stream's engine gets a fresh
        :class:`NoiseModel` positioned exactly where the checkpointed
        run's RNG stood, so subsequent batches draw the same noise an
        uninterrupted run would have.
        """
        version = state.get("version")
        if version != _CHECKPOINT_VERSION:
            raise WorkloadError(
                f"cannot restore engine stream checkpoint version {version!r}"
            )
        if machine is None:
            machine = state["machine"]
        if isinstance(machine, str):
            from repro.sim.machines import resolve_machine  # noqa: PLC0415 (cycle)

            machine = resolve_machine(machine)
        engine = Engine(machine, NoiseModel.from_state(state["noise"]))
        stream = cls(
            engine,
            name=state["name"],
            base_rss=state["base_rss"],
            metadata=state["metadata"],
        )
        stream.t = state["t"]
        stream.phases_done = state["phases_done"]
        stream.batches_done = state["batches_done"]
        stream._rss = state["rss"]
        stream._peak = state["peak"]
        stream._carries = {
            name: tuple(carry) for name, carry in state["counters"].items()
        }
        return stream
