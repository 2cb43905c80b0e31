"""Analytical runtime prediction of demand vectors on machine models.

The predictor maps a :class:`~repro.predict.models.DemandVector` onto any
:class:`~repro.sim.resource.MachineSpec` *without* running the simulation
engine: each vector component is costed with the machine's sustained
rates (IPC × clock for compute, latency + bandwidth for I/O, memory and
network), reproducing the paper-companion's analytical placement model.
The formulas are exactly the engine's per-demand costing (the cost
stage of :meth:`repro.sim.engine.Engine.prepare`), so a prediction
equals the noise-free emulated runtime of the same vector — the
property the closed-loop validation in :mod:`repro.predict.validate`
measures.

Two performance features make the predictor usable as a planner inner
loop:

* a digest-keyed LRU cache over ``(vector, machine, filesystem)``
  triples — planners re-evaluate the same pair many times;
* :meth:`Predictor.predict_many`, a vectorised batch API evaluating a
  full ``workloads × machines`` cost matrix in one numpy pass
  (thousands of pairs per millisecond, see
  ``tests/paper/test_e6_placement.py``).

``calibrated=True`` additionally charges each machine's kernel
calibration bias (``calib_ipc / ipc``, fitted by :mod:`repro.sim.calibrate`
and encoded per workload class) — use it when the placed workload is an
emulation kernel rather than a real application (E.3 semantics).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.predict.models import DemandVector
from repro.sim.machines import resolve_machine
from repro.sim.resource import MachineSpec

__all__ = ["Prediction", "Predictor"]

#: Bound on the machine-fingerprint memo, so long ablation sweeps over
#: many replace()'d specs do not pin every variant in memory.
_MACHINE_MEMO_SIZE = 128


@dataclass(frozen=True)
class Prediction:
    """Predicted serial runtime of one demand vector on one machine."""

    machine: str
    compute_seconds: float
    io_seconds: float
    memory_seconds: float
    network_seconds: float
    sleep_seconds: float

    @property
    def seconds(self) -> float:
        """Total predicted runtime (uncontended, serial execution)."""
        return (
            self.compute_seconds
            + self.io_seconds
            + self.memory_seconds
            + self.network_seconds
            + self.sleep_seconds
        )

    def breakdown(self) -> dict[str, float]:
        """Component name -> seconds mapping (for tables and reports)."""
        return {
            "compute": self.compute_seconds,
            "io": self.io_seconds,
            "memory": self.memory_seconds,
            "network": self.network_seconds,
            "sleep": self.sleep_seconds,
            "total": self.seconds,
        }


class Predictor:
    """Cost model evaluating demand vectors against machine models.

    Parameters
    ----------
    cache_size:
        Maximum number of ``(vector, machine, filesystem)`` predictions
        kept in the LRU cache (0 disables caching).
    calibrated:
        Charge the per-class kernel calibration bias on compute time
        (the E.3 systematic error; off for application-class vectors).
    """

    def __init__(self, cache_size: int = 4096, calibrated: bool = False) -> None:
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        self.cache_size = cache_size
        self.calibrated = calibrated
        self._cache: OrderedDict[tuple[str, str, str], Prediction] = OrderedDict()
        #: id(machine) -> (machine, content fingerprint), FIFO-bounded.
        #: Keeping the strong reference makes the id-based memo safe
        #: against id reuse while an entry lives.
        self._machine_keys: OrderedDict[int, tuple[MachineSpec, str]] = OrderedDict()
        self._hits = 0
        self._misses = 0

    def _machine_fingerprint(self, machine: MachineSpec) -> str:
        """Content hash of a machine spec (cache key component).

        Keying on content rather than ``machine.name`` keeps the cache
        correct when callers compare tweaked variants of one machine
        (e.g. ``dataclasses.replace`` ablations) under the same name.
        """
        entry = self._machine_keys.get(id(machine))
        if entry is not None and entry[0] is machine:
            return entry[1]
        digest = hashlib.blake2b(
            repr(machine).encode("utf-8"), digest_size=12
        ).hexdigest()
        self._machine_keys[id(machine)] = (machine, digest)
        while len(self._machine_keys) > _MACHINE_MEMO_SIZE:
            self._machine_keys.popitem(last=False)
        return digest

    # -- single-pair API -----------------------------------------------------

    def predict(
        self,
        demand: DemandVector,
        machine: MachineSpec | str,
        filesystem: str | None = None,
    ) -> Prediction:
        """Predict the uncontended runtime of ``demand`` on ``machine``.

        ``filesystem`` selects the I/O target mount (default mount when
        ``None``); results are cached by content digest.
        """
        machine = resolve_machine(machine)
        fs_name = filesystem if filesystem else machine.default_fs
        key = (demand.digest(), self._machine_fingerprint(machine), fs_name)
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            self._cache.move_to_end(key)
            return cached
        self._misses += 1
        prediction = self._evaluate(demand, machine, fs_name)
        if self.cache_size:
            self._cache[key] = prediction
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return prediction

    def _evaluate(
        self, demand: DemandVector, machine: MachineSpec, fs_name: str
    ) -> Prediction:
        cpu = machine.cpu
        compute = 0.0
        if demand.instructions > 0:
            spec = cpu.spec(demand.workload_class)
            cycles = demand.instructions / spec.ipc
            if self.calibrated:
                cycles *= spec.cycle_bias
            workers = min(demand.threads, cpu.cores)
            factor = (
                machine.scaling_model(demand.paradigm).time_factor(workers)
                if workers > 1
                else 1.0
            )
            compute = cpu.seconds_for_cycles(cycles) * factor
        io = 0.0
        if demand.io_read_bytes > 0 or demand.io_write_bytes > 0:
            fs = machine.filesystem(fs_name)
            io = fs.io_time(
                int(demand.io_read_bytes),
                int(demand.io_write_bytes),
                demand.io_block_size,
            )
        memory = machine.memory.alloc_time(
            int(demand.mem_alloc_bytes), 1 << 20
        ) + machine.memory.free_time(int(demand.mem_free_bytes), 1 << 20)
        network = 0.0
        if demand.net_bytes > 0:
            nbytes = int(demand.net_bytes)
            ops = -(-nbytes // demand.net_block_size)
            network = ops * machine.net_latency + nbytes / machine.net_bandwidth
        return Prediction(
            machine=machine.name,
            compute_seconds=compute,
            io_seconds=io,
            memory_seconds=memory,
            network_seconds=network,
            sleep_seconds=demand.sleep_seconds,
        )

    # -- batch API -----------------------------------------------------------

    def predict_many(
        self,
        demands: Sequence[DemandVector] | Iterable[DemandVector],
        machines: Sequence[MachineSpec | str],
        filesystem: str | None = None,
    ) -> np.ndarray:
        """Total predicted seconds for every (workload, machine) pair.

        Returns an ``(n_demands, n_machines)`` float array.  The batch
        path vectorises the component formulas with numpy instead of
        calling :meth:`predict` per pair, which is what keeps exhaustive
        candidate sweeps (thousands of pairs) in the millisecond range.
        ``filesystem`` selects the I/O target mount on every machine
        (each machine's default mount when ``None``), matching
        :meth:`predict`'s parameter.
        """
        demands = list(demands)
        specs = [resolve_machine(m) for m in machines]
        n = len(demands)
        out = np.zeros((n, len(specs)), dtype=float)
        if not n or not specs:
            return out

        instr = np.array([d.instructions for d in demands], dtype=float)
        read = np.array([d.io_read_bytes for d in demands], dtype=float)
        write = np.array([d.io_write_bytes for d in demands], dtype=float)
        io_block = np.array([d.io_block_size for d in demands], dtype=float)
        alloc = np.array([d.mem_alloc_bytes for d in demands], dtype=float)
        freed = np.array([d.mem_free_bytes for d in demands], dtype=float)
        net = np.array([d.net_bytes for d in demands], dtype=float)
        net_block = np.array([d.net_block_size for d in demands], dtype=float)
        sleep = np.array([d.sleep_seconds for d in demands], dtype=float)
        threads = np.array([d.threads for d in demands], dtype=float)
        classes = [d.workload_class for d in demands]
        paradigms = [d.paradigm for d in demands]

        read_ops = np.ceil(read / io_block)
        write_ops = np.ceil(write / io_block)
        alloc_ops = np.where(alloc > 0, np.maximum(1.0, np.ceil(alloc / float(1 << 20))), 0.0)
        free_ops = np.where(freed > 0, np.maximum(1.0, np.ceil(freed / float(1 << 20))), 0.0)
        net_ops = np.ceil(net / net_block)

        for j, machine in enumerate(specs):
            cpu = machine.cpu
            class_specs = {c: cpu.spec(c) for c in set(classes)}
            ipc = np.array([class_specs[c].ipc for c in classes])
            cycles = instr / ipc
            if self.calibrated:
                cycles *= np.array([class_specs[c].cycle_bias for c in classes])
            workers = np.minimum(threads, cpu.cores)
            factor = np.array(
                [
                    machine.scaling_model(p).time_factor(int(w)) if w > 1 else 1.0
                    for p, w in zip(paradigms, workers)
                ]
            )
            t_cpu = cycles / cpu.frequency * factor

            fs = machine.filesystem(filesystem)
            hit = fs.cache_hit_fraction
            t_io = (
                read_ops * fs.read_latency
                + read * (hit / fs.cache_bandwidth + (1.0 - hit) / fs.read_bandwidth)
                + write_ops * fs.write_latency
                + write / fs.write_bandwidth
            )
            mem = machine.memory
            t_mem = (
                alloc_ops * mem.alloc_latency
                + alloc / mem.touch_bandwidth
                + free_ops * mem.free_latency
            )
            t_net = net_ops * machine.net_latency + net / machine.net_bandwidth
            out[:, j] = t_cpu + t_io + t_mem + t_net + sleep
        return out

    # -- cache introspection -------------------------------------------------

    def cache_info(self) -> dict[str, int]:
        """Hit/miss/size counters of the prediction cache."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._cache),
            "max_size": self.cache_size,
        }

    def clear_cache(self) -> None:
        """Drop all cached predictions and reset the counters."""
        self._cache.clear()
        self._machine_keys.clear()
        self._hits = 0
        self._misses = 0
