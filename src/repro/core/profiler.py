"""The Synapse profiler: spawn, watch, merge, store (§4.1).

The profiler spawns the target through an execution backend, hands the
process handle to the configured watcher plugins, and drives sampling:

* **host plane** — every watcher runs in its own thread (the paper's
  architecture), sampling at the configured rate against the wall clock;
  timestamps of different watchers drift freely;
* **simulation plane** — a sim process's history is precomputed, so the
  whole policy grid is sampled in one pass, and a *block* of concurrent
  processes (:meth:`Profiler.run_many`) in that same pass: the grid is
  walked once to the longest row, every counter of every row is read
  off it by one row-wise interpolation, one set of watchers sees
  ``(rows, samples)`` arrays, and the profiles are merged from them
  together.  :meth:`Profiler.run` is the one-row case.  Watchers whose
  hooks are not written for rows (see :mod:`repro.watchers.base`) are
  driven in lockstep against the virtual clock instead, one process at
  a time, which is observationally equivalent.

Profiling only terminates on full sample periods: after process exit one
final drain sample captures the tail (§4.5 "Overheads" notes the
completion delay this causes at very low rates).  Watcher series are then
merged onto the nominal grid and the profile is optionally stored.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.backend import ExecutionBackend, ProcessHandle
from repro.core.config import SynapseConfig
from repro.core.errors import ProfilingError
from repro.core.samples import Profile, SampleTable
from repro.core.sampling import SamplingPolicy, policy_from_config
from repro.core.tags import normalize_command, normalize_tags
from repro.storage.base import ProfileStore
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import span
from repro.watchers.base import (
    PerRow,
    WatcherBase,
    WatcherContext,
    WatcherResult,
    row_of,
)
from repro.watchers.registry import get_watcher

__all__ = ["Profiler", "ProfileRun"]


@dataclass
class ProfileRun:
    """Bookkeeping for one profiling run (returned via ``Profile.info``)."""

    exit_code: int = 0
    watcher_names: tuple[str, ...] = ()
    n_samples: int = 0
    sample_rate: float = 1.0
    first_sample_offset: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


#: The hooks a watcher class may override only with a
#: :func:`~repro.watchers.base.rowwise` implementation if it is to watch
#: a block of rows.
_ROW_HOOKS = ("__init__", "pre_process", "sample_batch", "post_process", "finalize")


class Profiler:
    """Profiles targets on one backend with one configuration."""

    def __init__(
        self,
        backend: ExecutionBackend,
        config: SynapseConfig | None = None,
        store: ProfileStore | None = None,
    ) -> None:
        self.backend = backend
        self.config = config if config is not None else SynapseConfig()
        self.store = store

    # -- public API ---------------------------------------------------------

    def run(
        self,
        target: Any,
        tags: object = None,
        command: str | None = None,
        **spawn_kwargs: Any,
    ) -> Profile:
        """Profile one execution of ``target``; returns the profile.

        ``command`` overrides the profile's index string (useful when the
        target object's own name is not the desired search key).  The
        profile is stored when the profiler has a store.
        """
        with span("profile.run", backend=getattr(self.backend, "name", "?")) as sp:
            handle = self.backend.spawn(target, **spawn_kwargs)
            (profile,) = self._watch([handle], tags, command)
            if self.store is not None:
                self.store.put(profile)
            sp.set(
                command=profile.command,
                samples=profile.n_samples,
                exit_code=int(profile.info.get("exit_code", 0)),
            )
        return profile

    def run_many(
        self,
        targets: Iterable[Any],
        tags: object = None,
        command: str | None = None,
    ) -> list[Profile]:
        """Profile the targets as concurrent processes; one profile each.

        The backend starts them together (``spawn_many``: "all processes
        start at the current virtual time") and they are profiled in one
        pass over one sample grid; each profile is what :meth:`run`
        makes of that process on a backend of its own.  More than one
        process can only be watched by rows: where the backend cannot
        start them together or a configured watcher cannot watch rows
        (:attr:`watches_rows`) this raises :class:`ProfilingError`, and
        the caller profiles them one :meth:`run` at a time.
        """
        targets = list(targets)
        spawn_many = getattr(self.backend, "spawn_many", None)
        if spawn_many is None:
            raise ProfilingError(
                f"backend {getattr(self.backend, 'name', '?')!r} cannot start "
                f"processes together"
            )
        with span(
            "profile.block", backend=getattr(self.backend, "name", "?"),
            rows=len(targets),
        ) as sp:
            profiles = (
                self._watch(spawn_many(targets), tags, command) if targets else []
            )
            if self.store is not None:
                self.store.put_many(profiles)
            sp.set(samples=sum(profile.n_samples for profile in profiles))
        return profiles

    def run_repeats(
        self,
        target: Any,
        repeats: int,
        tags: object = None,
        command: str | None = None,
        processes: int | None = None,
        service: Any = None,
    ) -> list[Profile]:
        """Profile ``repeats`` independent executions of ``target``.

        The paper collects multiple profiles per command/tag combination
        for its consistency statistics (E.1, E.3); all repeats share the
        same search key.

        The repeats execute through the run service
        (:mod:`repro.runtime`).  On the simulation plane each repeat
        becomes a declarative profile request carrying the spawn slot it
        would have drawn sequentially, so the service may fan repeats
        across its persistent worker pool (``processes``; ``None`` lets
        the service decide) and the profiles stay bit-identical to
        sequential :meth:`run` calls.  Host-plane and custom backends —
        and profiler subclasses with custom drivers — run serially
        in-parent, exactly as before.
        """
        if repeats < 1:
            raise ProfilingError("repeats must be >= 1")
        from repro.runtime.service import RunRequest, get_service  # noqa: PLC0415 (cycle)
        from repro.sim.backend import SimBackend  # noqa: PLC0415 (cycle)

        svc = service if service is not None else get_service()
        backend = self.backend
        # Exact-type checks on purpose: a Profiler or SimBackend
        # *subclass* may override behaviour the declarative request
        # cannot describe, so subclasses take the in-parent call path.
        if type(self) is Profiler and type(backend) is SimBackend:
            # Declarative path: reserve the spawn slots this sequence of
            # run() calls would have used, so later spawns on this
            # backend draw the same seeds either way.
            first_index = backend._spawn_count + 1
            backend._spawn_count += repeats
            requests = [
                RunRequest(
                    kind="profile",
                    target=target,
                    machine=backend.machine,
                    config=self.config,
                    noisy=backend.noisy,
                    seed=backend.seed,
                    index=first_index + offset,
                    tags=tags,
                    command=command,
                )
                for offset in range(repeats)
            ]
            results = svc.run(requests, processes=processes)
            profiles = [result.value for result in results]
            if self.store is not None:
                self.store.put_many(profiles)
            return profiles
        requests = [
            RunRequest(
                kind="call",
                runner=functools.partial(self.run, target, tags=tags, command=command),
            )
            for _ in range(repeats)
        ]
        return [result.value for result in svc.run(requests)]

    # -- watching -------------------------------------------------------------

    def _watcher_classes(self) -> list[type[WatcherBase]]:
        return [get_watcher(name) for name in self.config.watchers]

    @property
    def watches_rows(self) -> bool:
        """Whether the configured watchers can watch a block of rows —
        whether :meth:`run_many` profiles concurrent processes."""
        return all(map(_watches_rows, self._watcher_classes()))

    def _blocks(
        self, handles: Sequence[ProcessHandle]
    ) -> list[tuple[list[int], Any]] | None:
        """The handles as the blocks the grid pass watches — per block,
        which handles it holds — or ``None`` when they have to be driven
        one by one: the handles cannot form blocks (host processes),
        there is no virtual clock to move, or a watcher is not written
        for rows."""
        form = getattr(type(handles[0]), "blocks", None)
        if (
            form is None
            or getattr(self.backend, "clock", None) is None
            or not self.watches_rows
        ):
            return None
        return form(handles)

    def _watch(
        self, handles: Sequence[ProcessHandle], tags: object, command: str | None
    ) -> list[Profile]:
        """Profile running processes that were spawned together."""
        policy = policy_from_config(self.config)
        classes = self._watcher_classes()
        blocks = self._blocks(handles)
        if blocks is None:
            if len(handles) > 1:
                raise ProfilingError(
                    f"{len(handles)} concurrent processes cannot be watched "
                    f"one sample at a time"
                )
            return [self._watch_alone(handles[0], classes, policy, tags, command)]
        t0 = self.backend.now()
        profiles: list[Any] = [None] * len(handles)
        for indices, block in blocks:
            watched = self._watch_block(block, classes, policy, t0, tags, command)
            for index, profile in zip(indices, watched):
                profiles[index] = profile
        return profiles

    def _watch_alone(
        self,
        handle: ProcessHandle,
        classes: Sequence[type[WatcherBase]],
        policy: SamplingPolicy,
        tags: object,
        command: str | None,
    ) -> Profile:
        """One process, one sample at a time: a thread per watcher on
        the host plane, lockstep against the virtual clock otherwise."""
        machine_info = self.backend.machine_info()
        context = WatcherContext(
            config=self.config, machine_info=machine_info, backend=self.backend
        )
        watchers = [cls(handle, context) for cls in classes]
        for watcher in watchers:
            watcher.pre_process(self.config)
        t0 = self.backend.now()
        if getattr(self.backend, "name", "") == "host":
            self._drive_threaded(watchers, handle, policy, t0)
        else:
            self._drive_lockstep(watchers, handle, policy, t0)
        exit_code = handle.wait()
        if self.config.drain_final_sample:
            # Drain: one final sample on the full-period boundary (§4.5).
            now = self.backend.now() - t0
            for watcher in watchers:
                self._safe_sample(watcher, now)
        return self._assembled(
            handle, exit_code, *self._merged_alone(self._finalized(watchers), policy),
            command, tags, policy, machine_info,
        )

    def _watch_block(
        self,
        block: Any,
        classes: Sequence[type[WatcherBase]],
        policy: SamplingPolicy,
        t0: float,
        tags: object,
        command: str | None,
    ) -> list[Profile]:
        """The sim plane's grid pass over one block of rows.

        The rows' histories are precomputed, so instead of stepping the
        virtual clock sample by sample the policy grid is materialised
        here — walked once, to the exit of the longest row — the clock
        moved to its end, every counter of every row interpolated over
        it in one pass and the arrays handed to one set of watchers.
        The walk replicates the lockstep loop's clock arithmetic
        exactly, and row *r* owns the prefix of the grid the loop would
        have sampled it on — up to the first full period at or past its
        exit (§4.5) — plus its drain sample, so timestamps and therefore
        profiles are identical to the scalar driver's.
        """
        config = self.config
        rows = len(block)
        registry = get_registry()
        registry.inc("profile.blocks")
        registry.inc("profile.block_rows", rows)
        machine_info = self.backend.machine_info()
        context = WatcherContext(
            config=config, machine_info=machine_info, backend=self.backend
        )
        watchers = [cls(block, context) for cls in classes]
        for watcher in watchers:
            watcher.pre_process(config)

        # Replicate the lockstep loop: check liveness, advance by the
        # policy interval, sample.
        exits = block.end_times
        longest = float(exits.max())
        befores: list[float] = []
        starts: list[float] = []
        dts: list[float] = []
        ticks: list[float] = []
        now = t0
        while now < longest:
            elapsed = now - t0
            befores.append(now)
            starts.append(elapsed)
            dts.append(policy.interval_at(elapsed))
            now = now + dts[-1]
            ticks.append(now - t0)
        self.backend.clock.advance_to(now)
        exit_codes = block.wait()
        # Row r was alive before its first ``grid_counts[r]`` ticks; its
        # drain sample repeats the last of them (or reads time zero), as
        # do the columns past its own.
        grid_counts = np.searchsorted(befores, exits, side="left")
        drain = 1 if config.drain_final_sample else 0
        final = np.concatenate(([0.0], ticks))[grid_counts]
        times = np.minimum(ticks + [np.inf] * drain, final[:, None])
        counts = grid_counts + drain
        if (times[:, 1:] < times[:, :-1]).any():  # once, for every series on it
            raise ValueError("timestamps must be non-decreasing")
        if times.shape[1]:
            counters = block.counters_many(times)
            for watcher in watchers:
                try:
                    watcher.sample_batch(times, counters, counts)
                except Exception as exc:  # noqa: BLE001 - plugin boundary
                    # Quarantined like :meth:`_safe_sample`.
                    watcher.result.info["sample_errors"] = PerRow(
                        [f"batch[{count}]: {exc!r}"] for count in counts.tolist()
                    )
        results = self._finalized(watchers)

        statics: dict[str, Any] = {}
        watcher_info: dict[str, Any] = {}
        for name, result in results.items():
            statics.update(result.statics)
            if result.info:
                watcher_info[f"watcher.{name}"] = result.info
        covered = ticks[-1] if ticks else 0.0
        if not starts:  # what ``policy.grid`` covers no runtime with
            starts, dts = [0.0], [policy.interval_at(0.0)]
        merged = None
        if t0 == 0.0:  # the walk made the sums ``policy.grid`` makes
            merged = self._merged_rows(
                results, statics, times, counts, drain, starts, dts, covered
            )
        profiles = []
        for row, (process, exit_code) in enumerate(zip(block.processes, exit_codes)):
            if merged is None:
                # Off the grid: each row on its own, as a lone watcher's.
                row_statics, row_info, samples, offset = self._merged_alone(
                    {name: result.row(row) for name, result in results.items()},
                    policy,
                )
            else:
                row_statics = row_of(statics, row)
                row_info = {
                    key: row_of(value, row) for key, value in watcher_info.items()
                }
                samples, offset = merged[row]
            profiles.append(self._assembled(
                process, exit_code, row_statics, row_info, samples, offset,
                command, tags, policy, self.backend.machine_info(),
            ))
        return profiles

    def _finalized(self, watchers: Sequence[WatcherBase]) -> dict[str, WatcherResult]:
        """Post-process and finalise; a failing ``finalize`` is
        quarantined to its watcher."""
        for watcher in watchers:
            watcher.post_process()
        raw = {w.name: w.result for w in watchers}
        results: dict[str, WatcherResult] = {}
        for watcher in watchers:
            try:
                results[watcher.name] = watcher.finalize(raw)
            except Exception as exc:  # noqa: BLE001 - plugin boundary
                watcher.result.info["finalize_error"] = repr(exc)
                results[watcher.name] = watcher.result
        return results

    # -- sampling drivers -------------------------------------------------------

    @staticmethod
    def _safe_sample(watcher: WatcherBase, now: float) -> None:
        """Sample one watcher, quarantining plugin failures.

        Watchers are third-party extensible plugins (§3.3); one broken
        plugin must not abort the whole profiling run (requirement P.2:
        profiling must not influence the profiled execution).  Failures
        are counted in the watcher's result info and the plugin keeps
        being sampled — transient `/proc` races recover on their own.
        """
        try:
            watcher.sample(now)
        except Exception as exc:  # noqa: BLE001 - plugin boundary
            errors = watcher.result.info.setdefault("sample_errors", [])
            if len(errors) < 16:
                errors.append(f"{now:.3f}s: {exc!r}")

    def _drive_lockstep(
        self,
        watchers: list[WatcherBase],
        handle: ProcessHandle,
        policy: SamplingPolicy,
        t0: float,
    ) -> None:
        """Single-threaded sampling loop (simulation plane)."""
        while handle.alive():
            elapsed = self.backend.now() - t0
            self.backend.sleep(policy.interval_at(elapsed))
            now = self.backend.now() - t0
            for watcher in watchers:
                self._safe_sample(watcher, now)

    def _drive_threaded(
        self,
        watchers: list[WatcherBase],
        handle: ProcessHandle,
        policy: SamplingPolicy,
        t0: float,
    ) -> None:
        """One sampling thread per watcher (host plane, §4.1)."""
        stop = threading.Event()

        def loop(watcher: WatcherBase) -> None:
            while not stop.is_set():
                now = self.backend.now() - t0
                self._safe_sample(watcher, now)
                stop.wait(policy.interval_at(now))

        threads = [
            threading.Thread(target=loop, args=(w,), daemon=True, name=f"watcher-{w.name}")
            for w in watchers
        ]
        for thread in threads:
            thread.start()
        try:
            while handle.alive():
                elapsed = self.backend.now() - t0
                self.backend.sleep(policy.interval_at(elapsed) / 2.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)

    # -- profile assembly ----------------------------------------------------------

    @staticmethod
    def _merged_alone(
        results: dict[str, WatcherResult], policy: SamplingPolicy
    ) -> tuple[dict[str, Any], dict[str, Any], SampleTable, float]:
        """One process's watcher results as its profile's statics,
        watcher info, samples and first sample offset."""
        cumulative: dict[str, Any] = {}
        levels: dict[str, Any] = {}
        statics: dict[str, Any] = {}
        info: dict[str, Any] = {}
        watcher_times: dict[str, list[float]] = {}
        first_offsets: list[float] = []
        for name, result in results.items():
            cumulative.update(result.cumulative)
            levels.update(result.levels)
            statics.update(result.statics)
            if result.info:
                info[f"watcher.{name}"] = result.info
            if result.timestamps:
                watcher_times[name] = result.timestamps
                first_offsets.append(result.timestamps[0])

        runtime = statics.get("time.runtime_rusage")
        if runtime is None:
            runtime = max(
                (s.times[-1] for s in list(cumulative.values()) + list(levels.values()) if len(s)),
                default=0.0,
            )
        samples = Profile.merge_watcher_series(
            policy.grid(runtime), cumulative, levels, watcher_times
        )
        return statics, info, samples, min(first_offsets) if first_offsets else 0.0

    @staticmethod
    def _merged_rows(
        results: dict[str, WatcherResult],
        statics: dict[str, Any],
        times: np.ndarray,
        counts: np.ndarray,
        drain: int,
        starts: list[float],
        dts: list[float],
        covered: float,
    ) -> list[tuple[SampleTable, float]] | None:
        """:meth:`_merged_alone`'s samples and offset for every row of a
        block at once, where the intervals ``starts``/``dts`` of the
        walked grid (which ends at ``covered``) are each row's
        ``policy.grid``; ``None`` when a series is not on the block's
        table ``times`` or a row ran for longer than ``covered``."""
        cumulative: dict[str, Any] = {}
        levels: dict[str, Any] = {}
        for result in results.values():
            cumulative.update(result.cumulative)
            levels.update(result.levels)
        series = [*cumulative.values(), *levels.values()]
        if any(getattr(each, "times", None) is not times for each in series):
            return None
        rows = len(counts)
        runtime = statics.get("time.runtime_rusage")
        runtimes = list(runtime) if type(runtime) is PerRow else [runtime] * rows
        if None in runtimes:
            # No rusage: a row ran until its last sample, if it has one.
            seen = times[np.arange(rows), counts - 1].tolist() if series else []
            runtimes = [
                each if each is not None else seen[row] if series and count else 0.0
                for row, (each, count) in enumerate(zip(runtimes, counts.tolist()))
            ]
        if max(runtimes) > covered:
            return None
        n_samples = np.maximum(1, np.searchsorted(starts, runtimes, side="left"))
        return Profile.merge_watcher_rows(
            list(zip(starts, dts)), n_samples, cumulative, levels, times, counts,
            drain, [name for name, result in results.items() if result.counts is not None],
        )

    def _assembled(
        self,
        handle: ProcessHandle,
        exit_code: int,
        statics: dict[str, Any],
        watcher_info: dict[str, Any],
        samples: SampleTable,
        first_sample_offset: float,
        command: str | None,
        tags: object,
        policy: SamplingPolicy,
        machine_info: dict[str, Any],
    ) -> Profile:
        config = self.config
        info: dict[str, Any] = {"exit_code": exit_code, "backend": self.backend.name}
        info.update(watcher_info)
        info["run"] = {
            "n_samples": len(samples),
            "sample_rate": config.sample_rate,
            "sampling": policy.describe(),
            "first_sample_offset": first_sample_offset,
            "watchers": list(config.watchers),
        }
        handle_info = handle.info()
        if handle_info:
            info["process"] = handle_info
        return Profile(
            command=command if command is not None else _target_command(handle, info),
            tags=normalize_tags(tags),
            machine=dict(machine_info),
            config=config.to_dict(),
            sample_rate=config.sample_rate,
            samples=samples,
            statics=statics,
            info=info,
        )


def _watches_rows(cls: type[WatcherBase]) -> bool:
    """Whether a watcher class can watch a block of rows.

    One that customises per-sample behaviour without a matching batch
    implementation, or overrides a hook with one that is not written
    along the last axis, must keep being driven one process and one
    sample at a time.
    """
    if (
        cls.sample is not WatcherBase.sample
        and cls.sample_batch is WatcherBase.sample_batch
    ):
        return False
    for hook in _ROW_HOOKS:
        impl = getattr(cls, hook)
        if impl is not getattr(WatcherBase, hook) and not getattr(
            impl, "rowwise", False
        ):
            return False
    return True


def _target_command(handle: ProcessHandle, info: dict[str, Any]) -> str:
    """Best-effort command string for handles that know their target."""
    meta = info.get("process", {}).get("metadata")
    if isinstance(meta, dict) and "command" in meta:
        return str(meta["command"])
    record = getattr(handle, "record", None)
    if record is not None and getattr(record, "metadata", None) is not None:
        name = record.metadata.get("workload_name")
        if name:
            return normalize_command(name)
    return "unknown"
