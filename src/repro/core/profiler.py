"""The Synapse profiler: spawn, watch, merge, store (§4.1).

The profiler spawns the target through an execution backend, hands the
process handle to the configured watcher plugins, and drives sampling:

* **host plane** — every watcher runs in its own thread (the paper's
  architecture), sampling at the configured rate against the wall clock;
  timestamps of different watchers drift freely;
* **simulation plane** — watchers are driven in lockstep against the
  virtual clock (real threads cannot wait on virtual time), which is
  observationally equivalent up to drift.

Profiling only terminates on full sample periods: after process exit one
final drain sample captures the tail (§4.5 "Overheads" notes the
completion delay this causes at very low rates).  Watcher series are then
merged onto the nominal grid and the profile is optionally stored.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.backend import ExecutionBackend, ProcessHandle
from repro.core.config import SynapseConfig
from repro.core.errors import ProfilingError
from repro.core.samples import Profile
from repro.core.sampling import SamplingPolicy, policy_from_config
from repro.core.tags import normalize_command, normalize_tags
from repro.storage.base import ProfileStore
from repro.telemetry.spans import span
from repro.watchers.base import WatcherBase, WatcherContext, WatcherResult
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
            profile = self._run(target, tags, command, **spawn_kwargs)
            sp.set(
                command=profile.command,
                samples=profile.n_samples,
                exit_code=int(profile.info.get("exit_code", 0)),
            )
        return profile

    def _run(
        self,
        target: Any,
        tags: object = None,
        command: str | None = None,
        **spawn_kwargs: Any,
    ) -> Profile:
        config = self.config
        policy = policy_from_config(config)

        handle = self.backend.spawn(target, **spawn_kwargs)
        machine_info = self.backend.machine_info()
        context = WatcherContext(
            config=config, machine_info=machine_info, backend=self.backend
        )
        watchers = [
            get_watcher(name)(handle, context) for name in config.watchers
        ]
        for watcher in watchers:
            watcher.pre_process(config)

        t0 = self.backend.now()
        realtime = getattr(self.backend, "name", "") == "host"
        grid = None
        if realtime:
            self._drive_threaded(watchers, handle, policy, t0)
        else:
            grid = self._drive_grid(watchers, handle, policy, t0)
            if grid is None:
                self._drive_lockstep(watchers, handle, policy, t0)
        exit_code = handle.wait()
        # Drain: one final sample on the full-period boundary (§4.5).
        drain = (
            [self.backend.now() - t0] if config.drain_final_sample else []
        )
        if grid is not None:
            # Sim-plane fast path: the process's history is precomputed,
            # so the grid and the drain point are interpolated in one
            # pass and handed over as one batch — the samples a sampling
            # loop followed by a drain would have delivered.
            times = np.asarray(grid + drain)
            if len(times):
                self._sample_batch(
                    watchers, times, handle.counters_many(times)
                )
        elif drain:
            counters_many = getattr(handle, "counters_many", None)
            if counters_many is not None and self._batchable(watchers):
                times = np.asarray(drain)
                self._sample_batch(watchers, times, counters_many(times))
            else:
                for watcher in watchers:
                    self._safe_sample(watcher, drain[0])

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

        profile = self._build_profile(
            results, handle, exit_code, command, tags, policy, machine_info
        )
        if self.store is not None:
            self.store.put(profile)
        return profile

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
        import functools  # noqa: PLC0415 - tiny, call-path only

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

    def _drive_grid(
        self,
        watchers: list[WatcherBase],
        handle: ProcessHandle,
        policy: SamplingPolicy,
        t0: float,
    ) -> list[float] | None:
        """Sim-plane fast path: the whole policy grid, up front.

        A sim process's history is precomputed, so instead of stepping
        the virtual clock sample by sample (one full counter snapshot
        per watcher per step) the sample grid is materialised here, the
        clock moved to its end, and :meth:`_run` interpolates every
        counter series over it in one vectorised pass
        (:meth:`SimProcess.counters_many`) and hands the arrays to the
        watchers in batch.  The grid replicates the lockstep loop's
        clock arithmetic exactly, so sample timestamps — and therefore
        profiles — are identical to the scalar driver's.

        Returns None (caller falls back to lockstep stepping) when the
        handle cannot batch-evaluate or any watcher has custom
        per-sample behaviour without a matching batch implementation.
        """
        end_time = getattr(handle, "end_time", None)
        clock = getattr(self.backend, "clock", None)
        if (
            getattr(handle, "counters_many", None) is None
            or end_time is None
            or clock is None
            or not self._batchable(watchers)
        ):
            return None

        # Replicate the lockstep loop: check liveness, advance by the
        # policy interval, sample — so the final sample lands on the
        # first full period at or past process exit (§4.5).
        times: list[float] = []
        now = self.backend.now()
        while now < end_time:
            elapsed = now - t0
            now = now + policy.interval_at(elapsed)
            times.append(now - t0)
        clock.advance_to(now)
        return times

    @staticmethod
    def _batchable(watchers: list[WatcherBase]) -> bool:
        """Whether every watcher can be driven through ``sample_batch``.

        A watcher that customises per-sample behaviour without providing
        a matching batch implementation must keep being driven through
        its own :meth:`~WatcherBase.sample`.
        """
        for watcher in watchers:
            cls = type(watcher)
            if (
                cls.sample is not WatcherBase.sample
                and cls.sample_batch is WatcherBase.sample_batch
            ):
                return False
        return True

    @staticmethod
    def _sample_batch(
        watchers: list[WatcherBase],
        times: np.ndarray,
        counters: dict[str, Any],
    ) -> None:
        """Feed one batch of samples (the same arrays) to every watcher,
        quarantining plugin failures exactly like :meth:`_safe_sample`."""
        for watcher in watchers:
            try:
                watcher.sample_batch(times, counters)
            except Exception as exc:  # noqa: BLE001 - plugin boundary
                errors = watcher.result.info.setdefault("sample_errors", [])
                if len(errors) < 16:
                    errors.append(f"batch[{len(times)}]: {exc!r}")

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

    def _build_profile(
        self,
        results: dict[str, WatcherResult],
        handle: ProcessHandle,
        exit_code: int,
        command: str | None,
        tags: object,
        policy: SamplingPolicy,
        machine_info: dict[str, Any],
    ) -> Profile:
        config = self.config
        cumulative: dict[str, Any] = {}
        levels: dict[str, Any] = {}
        statics: dict[str, Any] = {}
        info: dict[str, Any] = {"exit_code": exit_code, "backend": self.backend.name}
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
        grid = policy.grid(runtime)
        samples = Profile.merge_watcher_series(grid, cumulative, levels, watcher_times)

        info["run"] = {
            "n_samples": len(grid),
            "sample_rate": config.sample_rate,
            "sampling": policy.describe(),
            "first_sample_offset": min(first_offsets) if first_offsets else 0.0,
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
