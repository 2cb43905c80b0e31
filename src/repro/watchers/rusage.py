"""Runtime watcher: the POSIX ``rusage`` / ``time -v`` role (§4.1).

Samples wall runtime over time and, on finalisation, records the
process's final resource-usage totals.  The paper wraps the target in
``time -v`` to correct the small offset between process start and the
first watcher sample; here the final rusage totals play that role — the
profile's runtime total comes from the process itself, not from counting
samples.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.watchers.base import WatcherBase, WatcherResult, per_row, rowwise

__all__ = ["RusageWatcher"]


class RusageWatcher(WatcherBase):
    """Samples wall runtime; finalises with exact rusage totals."""

    name = "rusage"
    cumulative_metrics = ("time.runtime",)

    @rowwise
    def finalize(self, all_results: Mapping[str, WatcherResult]) -> WatcherResult:
        result = self.result
        # Floats for a lone process, ``(rows,)`` arrays for a block.
        usage = self.handle.rusage()
        result.info["rusage"] = per_row(usage)
        runtime = usage.get("time.runtime", 0.0)
        ran = runtime > 0
        series = result.cumulative.get("time.runtime")
        if series is not None and series.values.shape[-1] > 0 and np.any(ran):
            # Pin the cumulative runtime series' end to the rusage value:
            # this corrects the spawn-to-first-sample offset.
            limit = np.where(ran, runtime, np.inf)[..., None]
            values = np.minimum(series.values, limit)
            np.copyto(values, limit, where=series.final & np.asarray(ran)[..., None])
            result.cumulative["time.runtime"] = series.with_values(values)
        peak = usage.get("mem.peak", 0.0)
        for name, static in (
            ("time.runtime_rusage", per_row(runtime, ran)),
            ("mem.peak_rusage", per_row(peak, peak > 0)),
        ):
            if static is not None:
                result.statics[name] = static
        return result
