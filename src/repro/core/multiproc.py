"""Multi-process utilities: per-rank profile aggregation.

§4.5 ("Multiprocessing"): "Synapse can be used to profile and emulate
multi-process and multi-core applications: each process is handled
individually".  Profiling N ranks therefore yields N profiles; replaying
the *application* needs them combined into one.  This module implements
that aggregation:

* cumulative metrics add sample-wise (rank 0's sample *k* plus rank 1's
  sample *k* — the ranks ran concurrently, so equal sample indices cover
  the same wall-clock window);
* level metrics add too (each rank's RSS is resident simultaneously);
* the combined Tx is the *maximum* rank Tx (the application ends when
  its last process exits);
* shorter ranks simply stop contributing past their end.

TCP/MPI communication between the ranks is NOT captured — the paper's
explicit limitation — and the combined profile documents the rank count
in its info for OpenMP/MPI replay configuration.
"""

from __future__ import annotations

from typing import Sequence

from repro.core import metrics as _metrics
from repro.core.errors import SynapseError
from repro.core.metrics import MetricKind
from repro.core.samples import Profile, Sample

__all__ = ["combine_process_profiles"]


def combine_process_profiles(profiles: Sequence[Profile]) -> Profile:
    """Merge per-rank profiles of one run into an application profile.

    All profiles must share the same sampling grid (same sample rate);
    the command and machine of the first profile are kept, tags get a
    ``ranks=N`` marker, and ``info["combined_from"]`` records the rank
    count for later parallel replay.
    """
    if not profiles:
        raise SynapseError("cannot combine zero profiles")
    rates = {p.sample_rate for p in profiles}
    if len(rates) > 1:
        raise SynapseError(
            f"per-process profiles have mixed sample rates: {sorted(rates)}"
        )
    first = profiles[0]
    n_samples = max(p.n_samples for p in profiles)

    ranks = [list(prof.samples) for prof in profiles]
    samples: list[Sample] = []
    for index in range(n_samples):
        values: dict[str, float] = {}
        t = None
        dt = None
        for rank in ranks:
            if index >= len(rank):
                continue
            sample = rank[index]
            if t is None:
                t, dt = sample.t, sample.dt
            for name, value in sample.values.items():
                spec = _metrics.REGISTRY.get(name)
                if spec is not None and spec.kind is MetricKind.LEVEL:
                    values[name] = values.get(name, 0.0) + value
                elif name == "time.runtime":
                    # Wall time is shared, not additive across ranks.
                    values[name] = max(values.get(name, 0.0), value)
                else:
                    values[name] = values.get(name, 0.0) + value
        samples.append(Sample(index=index, t=t or 0.0, dt=dt or 0.0, values=values))

    statics = dict(first.statics)
    # Peak memory across ranks is additive (simultaneously resident).
    for key in ("mem.peak_rusage",):
        total = sum(p.statics.get(key, 0.0) for p in profiles if key in p.statics)
        if total:
            statics[key] = total
    # The combined runtime is the longest rank's runtime.
    runtimes = [
        p.statics.get("time.runtime_rusage", 0.0)
        for p in profiles
        if "time.runtime_rusage" in p.statics
    ]
    if runtimes:
        statics["time.runtime_rusage"] = max(runtimes)

    combined = Profile(
        command=first.command,
        tags=tuple(first.tags) + (f"ranks={len(profiles)}",),
        machine=dict(first.machine),
        config=dict(first.config),
        sample_rate=first.sample_rate,
        samples=samples,
        statics=statics,
        info={
            "combined_from": len(profiles),
            "rank_tx": [p.tx for p in profiles],
            "note": "inter-process communication not captured (§4.5)",
        },
    )
    return combined
