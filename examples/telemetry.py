#!/usr/bin/env python
"""Observability plane: events, spans, metrics, Chrome traces.

Every layer of the runtime is instrumented — the run service opens a
span per request (even inside pool workers), campaigns emit wave
events, the stores time every ``put``/``find``/``get``.  All of it is
dark by default: until a sink is attached the event bus short-circuits
and an instrumented hot path pays ~2 µs per span, so instrumentation
stays on in production.  The metrics registry is the exception — always
on; step 3 below reads its latency percentiles.

This example walks the surface:

1. attach a :class:`MemorySink` and watch spans nest — including spans
   opened *inside pool workers*, stitched under the submitting span;
2. run a campaign and observe its wave events and progress callback;
3. read latency histograms out of the always-on metrics registry;
4. write a Chrome-trace file (open it in ``about://tracing``).

The same capabilities ride on every CLI invocation::

    repro campaign spec.json                  # per-wave progress lines
    repro campaign spec.json -q               # ... suppressed
    repro --log-level info campaign spec.json # structured log on stderr
    repro --log-json campaign spec.json       # ... as JSONL
    repro --trace out.json campaign spec.json # Chrome trace of the run

Run:  python examples/telemetry.py
"""

from repro.runtime import CampaignSpec, RunRequest, RunService, run_campaign
from repro.sim.demands import ComputeDemand
from repro.sim.workload import SimWorkload
from repro.storage.base import MemoryStore
from repro.telemetry import MemorySink, TraceSink, get_bus, get_registry, span

SPEC = {
    "name": "telemetry-demo",
    "kind": "profile",
    "apps": ["gromacs:iterations=20000", "sleeper:sleep_seconds=1"],
    "machines": ["thinkie", "comet"],
    "config": {"sample_rate": 2.0},
}


def workload() -> SimWorkload:
    wl = SimWorkload(name="demo")
    wl.phase("main").stream("main").add(
        ComputeDemand(instructions=5e8, workload_class="app.md")
    )
    return wl


def main() -> None:
    bus = get_bus()
    sink = bus.add_sink(MemorySink())

    # 1. Spans nest — across the process pool. Each request the service
    # executes opens a `run.request` span; workers ship their spans back
    # and they parent under whatever span submitted the batch.
    requests = [
        RunRequest(kind="engine", target=workload(), machine="thinkie",
                   seed=seed, index=seed)
        for seed in range(4)
    ]
    with span("demo.batch") as submitting:
        with RunService(processes=2) as service:
            service.run(requests)
    print("span tree under demo.batch:")
    for event in sink.spans("run.request"):
        chain = " > ".join(e.name for e in reversed(sink.ancestors(event)))
        print(f"  {chain} > run.request "
              f"(pid {event.pid}, {event.dur * 1e3:.1f} ms)")
    assert all(
        any(a.span_id == submitting.span_id for a in sink.ancestors(e))
        for e in sink.spans("run.request")
    )

    # 2. Campaigns narrate themselves: wave events plus a progress hook
    # (the CLI prints these summaries as its per-wave progress lines).
    sink.clear()
    spec = CampaignSpec.from_dict(SPEC)
    run_campaign(spec, MemoryStore(), checkpoint=2,
                 progress=lambda s: print(
                     f"  wave {s['wave']}/{s['waves']}: "
                     f"{s['completed']}/{s['total']} done"))
    finish = sink.named("campaign.finish")[0]
    print(f"campaign events: {len(sink.events)} "
          f"(executed {finish.attrs['executed']} cells)")

    # 3. The metrics registry was recording all along — no sink needed.
    stats = get_registry().histogram("service.request.seconds")
    print(f"request latency: n={stats.count} "
          f"p50={stats.percentile(50) * 1e3:.1f}ms "
          f"p99={stats.percentile(99) * 1e3:.1f}ms")

    # 4. Chrome trace: the CLI's --trace flag, programmatically.
    trace = bus.add_sink(TraceSink("telemetry_demo_trace.json"))
    run_campaign(CampaignSpec.from_dict({**SPEC, "name": "traced"}),
                 MemoryStore())
    bus.remove_sink(trace)  # detaching closes the sink -> writes the file
    print("wrote telemetry_demo_trace.json (open in about://tracing)")

    bus.remove_sink(sink)


if __name__ == "__main__":
    main()
