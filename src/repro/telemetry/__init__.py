"""``repro.telemetry`` — the runtime's observability plane.

A dependency-free instrumentation subsystem (stdlib only, importable
from any layer and any pool worker):

* :class:`~repro.telemetry.events.EventBus` — process-wide fan-out of
  typed structured :class:`~repro.telemetry.events.Event` records to
  pluggable sinks; dark (near-zero cost) until a sink is attached;
* :func:`~repro.telemetry.spans.span` — nestable timed regions (wall +
  CPU seconds) whose ids link into a tree; ``pack_context`` /
  ``activate_context`` carry the tree across the run service's worker
  pool so pooled per-request spans stitch under their submitting span;
* :class:`~repro.telemetry.metrics.MetricsRegistry` — always-on
  counters/gauges/histograms feeding the campaign progress surface;
* sinks (:mod:`repro.telemetry.sinks`): stderr log lines (text or
  JSONL), JSONL files, in-memory buffers for tests, and a Chrome-trace
  collector that reuses :mod:`repro.export.trace`'s event format.

CLI integration: every ``repro`` subcommand accepts ``--log-level``,
``--log-json`` and ``--trace FILE``; :func:`configure` is the one-call
setup those flags map onto.
"""

from __future__ import annotations

import sys
from typing import IO, Any

from repro.telemetry.events import (
    LEVELS,
    Event,
    EventBus,
    get_bus,
    level_number,
    reset_bus,
)
from repro.telemetry.metrics import (
    HistogramStat,
    MetricsRegistry,
    get_registry,
    reset_registry,
    timed,
)
from repro.telemetry.sinks import JsonlSink, LogSink, MemorySink, TraceSink
from repro.telemetry.spans import (
    activate_context,
    current_span_id,
    pack_context,
    span,
)
from repro.telemetry.spans import reset_spans as _reset_spans

__all__ = [
    "LEVELS",
    "Event",
    "EventBus",
    "HistogramStat",
    "JsonlSink",
    "LogSink",
    "MemorySink",
    "MetricsRegistry",
    "TraceSink",
    "activate_context",
    "configure",
    "current_span_id",
    "get_bus",
    "get_registry",
    "level_number",
    "pack_context",
    "reset_telemetry",
    "span",
    "timed",
]


def configure(
    log_level: str | None = None,
    log_json: bool = False,
    trace: str | None = None,
    log_stream: IO[str] | None = None,
) -> list[Any]:
    """Attach sinks for the standard CLI surface; returns them.

    ``log_level``/``log_json`` attach a :class:`LogSink` on ``stderr``
    (or ``log_stream``); ``trace`` attaches a :class:`TraceSink` whose
    Chrome-trace JSON is written when the sink is closed.  Callers own
    the returned sinks: detach them with
    ``get_bus().remove_sink(sink)`` (which also closes them) when the
    command finishes.
    """
    bus = get_bus()
    sinks: list[Any] = []
    if log_level is not None or log_json:
        sinks.append(
            bus.add_sink(
                LogSink(
                    stream=log_stream if log_stream is not None else sys.stderr,
                    level=log_level if log_level is not None else "info",
                    json_lines=log_json,
                )
            )
        )
    if trace is not None:
        sinks.append(bus.add_sink(TraceSink(trace)))
    return sinks


def reset_telemetry() -> None:
    """Reset bus, metrics and span state (tests, forked children)."""
    reset_bus()
    reset_registry()
    _reset_spans()
