"""Structured events and the process-wide event bus.

The telemetry plane's wire format is one typed record — :class:`Event` —
carrying a name, a wall-clock timestamp, a severity level, free-form
attributes and (for span events) the span identity and timings.  The
:class:`EventBus` fans emitted events out to pluggable sinks (stderr log
lines, JSONL files, in-memory buffers, Chrome-trace collectors — see
:mod:`repro.telemetry.sinks`).

Everything here is dependency-free stdlib: the bus is importable from
any layer of the runtime (engine, storage, worker processes) without
creating import cycles or dragging numpy into a pool worker that only
wants to report a span.

Cost model: the bus is **dark by default**.  With no sink attached and
no capture active, :attr:`EventBus.active` is ``False`` and every
instrumentation site — :func:`repro.telemetry.spans.span`,
:meth:`EventBus.event` — short-circuits to a single attribute check, so
always-on instrumentation of hot paths (``Engine.run``, store queries)
costs effectively nothing until someone attaches a sink.

Worker-pool capture: :meth:`EventBus.capture` installs a buffer that
records every event emitted while it is active.  The run service's pool
workers run their chunks under a capture and ship the buffered events
back to the parent alongside the results, where
:meth:`EventBus.replay` re-emits them into the parent's sinks — that is
how spans recorded inside a worker process end up stitched (by span
ids) under the submitting batch's span in a single trace file.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "LEVELS",
    "Event",
    "EventBus",
    "get_bus",
    "level_number",
    "reset_bus",
]

#: Severity names to numeric thresholds (matching :mod:`logging`).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def level_number(level: str) -> int:
    """Numeric threshold of a level name (unknown names rank as info)."""
    return LEVELS.get(level, LEVELS["info"])


@dataclass
class Event:
    """One structured telemetry record.

    Plain events (``kind="event"``) are point-in-time facts (a campaign
    wave finished, a lease was stolen).  Span events (``kind="span"``)
    are emitted *once, at span exit*, and additionally carry the span
    identity (``span_id``/``parent_id``) and its wall/CPU timings —
    ``ts`` is then the span's *start* time so exporters can lay spans
    out on a timeline.
    """

    name: str
    ts: float
    level: str = "info"
    kind: str = "event"
    attrs: dict[str, Any] = field(default_factory=dict)
    span_id: str | None = None
    parent_id: str | None = None
    #: Span wall-clock duration in seconds (span events only).
    dur: float | None = None
    #: Span process CPU time in seconds (span events only).
    cpu: float | None = None
    pid: int = 0
    tid: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (sinks and the JSONL log format use this)."""
        doc: dict[str, Any] = {
            "name": self.name,
            "ts": self.ts,
            "level": self.level,
            "kind": self.kind,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.span_id is not None:
            doc["span_id"] = self.span_id
        if self.parent_id is not None:
            doc["parent_id"] = self.parent_id
        if self.dur is not None:
            doc["dur"] = self.dur
        if self.cpu is not None:
            doc["cpu"] = self.cpu
        return doc


class EventBus:
    """Process-wide fan-out of :class:`Event` records to sinks.

    Sinks implement ``handle(event)`` and optionally ``close()``.  A
    sink raising never fails the instrumented code path: the exception
    is swallowed and the sink keeps receiving later events (telemetry
    must never take down a campaign wave).
    """

    def __init__(self) -> None:
        self._sinks: list[Any] = []
        self._captures: list[list[Event]] = []
        self._lock = threading.Lock()

    # -- sink management ----------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether emitting is worth the work (any sink or capture)."""
        return bool(self._sinks or self._captures)

    def add_sink(self, sink: Any) -> Any:
        """Attach a sink; returns it (handy for ``add_sink(MemorySink())``)."""
        with self._lock:
            self._sinks.append(sink)
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach a sink (missing sinks are ignored) and close it."""
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                return
        close = getattr(sink, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # noqa: BLE001 - telemetry never raises
                pass

    def clear_sinks(self) -> None:
        """Detach (and close) every sink."""
        for sink in list(self._sinks):
            self.remove_sink(sink)

    # -- emission -----------------------------------------------------------

    def emit(self, event: Event) -> None:
        """Deliver one event to every capture buffer and sink."""
        for buffer in self._captures:
            buffer.append(event)
        for sink in self._sinks:
            try:
                sink.handle(event)
            except Exception:  # noqa: BLE001 - a broken sink must not fail runs
                pass

    def event(self, name: str, level: str = "info", **attrs: Any) -> None:
        """Emit a plain (point-in-time) event, if anyone is listening.

        The event's ``parent_id`` is the currently open span, so plain
        events nest into the span tree exactly like child spans do.
        """
        if not self.active:
            return
        from repro.telemetry.spans import current_span_id  # noqa: PLC0415 (cycle)

        self.emit(
            Event(
                name=name,
                ts=time.time(),
                level=level,
                attrs=attrs,
                parent_id=current_span_id(),
                pid=os.getpid(),
                tid=threading.get_ident() & 0xFFFFFFFF,
            )
        )

    def replay(self, events: Iterable[Event | dict]) -> None:
        """Re-emit events recorded elsewhere (a pool worker's capture).

        Accepts :class:`Event` objects or their ``to_dict`` form; the
        events keep their original timestamps, pids and span identities,
        so a replayed worker span still stitches under its parent span.
        """
        for event in events:
            if isinstance(event, dict):
                event = Event(**event)
            self.emit(event)

    # -- worker-side capture -------------------------------------------------

    @contextmanager
    def capture(self) -> Iterator[list[Event]]:
        """Buffer every event emitted while active (innermost first).

        Used by pool workers (events travel back with the chunk result)
        and by tests; capturing makes the bus :attr:`active` even with
        no sink attached.
        """
        buffer: list[Event] = []
        self._captures.append(buffer)
        try:
            yield buffer
        finally:
            self._captures.remove(buffer)


_bus = EventBus()


def get_bus() -> EventBus:
    """The process-wide event bus."""
    return _bus


def reset_bus() -> None:
    """Detach all sinks and drop stray captures (tests, forked children)."""
    _bus.clear_sinks()
    _bus._captures.clear()
