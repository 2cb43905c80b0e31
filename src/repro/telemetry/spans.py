"""Nestable spans: timed regions of runtime work.

A *span* is a named region of execution with wall-clock and CPU
timings, free-form attributes, and an identity that links it into a
tree: every span records the span that was open when it started as its
``parent_id``.  Nesting is tracked with a :class:`contextvars.ContextVar`,
so spans compose correctly across threads and ``asyncio`` tasks.

Cross-process propagation: spans opened inside a worker process cannot
see the parent process's context variable, so the run service ships a
*telemetry context* (:func:`pack_context` — the currently open span id)
inside each chunk payload and the worker activates it with
:func:`activate_context` before executing the chunk.  Worker-side spans
then record the parent process's span as their parent, the worker's
capture buffer collects them, and the parent replays them into its
sinks — the trace file shows one tree: campaign run > wave > pooled
per-request spans, regardless of which process executed what.

The fast path matters: ``span()`` on an inactive bus (no sinks, no
capture) does one attribute check and yields a shared no-op object.
That keeps always-on instrumentation of ``Engine.run`` and the store
hot paths under the telemetry plane's <3 % overhead budget.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, Iterator

from repro.telemetry.events import Event, get_bus

__all__ = [
    "Span",
    "activate_context",
    "current_span_id",
    "pack_context",
    "span",
]

_current_span: ContextVar[str | None] = ContextVar("repro_current_span", default=None)
_ids = itertools.count(1)


def current_span_id() -> str | None:
    """Id of the innermost open span (``None`` outside any span)."""
    return _current_span.get()


def _new_span_id() -> str:
    # Pid-prefixed so ids from pool workers can never collide with the
    # parent's when their spans are stitched into one trace.
    return f"{os.getpid():x}.{next(_ids)}"


class Span:
    """One open span; use :meth:`set` to attach attributes mid-flight."""

    __slots__ = (
        "name", "span_id", "parent_id", "level", "attrs", "_t0", "_c0", "_ts", "_bus", "_token",
    )

    def __init__(
        self, name: str, level: str, parent_id: str | None, attrs: dict[str, Any],
        bus: Any = None,
    ) -> None:
        self._bus = bus
        self.name = name
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.level = level
        self.attrs = attrs
        self._ts = time.time()
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (recorded at span exit)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self.span_id)
        return self

    def __exit__(self, kind: Any, exc: BaseException | None, tb: Any) -> None:
        if exc is not None:
            self.attrs.setdefault("status", "error")
            self.attrs.setdefault("error", repr(exc))
        _current_span.reset(self._token)
        self._bus.emit(self._finish())

    def _finish(self) -> Event:
        return Event(
            name=self.name,
            ts=self._ts,
            level=self.level,
            kind="span",
            attrs=self.attrs,
            span_id=self.span_id,
            parent_id=self.parent_id,
            dur=time.perf_counter() - self._t0,
            cpu=time.process_time() - self._c0,
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
        )


class _NullSpan:
    """Shared no-op span yielded when the bus is dark."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()
_DARK = nullcontext(_NULL_SPAN)


def span(name: str, level: str = "debug", **attrs: Any) -> Any:
    """Open a nested, timed span (a ``with`` block); emits one span event
    at exit.

    The span event records wall (``dur``) and CPU (``cpu``) seconds, the
    attributes given here plus any added via :meth:`Span.set`, and the
    enclosing span as its parent.  An exception escaping the body marks
    the span with ``error=repr(exc)`` and ``status="error"`` before
    re-raising.  When no sink or capture is attached the whole thing is
    a no-op.
    """
    bus = get_bus()
    if not bus.active:
        return _DARK
    return Span(name, level, _current_span.get(), attrs, bus)


def pack_context() -> dict[str, Any] | None:
    """Portable snapshot of the telemetry context for a pool worker.

    ``None`` when the bus is dark — the worker then skips every capture
    and span, keeping the no-sink overhead at a single ``is None`` test
    per chunk.
    """
    if not get_bus().active:
        return None
    return {"parent": _current_span.get()}


@contextmanager
def activate_context(context: dict[str, Any] | None) -> Iterator[list[Event] | None]:
    """Adopt a shipped telemetry context for the duration of a chunk.

    Worker-side counterpart of :func:`pack_context`: installs the
    parent process's open span as the local parent and captures every
    event emitted under it.  Yields the capture buffer (to return with
    the chunk results) or ``None`` when no context was shipped.
    """
    if context is None:
        yield None
        return
    bus = get_bus()
    token = _current_span.set(context.get("parent"))
    try:
        with bus.capture() as buffer:
            yield buffer
    finally:
        _current_span.reset(token)


def reset_spans() -> None:
    """Clear the current-span state (tests)."""
    _current_span.set(None)
