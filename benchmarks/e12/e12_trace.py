"""Benchmark-side spans: record calls into the program's public API.

The program under ``src/`` is not edited.  A :class:`Tracer` records one
span per call made *from the benchmark* into a public function, either
around a block (``with tracer.span("layer.op")``) or around the methods
of an object the program is handed (``tracer.proxy(store, "storage",
...)`` — ``run_campaign`` and ``elastic_worker`` accept any duck-typed
store/service).  Spans nest by call order, so a layer's *self* time is
its span minus the spans opened inside it, and the self times of one
pass sum to the pass's root span exactly.

:class:`NullTracer` has the same surface and records nothing: untimed
and end-to-end passes use it, so they pay no proxy or span cost.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Iterable, NamedTuple


class Span(NamedTuple):
    """One recorded call: what, when, under which span, in which pass."""

    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a pass root
    pass_id: int
    #: Units of work the call carried (documents written, requests
    #: run, arrivals taken); 1 when the call has no natural count.
    work: int


class LayerTime(NamedTuple):
    """Aggregate of one span name over one or more passes."""

    calls: int
    total_s: float  # inclusive: time between entry and return
    self_s: float  # total minus time inside child spans
    work: int


class _OpenSpan:
    __slots__ = ("_tracer", "_name", "_work", "_index", "_start")

    def __init__(self, tracer: "Tracer", name: str, work: int) -> None:
        self._tracer = tracer
        self._name = name
        self._work = work

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        stack = tracer._stack
        self._index = len(tracer.spans)
        tracer.spans.append(None)  # reserve the slot: children index past it
        stack.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        end = time.perf_counter()
        tracer = self._tracer
        stack = tracer._stack
        stack.pop()
        tracer.spans[self._index] = Span(
            self._name, self._start, end, stack[-1] if stack else -1,
            tracer.pass_id, self._work,
        )

    def set_work(self, work: int) -> None:
        self._work = work


class _Proxy:
    """Delegates everything to ``target``; listed methods record a span."""

    def __init__(
        self,
        tracer: "Tracer",
        target: Any,
        layer: str,
        methods: dict[str, Callable[..., int] | None],
    ) -> None:
        self.__dict__["_target"] = target
        for name, count in methods.items():
            self.__dict__[name] = tracer._wrap(
                f"{layer}.{name}", getattr(target, name), count
            )

    def __getattr__(self, name: str) -> Any:
        return getattr(self.__dict__["_target"], name)

    def __setattr__(self, name: str, value: Any) -> None:
        setattr(self.__dict__["_target"], name, value)


class Tracer:
    """In-memory span recorder for the thread that created it."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def span(self, name: str, work: int = 1) -> _OpenSpan:
        return _OpenSpan(self, name, work)

    def proxy(
        self,
        target: Any,
        layer: str,
        methods: Iterable[str] | dict[str, Callable[..., int] | None],
    ) -> Any:
        """``target`` with a span named ``<layer>.<method>`` around each
        listed method.  A dict maps a method to ``count(args, result)``,
        the units of work the call carried."""
        if not isinstance(methods, dict):
            methods = dict.fromkeys(methods)
        return _Proxy(self, target, layer, methods)

    def _wrap(
        self, name: str, fn: Callable[..., Any],
        count: Callable[..., int] | None,
    ) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            # The elastic worker's heartbeat thread shares the store:
            # its calls are not part of the pass's call tree.
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            with _OpenSpan(self, name, 1) as open_span:
                result = fn(*args, **kwargs)
                if count is not None:
                    open_span.set_work(count(args, result))
            return result

        return traced

    # -- aggregation ---------------------------------------------------------

    def layer_times(self, pass_ids: Iterable[int]) -> dict[str, LayerTime]:
        """Per-name calls, inclusive time, self time and work over the
        given passes."""
        wanted = set(pass_ids)
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.pass_id in wanted and sp.parent >= 0:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, list] = {}
        for index, sp in enumerate(self.spans):
            if sp.pass_id not in wanted:
                continue
            agg = out.setdefault(sp.name, [0, 0.0, 0.0, 0])
            duration = sp.end - sp.start
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child_time[index]
            agg[3] += sp.work
        return {name: LayerTime(*agg) for name, agg in out.items()}

    def first(self, name: str, pass_id: int) -> Span | None:
        """The earliest span called ``name`` in one pass."""
        for sp in self.spans:
            if sp.pass_id == pass_id and sp.name == name:
                return sp
        return None

    def to_rows(self) -> list[list[Any]]:
        """Spans as JSON rows: name, start, end, parent, pass id, work."""
        return [list(sp) for sp in self.spans]


class NullTracer:
    """Records nothing; hands objects back unwrapped."""

    enabled = False
    _noop = nullcontext()

    def span(self, name: str, work: int = 1) -> Any:
        return self._noop

    def proxy(self, target: Any, layer: str, methods: Any) -> Any:
        return target
