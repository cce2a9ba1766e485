"""Hierarchical span tracing with a context-propagated current span.

A :class:`Span` is one timed operation: name, integer id, parent id,
key/value attributes, and a start/duration pair on one of two clocks —
``WALL`` (``time.perf_counter`` seconds since the tracer's epoch) or
``VIRTUAL`` (the runtime engine's simulated seconds).  Spans nest
through a :mod:`contextvars` variable, so a stage span started inside a
serve request span automatically records the request as its parent
without any plumbing through intermediate call signatures.

Two tracer implementations share the interface:

* :class:`Tracer` records finished spans into a thread-safe list for
  the exporters in :mod:`repro.telemetry.export`;
* :class:`NullTracer` — the process default — does nothing.  Its
  ``span()`` returns one immortal singleton whose ``__enter__`` /
  ``__exit__`` / ``set`` are empty methods, so an instrumented hot path
  costs two attribute lookups and a method call when telemetry is off.
  Sites that would build attribute dicts check ``tracer.enabled``
  first and skip even that.

The active tracer is process-global (:func:`get_tracer` /
:func:`set_tracer`); instrumented code looks it up per call, so
enabling tracing mid-process (the CLI's ``--trace``) needs no session
rebuild.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Type, Union

#: Clock domains a span can live on.
WALL = "wall"
VIRTUAL = "virtual"

AttrValue = Union[str, int, float, bool, None]


class Span:
    """One finished (or in-flight) traced operation."""

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "attrs", "clock", "category", "track", "thread_name")

    def __init__(self, name: str, span_id: int, parent_id: int,
                 start: float, duration: float,
                 attrs: Optional[Dict[str, AttrValue]] = None, *,
                 clock: str = WALL, category: str = "",
                 track: str = "", thread_name: str = "") -> None:
        self.name = name
        self.span_id = span_id
        #: 0 means "root" (span ids start at 1).
        self.parent_id = parent_id
        self.start = start
        self.duration = duration
        self.attrs: Dict[str, AttrValue] = attrs if attrs is not None else {}
        self.clock = clock
        self.category = category
        #: Virtual-clock lane (e.g. the cluster node name); the Chrome
        #: exporter maps each distinct track to its own tid.
        self.track = track
        self.thread_name = thread_name

    def set(self, key: str, value: AttrValue) -> None:
        """Attach one attribute (post-creation; e.g. a status code)."""
        self.attrs[key] = value

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"parent={self.parent_id}, {self.duration * 1e3:.3f}ms, "
                f"clock={self.clock})")


_CURRENT: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "repro-telemetry-current-span", default=None)


def current_span() -> Optional[Span]:
    """The innermost active span on this thread/context, if any."""
    return _CURRENT.get()


class _ActiveSpan:
    """Context manager driving one recorded span's lifetime."""

    __slots__ = ("_tracer", "span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._token: Optional[contextvars.Token] = None  # type: ignore[type-arg]

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self.span)
        self.span.start = time.perf_counter() - self._tracer.epoch
        return self.span

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        span = self.span
        span.duration = (time.perf_counter() - self._tracer.epoch
                         - span.start)
        if exc is not None:
            span.attrs["error"] = type(exc).__name__
        if self._token is not None:
            _CURRENT.reset(self._token)
        span.thread_name = threading.current_thread().name
        self._tracer._store(span)


class _NullSpan:
    """The do-nothing span singleton the :class:`NullTracer` hands out."""

    __slots__ = ()

    span_id = 0
    parent_id = 0
    name = ""
    clock = WALL
    duration = 0.0

    @property
    def attrs(self) -> Dict[str, AttrValue]:
        # A fresh throwaway dict: writes must not accumulate anywhere.
        return {}

    def set(self, key: str, value: AttrValue) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        pass


_NULL_SPAN = _NullSpan()

SpanLike = Union[Span, _NullSpan]


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False

    def span(self, name: str, *,
             attrs: Optional[Dict[str, AttrValue]] = None,
             parent: Optional[SpanLike] = None,
             category: str = "") -> _NullSpan:
        return _NULL_SPAN

    def record_span(self, name: str, start: float, end: float, *,
                    clock: str = VIRTUAL,
                    parent: Optional[SpanLike] = None,
                    attrs: Optional[Dict[str, AttrValue]] = None,
                    category: str = "", track: str = "") -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> List[Span]:
        return []

    def clear(self) -> None:
        pass


class Tracer:
    """A recording tracer: spans land in a thread-safe in-memory list.

    ``epoch`` is the ``perf_counter`` value at construction; every wall
    span's ``start`` is relative to it, so exported timestamps are
    small, positive and comparable across threads.
    """

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self._spans: List[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- recording ---------------------------------------------------------------------

    def span(self, name: str, *,
             attrs: Optional[Dict[str, AttrValue]] = None,
             parent: Optional[SpanLike] = None,
             category: str = "") -> _ActiveSpan:
        """A context manager timing one wall-clock operation.

        ``parent`` overrides the context-propagated current span —
        needed when the operation runs on a worker thread that did not
        inherit the submitting context (tile workers).
        """
        up = parent if parent is not None else _CURRENT.get()
        span = Span(name, next(self._ids),
                    up.span_id if up is not None else 0,
                    0.0, 0.0, attrs, category=category)
        return _ActiveSpan(self, span)

    def record_span(self, name: str, start: float, end: float, *,
                    clock: str = VIRTUAL,
                    parent: Optional[SpanLike] = None,
                    attrs: Optional[Dict[str, AttrValue]] = None,
                    category: str = "", track: str = "") -> Span:
        """Record one span with explicit start/end times.

        This is the runtime engine's path: its task executions happen on
        a *simulated* clock, so there is nothing to measure — the span
        is the committed placement interval itself (``clock=VIRTUAL``).
        Explicit wall times are accepted too (``clock=WALL``) for
        operations timed outside a ``with`` block.
        """
        up = parent if parent is not None else _CURRENT.get()
        span = Span(name, next(self._ids),
                    up.span_id if up is not None else 0,
                    start, end - start, attrs, clock=clock,
                    category=category, track=track,
                    thread_name=threading.current_thread().name)
        self._store(span)
        return span

    def _store(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- inspection --------------------------------------------------------------------

    def spans(self) -> List[Span]:
        """A snapshot of every finished span, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans())


NULL_TRACER = NullTracer()

_GLOBAL: Union[Tracer, NullTracer] = NULL_TRACER
_GLOBAL_LOCK = threading.Lock()


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide active tracer (the no-op singleton by default)."""
    return _GLOBAL


def set_tracer(tracer: Union[Tracer, NullTracer]) -> None:
    """Install ``tracer`` as the process-wide active tracer."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        _GLOBAL = tracer


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) a recording tracer as the process tracer."""
    recording = tracer if tracer is not None else Tracer()
    set_tracer(recording)
    return recording


def disable() -> None:
    """Restore the no-op tracer."""
    set_tracer(NULL_TRACER)
