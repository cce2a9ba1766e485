"""Spans recorded by the benchmark around calls into each layer.

The program is not edited: a :class:`Recorder` wraps public functions
from outside (:meth:`Recorder.patch`) and workloads open spans around
their own calls.  Spans stay in memory and are written once, at exit, as
Chrome trace-event JSON (loads in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from bench.estimator import self_time_by_name


@dataclass
class Span:
    """One timed call: ``op`` is the id of the root span of its op."""

    id: int
    parent: int
    op: int
    name: str
    thread: str
    start: float
    end: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; costs one attribute test when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, parent: int = 0) -> Iterator[Optional[Span]]:
        """Time the body as a child of the thread's open span.

        ``parent`` links a span to one opened on another thread (the
        server side of a request); its op is then that parent.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent:
            op = parent
        elif stack:
            parent, op = stack[-1].id, stack[-1].op
        else:
            op = 0
        span = Span(next(self._ids), parent, op, name,
                    threading.current_thread().name, time.perf_counter())
        if not span.op:
            span.op = span.id
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, function: Callable, name: str,
             annotate: Optional[Callable[[Span, tuple, Any], None]] = None
             ) -> Callable:
        """``function`` with a span ``name`` around every call.

        ``annotate(span, args, result)`` may store counts on the span.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            with self.span(name) as span:
                result = function(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              annotate: Optional[Callable[[Span, tuple, Any], None]] = None
              ) -> None:
        """Replace ``owner.attr`` by its :meth:`wrap`-ped form."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, annotate))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def per_op(self) -> Tuple[int, Dict[str, float], Dict[str, float]]:
        """``(ops, self seconds per op by name, inclusive seconds per op
        by name)`` over the recorded spans; roots are named ``"op"``.

        The self times of all names add up to the mean op latency.
        """
        ops = sum(1 for span in self.spans if span.name == "op")
        own = self_time_by_name([
            (span.id, span.parent, span.name, span.start, span.end)
            for span in self.spans])
        inclusive: Dict[str, float] = {}
        for span in self.spans:
            inclusive[span.name] = inclusive.get(span.name, 0.0) \
                + span.seconds
        return (ops, {name: total / ops for name, total in own.items()},
                {name: total / ops for name, total in inclusive.items()})


def write_chrome_trace(path: str, spans: List[Span]) -> None:
    """Write ``spans`` as Chrome trace-event JSON (complete events)."""
    if not spans:
        epoch = 0.0
    else:
        epoch = min(span.start for span in spans)
    lanes: Dict[str, int] = {}
    events = []
    for span in spans:
        lane = lanes.setdefault(span.thread, len(lanes) + 1)
        events.append({
            "name": span.name, "ph": "X", "pid": 1, "tid": lane,
            "ts": (span.start - epoch) * 1e6, "dur": span.seconds * 1e6,
            "args": {"id": span.id, "parent": span.parent, "op": span.op,
                     **span.args},
        })
    for thread, lane in lanes.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": lane, "args": {"name": thread}})
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
