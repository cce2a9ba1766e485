"""Discrete-event machinery: the simulated clock and the event queue.

The :class:`~repro.runtime.engine.RuntimeEngine` advances a simulated
clock from event to event.  Ties at the same timestamp are broken by a
fixed kind priority:

* a task *finishing* at ``t`` survives a node failure at ``t``
  (``finish <= failure_time`` results are kept);
* failures are detected before new work is dispatched or started;
* heartbeats observe the state *after* everything else at ``t`` happened.

Within one ``(time, kind)`` bucket a monotone sequence number decides,
so the queue is a **deterministic total order**: two events can never
compare equal, and same-kind events at the same timestamp pop in push
order regardless of heap internals.  This is what makes streaming
``submit_at`` calls with identical timestamps execute in submission
order (their callbacks fire in push order, and each submission lands in
the task graph — and the ready queue — before the next callback runs),
and it is why a fuzzer re-running a seed sees the identical schedule.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, NamedTuple, Optional

from repro.errors import RuntimeSchedulingError

TASK_FINISH = "task-finish"
NODE_FAILURE = "node-failure"
CALLBACK = "callback"
DISPATCH = "dispatch"
TASK_START = "task-start"
HEARTBEAT = "heartbeat"

_PRIORITY = {
    TASK_FINISH: 0,
    NODE_FAILURE: 1,
    CALLBACK: 2,
    DISPATCH: 3,
    TASK_START: 4,
    HEARTBEAT: 5,
}


class Event(NamedTuple):
    """Ordered by ``(time, priority, seq)``: ``seq`` is unique per queue,
    so a comparison never reaches ``kind`` or ``payload``."""

    time: float
    priority: int
    seq: int
    kind: str
    payload: Any = None


class SimClock:
    """Monotonic simulated time."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def advance(self, to: float) -> None:
        if to < self.now - 1e-12:
            raise RuntimeSchedulingError(
                f"simulated clock cannot run backwards "
                f"({self.now} -> {to})"
            )
        if to > self.now:
            self.now = to


class EventQueue:
    """A heap of :class:`Event` ordered by (time, kind priority, seq)."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()

    def push(self, time: float, kind: str, payload: Any = None) -> Event:
        if kind not in _PRIORITY:
            raise RuntimeSchedulingError(f"unknown event kind {kind!r}")
        event = Event(time, _PRIORITY[kind], next(self._seq), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        return heapq.heappop(self._heap)

    def peek_time(self) -> Optional[float]:
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
