"""Discrete-event machinery: the event order.

The :class:`~repro.runtime.engine.RuntimeEngine` advances its simulated
time ``now`` from event to event.  An event is a plain tuple
``(time, kind, seq, subject, epoch)`` on a :mod:`heapq` list, so queueing
one costs one ``heappush`` and taking it one ``heappop``: no event
object is built and no queue method is called.  ``subject`` is the
task's engine record for a start or finish (``epoch`` the placement it
belongs to), the callback of a ``call_at``, or the name of a failing
node.

A kind is an int that doubles as its priority, so ties at the same
timestamp are broken by a fixed kind order:

* a task *finishing* at ``t`` survives a node failure at ``t``
  (``finish <= failure_time`` results are kept);
* failures are detected before new work is dispatched or started.

Within one ``(time, kind)`` bucket a monotone sequence number decides,
so the queue is a **deterministic total order**: two events can never
compare equal (a comparison never reaches ``subject``), and same-kind
events at the same timestamp pop in push order regardless of heap
internals.  This is what makes streaming ``submit_at`` calls with
identical timestamps execute in submission order (their callbacks fire
in push order, and each submission lands in the task graph — and the
ready queue — before the next callback runs), and it is why a fuzzer
re-running a seed sees the identical schedule.
"""

from __future__ import annotations

TASK_FINISH = 0
NODE_FAILURE = 1
CALLBACK = 2
DISPATCH = 3
TASK_START = 4

