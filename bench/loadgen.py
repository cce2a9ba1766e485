"""The measuring loop: calibrated segments, CPU share, exact call counts.

Runs inside a workload child process (``bench.child``).  A workload hands
out *blocks* of ops (about 100 ms, or one block of requests); this module
brackets each block with a host-speed calibration and the process CPU
clock and turns it into a :class:`~bench.estimator.Segment`.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, ContextManager, List, Optional, Sequence, Tuple

import numpy as np

from bench.estimator import Pair, Segment

#: Work of one calibration, over three arrays of ``CAL_ELEMENTS`` doubles.
#: Compute: iterations of an interpreter loop, then a vectorised add and
#: multiply.  Native: a running sum and a division, which compiled code
#: does one element at a time.
CAL_LOOP_ITERS = 20_000
CAL_ELEMENTS = 600_000

#: Ops are grouped into segments of about this much wall time.
SEGMENT_S = 0.1

_arrays: List[np.ndarray] = []


def calibrate() -> Pair:
    """Seconds two fixed pieces of work take right now: the host's speed
    at what the interpreter-bound workloads do and at what
    ``exec_stream`` does.

    Neighbours on the host slow different kinds of work by different
    amounts, so a workload is rescaled by the part that moves as its ops
    do (:func:`bench.estimator.host_speed`).  The compute part is half
    interpreter and half memory streaming: their sum tracks the
    interpreter-bound ops (which allocate and chase pointers) better than
    the loop alone.  ``exec_stream``'s op, scalar compiled loops, moves
    0.8 - 1.0 % for every 1 % the native part moves, but only 0.2 - 0.4 %
    per 1 % of the loop and 0.3 - 0.6 % per 1 % of the vectorised passes.
    """
    if not _arrays:
        _arrays.extend((np.linspace(1.0, 2.0, CAL_ELEMENTS),
                        np.ones(CAL_ELEMENTS), np.empty(CAL_ELEMENTS)))
    x, y, out = _arrays
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP_ITERS):
        total += i * i % 7
    np.add(x, y, out=out)
    np.multiply(out, y, out=out)
    middle = time.perf_counter()
    np.cumsum(x, out=out)
    np.divide(out, x, out=out)
    return middle - start, time.perf_counter() - middle


def cpu_seconds() -> Pair:
    """User and system CPU time of this process and of the children it
    has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + children.ru_utime,
            own.ru_stime + children.ru_stime)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Block:
    """What a workload returns for one segment.

    ``verify`` checks the outputs of the block's ops and returns how many
    failed; it runs after the clocks are read, outside the timed region.
    """

    latencies_s: List[float]
    #: Which kind of op each latency belongs to (a kernel shape, a request,
    #: a workflow): ops of one kind do the same work every time.
    kinds: List[int]
    verify: Callable[[], int]


def timed_ops(op: Callable[[], Tuple[int, object]], ops: Optional[int]
              ) -> Tuple[List[float], List[int], List[object]]:
    """Run ``op`` for one segment on the calling thread; ``op`` returns
    its kind and whatever ``verify`` needs.

    With ``ops`` given exactly that many calls are made (the counted
    child, where work must not depend on speed); otherwise calls repeat
    until :data:`SEGMENT_S` has passed.
    """
    latencies: List[float] = []
    kinds: List[int] = []
    results: List[object] = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        kind, result = op()
        end = time.perf_counter()
        latencies.append(end - start)
        kinds.append(kind)
        results.append(result)
        if len(latencies) == ops or (ops is None
                                     and end - begin >= SEGMENT_S):
            return latencies, kinds, results


def measure(workload, seconds: float,
            around: Callable[[int], ContextManager] = lambda i: nullcontext(),
            at_least: int = 1) -> Tuple[List[Segment], int]:
    """Run blocks for ``seconds`` (and ``at_least`` that many blocks);
    returns the segments and the number of failed ops.

    ``around(i)`` brackets block ``i`` (the traced child switches span
    recording and the program's tracer per block).
    """
    deadline = time.perf_counter() + seconds
    segments: List[Segment] = []
    failed = 0
    before = calibrate()
    while len(segments) < at_least or time.perf_counter() < deadline:
        with around(len(segments)):
            cpu_start, wall_start = cpu_seconds(), time.perf_counter()
            block = workload.block()
            wall_end, cpu_end = time.perf_counter(), cpu_seconds()
        after = calibrate()
        failed += block.verify()
        segments.append(Segment(
            block.latencies_s, block.kinds, before, after,
            (cpu_end[0] - cpu_start[0], cpu_end[1] - cpu_start[1]),
            wall_end - wall_start))
        before = after
    return segments, failed


class CallCounter:
    """Counts Python and C call events on every thread that is not excluded.

    ``sys.setprofile`` hooks are per thread.  :meth:`install` arranges for
    threads started later to count (server handlers, engine workers);
    :meth:`count_here` adds the calling thread.  Each thread owns its
    cell, so no update is lost to a thread switch.
    """

    def __init__(self, excluded_prefixes: Sequence[str] = ()) -> None:
        self.excluded = tuple(excluded_prefixes)
        self._cells: List[List[int]] = []

    def _hook(self) -> Callable:
        cell = [0]
        self._cells.append(cell)

        def hook(frame, event, arg):
            if event == "call" or event == "c_call":
                cell[0] += 1

        return hook

    def _on_thread_start(self, frame, event, arg) -> None:
        if threading.current_thread().name.startswith(self.excluded):
            sys.setprofile(None)
        else:
            sys.setprofile(self._hook())

    def install(self) -> None:
        threading.setprofile(self._on_thread_start)

    def count_here(self) -> None:
        sys.setprofile(self._hook())

    @staticmethod
    def stop_here() -> None:
        sys.setprofile(None)

    def total(self) -> int:
        return sum(cell[0] for cell in self._cells)
