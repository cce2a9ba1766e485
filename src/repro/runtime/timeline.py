"""Core-capacity timeline index for one node (§VI-A placement hot path).

The resource manager answers one question thousands of times per schedule:
*given everything already committed to this node, when is the earliest
start for a task needing C cores for D seconds?*  The seed implementation
rescanned the full interval list for every candidate start — O(intervals²)
per query.  This module replaces it with an **event-sweep free-slot
index**: commitments are folded into a sorted breakpoint array holding the
core-usage level of every segment, ended by a permanent ``+inf``
breakpoint at level 0.  A query is one bisect plus a forward sweep
(O(intervals) worst case) that the sentinel ends, and a commit is one
bisect per endpoint plus a coalescing test at each of the two.

The :class:`~repro.runtime.engine.RuntimeEngine` owns one timeline per
node and is the only thing that creates them; every policy
(:mod:`repro.runtime.engine.policies`) queries and commits into the
ones it is handed.  The engine additionally needs
:meth:`NodeTimeline.release` (to free reservations lost to a node
failure) and :meth:`NodeTimeline.load_after` (live load for the
``min-load`` dispatch policy).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from typing import List, Tuple

from repro.errors import RuntimeSchedulingError


class NodeTimeline:
    """Event-sweep index of committed core usage on one node.

    Invariants: ``_times`` is sorted and unique and always ends with the
    sentinel ``+inf``, whose level ``_levels[-1]`` is 0; ``_levels[i]`` is
    the number of cores in use over ``[_times[i], _times[i+1])``, and the
    usage before ``_times[0]`` is 0, which is the sentinel's level, so
    ``_levels[i - 1]`` is right at ``i = 0`` too.  Every commitment is
    finite (the engine refuses non-finite task costs), so the segment
    before the sentinel has level 0 and a sweep stops there at the
    latest.  Adjacent segments always have *different* levels (redundant
    breakpoints are coalesced away, so the index cannot grow without
    bound under commit/release churn).

    ``version`` increments on every :meth:`commit`/:meth:`release`; the
    incremental HEFT placer (:mod:`repro.runtime.placement`) compares it
    to decide when a node's floor-probe bound is worth recomputing.
    """

    def __init__(self, node):
        self.node = node
        self.version = 0
        self._times: List[float] = [math.inf]
        self._levels: List[int] = [0]
        # Every commitment as (end, start, cores), sorted: the record
        # release() validates against, ordered by end time so
        # load_after() can bisect to the still-outstanding suffix
        # instead of scanning history.
        self._by_end: List[Tuple[float, float, int]] = []

    @property
    def intervals(self) -> List[Tuple[float, float, int]]:
        """The committed ``(start, end, cores)`` intervals, by end time."""
        return [(start, end, cores) for end, start, cores in self._by_end]

    @property
    def committed(self) -> int:
        """How many commitments are outstanding (commits less releases)."""
        return len(self._by_end)

    def peak_usage(self, t0: float, t1: float) -> int:
        """Peak core usage over ``[t0, t1)`` (0 if it is empty)."""
        if t1 <= t0:
            return 0
        times, levels = self._times, self._levels
        i = bisect_right(times, t0)
        peak = levels[i - 1]
        while times[i] < t1:
            if levels[i] > peak:
                peak = levels[i]
            i += 1
        return peak

    def earliest_start(self, ready: float, duration: float,
                       cores: int) -> float:
        """Earliest ``t >= ready`` with ``cores`` free over ``[t, t+duration)``.

        Unlike the seed scan, the search always extends past the last
        committed interval (where the node is idle), so a feasible request
        is *never* silently overcommitted; an infeasible one — more cores
        than the node physically has — raises instead of being placed.
        """
        limit = self.node.cores - cores
        if limit < 0:
            raise RuntimeSchedulingError(
                f"task needs {cores} cores but node {self.node.name!r} "
                f"only has {self.node.cores}"
            )
        times, levels = self._times, self._levels
        start = ready
        # ``start`` lies in the segment ending at ``times[i]``, at level
        # ``levels[i - 1]``.
        i = bisect_right(times, start)
        while True:
            if levels[i - 1] > limit:
                start = times[i]  # blocked: resume where this segment ends
            elif start + duration <= times[i]:
                return start
            i += 1

    def commit(self, start: float, duration: float, cores: int) -> None:
        end = start + duration
        self.version += 1
        insort(self._by_end, (end, start, cores))
        self._apply(start, end, cores)

    def release(self, start: float, duration: float, cores: int) -> None:
        """Undo a prior :meth:`commit` (a reservation lost to a failure)."""
        end = start + duration
        try:
            self._by_end.remove((end, start, cores))
        except ValueError:
            raise RuntimeSchedulingError(
                f"no committed interval ({start}, {end}, {cores}) on "
                f"node {self.node.name!r}"
            ) from None
        self.version += 1
        self._apply(start, end, -cores)

    def _apply(self, start: float, end: float, cores: int) -> None:
        if end <= start or cores == 0:
            return
        times, levels = self._times, self._levels
        # Split the segments holding ``start`` and ``end`` (the sentinel
        # guarantees a breakpoint at or after each).
        i0 = bisect_left(times, start)
        if times[i0] != start:
            times.insert(i0, start)
            levels.insert(i0, levels[i0 - 1])
        i1 = bisect_left(times, end, i0)
        if times[i1] != end:
            times.insert(i1, end)
            levels.insert(i1, levels[i1 - 1])
        for i in range(i0, i1):
            levels[i] += cores
        # Adding one amount over [i0, i1) keeps every difference inside
        # the range, so only the breakpoints at its two ends can have
        # become redundant (a level equal to its predecessor's).  Without
        # this, commit/release churn (mid-run failure recovery) leaves
        # stale breakpoints behind and the index drifts away from a
        # freshly-built timeline.
        if levels[i1] == levels[i1 - 1]:
            del times[i1]
            del levels[i1]
        if levels[i0] == levels[i0 - 1]:
            del times[i0]
            del levels[i0]

    def clone(self) -> "NodeTimeline":
        """An independent copy (scratch planning that may be discarded)."""
        copy = NodeTimeline(self.node)
        copy.version = self.version
        copy._times = list(self._times)
        copy._levels = list(self._levels)
        copy._by_end = list(self._by_end)
        return copy

    def load_after(self, now: float) -> float:
        """Committed core-seconds still outstanding after ``now``."""
        i = bisect_right(self._by_end, (now, math.inf, 0))
        return sum([(e - (s if s > now else now)) * c
                    for e, s, c in self._by_end[i:]])
