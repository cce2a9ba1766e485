"""Core-capacity timeline index for one node (§VI-A placement hot path).

The resource manager answers one question thousands of times per schedule:
*given everything already committed to this node, when is the earliest
start for a task needing C cores for D seconds?*  The seed implementation
rescanned the full interval list for every candidate start — O(intervals²)
per query.  This module replaces it with an **event-sweep free-slot
index**: commitments are folded into a sorted breakpoint array holding the
core-usage level of every segment, so a query is a single bisect plus one
forward sweep (O(intervals) worst case, O(log intervals) to locate the
first segment), and a commit is a bisect-insert.

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

    Invariants: ``_times`` is sorted and unique; ``_levels[i]`` is the
    number of cores in use over ``[_times[i], _times[i+1])`` (the last
    segment extends to infinity and always has level 0, because every
    committed interval eventually ends); adjacent segments always have
    *different* levels (redundant breakpoints are coalesced away, so the
    index cannot grow without bound under commit/release churn).

    ``version`` increments on every :meth:`commit`/:meth:`release`; the
    incremental HEFT placer (:mod:`repro.runtime.placement`) compares it
    to decide when a node's floor-probe bound is worth recomputing.
    """

    def __init__(self, node):
        self.node = node
        self.version = 0
        self._times: List[float] = []
        self._levels: List[int] = []
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

    def _ensure_breakpoint(self, t: float) -> int:
        """Index of the breakpoint at ``t``, splitting a segment if needed."""
        i = bisect_left(self._times, t)
        if i < len(self._times) and self._times[i] == t:
            return i
        level = self._levels[i - 1] if i > 0 else 0
        self._times.insert(i, t)
        self._levels.insert(i, level)
        return i

    def peak_usage(self, t0: float, t1: float) -> int:
        """Peak core usage over ``[t0, t1)``."""
        if not self._times:
            return 0
        i = max(0, bisect_right(self._times, t0) - 1)
        peak = 0
        while i < len(self._times) and self._times[i] < t1:
            peak = max(peak, self._levels[i])
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
        capacity = self.node.cores
        if cores > capacity:
            raise RuntimeSchedulingError(
                f"task needs {cores} cores but node {self.node.name!r} "
                f"only has {capacity}"
            )
        n = len(self._times)
        if n == 0:
            return ready
        start = ready
        i = bisect_right(self._times, start) - 1
        while True:
            if i >= n:
                return start  # past every breakpoint: the node is idle
            if i < 0:
                level, seg_end = 0, self._times[0]
            else:
                level = self._levels[i]
                seg_end = self._times[i + 1] if i + 1 < n else math.inf
            if level + cores > capacity:
                start = seg_end  # blocked: resume where this segment ends
                i += 1
                continue
            if start + duration <= seg_end:
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
        i0 = self._ensure_breakpoint(start)
        i1 = self._ensure_breakpoint(end)
        for i in range(i0, i1):
            self._levels[i] += cores
        # Coalesce breakpoints made redundant by this update — a segment
        # whose level now equals its predecessor's, or a leading segment
        # at the implicit level 0.  Without this, commit/release churn
        # (mid-run failure recovery) leaves stale breakpoints behind and
        # the index drifts away from a freshly-built timeline.
        for i in range(min(i1, len(self._times) - 1), i0 - 1, -1):
            if self._levels[i] == (self._levels[i - 1] if i > 0 else 0):
                del self._times[i]
                del self._levels[i]

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
