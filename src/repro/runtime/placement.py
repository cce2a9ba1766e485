"""Incremental HEFT placement index (cluster-scale scheduling hot path).

The exhaustive HEFT inner loop answers, per task, *which node gives the
earliest finish* by calling :meth:`NodeTimeline.earliest_start` on every
alive node — O(tasks x nodes) timeline scans, which falls over around
100k tasks on 1,000 nodes.  This module replaces the scan with a pruned
candidate search that returns **bitwise-identical placements**:

* nodes are grouped into **equivalence classes** by the runtime-model
  inputs ``(cores, core_gflops, has_fpga)`` — a task's execution time is
  the same on every node of a class, so per-task cost models are
  evaluated once per class, not once per node;
* per ``(class, requested cores)`` the index keeps numpy arrays of
  cached lower bounds on each node's next feasible start.  Two bound
  tiers are held per node: a base bound valid for any query
  (``earliest_start(0, dmin, cores)``) and a **watermarked** bound
  ``earliest_start(r_i, dmin, cores)`` valid for queries with
  ``ready >= r_i``, where ``dmin`` is the smallest runtime any task in
  the graph requests from that (class, cores) pair.  Watermarks advance
  every time the scheduler evaluates a candidate node exactly
  (:meth:`CandidateIndex.observe`), so the bounds track the schedule
  frontier instead of decaying into useless zero-time estimates as the
  cluster saturates.  A commit invalidates nothing: added load only
  moves true starts later, so every cached bound stays a lower bound;
* candidates are yielded in ascending ``(bound, cluster index)`` order.
  The caller evaluates them exactly and stops at the first candidate
  whose bound proves no later node can beat the best finish found — the
  same ``(finish, cluster index)`` lexicographic tie-break the
  exhaustive loop implements, so pruning never changes the answer.

Bound validity (why pruning is exact): ``earliest_start`` is monotone in
both ``ready`` and ``duration`` — shrinking either only adds feasible
windows.  Hence for any query with ``ready >= r_i`` and
``duration >= dmin``, the true start is ``>= earliest_start(r_i, dmin,
cores)``; with ``r_i = 0`` this degenerates to the always-valid base
bound.

The index is rebuilt per :meth:`HEFTScheduler.schedule` call (the engine
plans into fresh scratch timelines each dispatch).  That rebuild is what
keeps the bounds valid across a *release*, which can move true starts
earlier; no release happens inside one ``schedule`` call.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.runtime.cluster import Node
from repro.runtime.timeline import NodeTimeline

ClassKey = Tuple[int, float, bool]


def node_class_key(node: Node) -> ClassKey:
    """The runtime-model equivalence class of a node.

    :func:`repro.runtime.engine.policies.task_runtime` depends on the node
    only through its core count, per-core GFLOP/s and FPGA presence, so
    two nodes sharing this key run any task in exactly the same time.
    """
    return (node.cores, node.core_gflops, node.has_fpga)


def node_classes(nodes: Iterable[Node]) -> "Dict[ClassKey, List[Node]]":
    """Group nodes by :func:`node_class_key`, preserving cluster order."""
    classes: Dict[ClassKey, List[Node]] = {}
    for node in nodes:
        classes.setdefault(node_class_key(node), []).append(node)
    return classes


class _FitArray:
    """Cached start-time lower bounds for one (class, cores) pair.

    Each node carries a small set of recorded evaluation points
    ``(r, d, f)`` with ``f = earliest_start(r, d, cores)`` at the time
    it was computed, plus a ``base`` point at ``(0, dmin)``.  A point is
    *usable* for a query iff ``r <= ready`` and ``d <= duration``
    (``earliest_start`` is monotone in both), and every stored value
    stays a lower bound even after later commits (added load only moves
    true starts later).  Points are kept one per power-of-two duration
    band above ``dmin``, because a bound recorded from a short task's
    evaluation says nothing useful about where a 20x-longer task can
    start — duration-binning keeps fragmented nodes (tiny holes only
    short tasks fit) from attracting an exact evaluation from every
    long task in a scheduling wave, and the band multiplicity doubles
    as insurance against HEFT's ready-time jitter stranding queries
    below a single advancing watermark.
    """

    BANDS = 8

    __slots__ = ("indices", "timelines", "cores", "dmin", "base",
                 "marks", "durations", "fits", "versions")

    def __init__(self, indices: List[int], timelines: List[NodeTimeline],
                 cores: int, dmin: float):
        self.indices = np.asarray(indices, dtype=np.intp)  # ascending
        self.timelines = timelines  # aligned with ``indices``
        self.cores = cores
        self.dmin = dmin
        self.base = np.fromiter(
            (tl.earliest_start(0.0, dmin, cores) for tl in timelines),
            dtype=np.float64, count=len(timelines),
        )
        # Two slots per band: rows [0, BANDS) hold a *floor probe* — a
        # bound computed at the band's floor duration ``dmin * 2^band``,
        # usable by every query in the band and refreshed (one extra
        # timeline sweep) whenever the node is re-evaluated after a
        # commit; rows [BANDS, 2*BANDS) hold the latest exact evaluation
        # (free to store, but only usable by longer queries).
        # Replacement policy is pure heuristics — usability is
        # re-checked per query, so any stored point is safe.
        n = len(timelines)
        self.marks = np.zeros((2 * self.BANDS, n))
        self.durations = np.empty((2 * self.BANDS, n))
        self.durations.fill(dmin)
        self.fits = self.base.reshape(1, n).repeat(2 * self.BANDS, axis=0)
        self.versions = np.empty((self.BANDS, n), dtype=np.int64)
        self.versions.fill(-1)

    def _band(self, duration: float) -> int:
        if self.dmin <= 0.0 or duration <= self.dmin:
            return 0
        band = int(math.log2(duration / self.dmin))
        return band if band < self.BANDS else self.BANDS - 1

    def observe(self, pos: int, ready: float, duration: float,
                start: float) -> None:
        """Record an exact evaluation as a fresh bound point.

        ``start = earliest_start(ready, duration, cores)`` was just
        computed by the caller, so storing it costs nothing.
        """
        band = self._band(duration)
        timeline = self.timelines[pos]
        version = timeline.version
        if self.versions[band, pos] != version \
                or ready > self.marks[band, pos]:
            floor = self.dmin * (1 << band)
            self.marks[band, pos] = ready
            self.durations[band, pos] = floor
            self.fits[band, pos] = timeline.earliest_start(
                ready, floor, self.cores)
            self.versions[band, pos] = version
        fresh = self.BANDS + band
        self.marks[fresh, pos] = ready
        self.durations[fresh, pos] = duration
        self.fits[fresh, pos] = start

    def bounds(self, ready: float, duration: float) -> np.ndarray:
        """Per-node start lower bounds, valid for this query."""
        ok = (self.marks <= ready) & (self.durations <= duration)
        best = np.maximum.reduce(np.where(ok, self.fits, 0.0), axis=0)
        return np.maximum(np.maximum(best, self.base), ready)


class CandidateIndex:
    """Pruned candidate-node search over live node timelines.

    ``duration_floors`` maps ``(class key, cores)`` to the smallest
    runtime any task will request from that pair — the duration baked
    into the cached bounds (a smaller value is always safe, so omitted
    pairs fall back to zero-duration bounds).
    """

    def __init__(self, nodes: List[Node],
                 timelines: Dict[str, NodeTimeline],
                 duration_floors: Dict[Tuple[ClassKey, int], float]
                 = None):
        self.nodes = list(nodes)
        self.timelines = [timelines[node.name] for node in self.nodes]
        self.duration_floors = duration_floors or {}
        #: Class key of each cluster index.
        self.class_of = [node_class_key(node) for node in self.nodes]
        self._class_members: Dict[ClassKey, List[int]] = {}
        for index, key in enumerate(self.class_of):
            self._class_members.setdefault(key, []).append(index)
        self._arrays: Dict[Tuple[ClassKey, int], _FitArray] = {}
        # Position of a cluster index within its class member list (every
        # array of a class is aligned with that list).
        self._pos: Dict[int, int] = {}
        for members in self._class_members.values():
            for pos, index in enumerate(members):
                self._pos[index] = pos

    def observe(self, index: int, cores: int, ready: float,
                duration: float, start: float) -> None:
        """Sharpen one node's bound after an exact ``earliest_start``."""
        array = self._arrays.get((self.class_of[index], cores))
        if array is not None:
            array.observe(self._pos[index], ready, duration, start)

    def _array(self, key: ClassKey, cores: int) -> _FitArray:
        array = self._arrays.get((key, cores))
        if array is None:
            members = self._class_members[key]
            dmin = self.duration_floors.get((key, cores), 0.0)
            array = _FitArray(members,
                              [self.timelines[i] for i in members],
                              cores, dmin)
            self._arrays[(key, cores)] = array
        return array

    def _class_candidates(self, key: ClassKey, cores: int, ready: float,
                          runtime: float) -> Iterator[Tuple[float, int,
                                                            float]]:
        """``(bound, cluster_index, runtime)`` in pruning order."""
        array = self._array(key, cores)
        bounds = array.bounds(ready, runtime) + runtime
        # Indices ascend within a class, so a stable sort by bound alone
        # is the (bound, index) order; the caller compares Python floats.
        order = bounds.argsort(kind="stable")
        return zip(bounds[order].tolist(), array.indices[order].tolist(),
                   repeat(runtime))

    def candidates(self, feasible: Dict[ClassKey, float],
                   cores: int, ready: float) -> Iterator[Tuple[float, int,
                                                               float]]:
        """Candidates across classes, ascending by ``(bound, index)``.

        ``feasible`` maps each eligible class key to the task's
        runtime on that class.  Every yielded ``bound`` satisfies
        ``bound <= earliest_start(...) + runtime`` for its node, and the
        stream is sorted, so a caller holding a best ``(finish, index)``
        may stop at the first candidate with ``bound > finish`` (or
        ``bound == finish`` and ``index >=`` the best index): no later
        candidate can improve on the lexicographic best.
        """
        streams = [self._class_candidates(key, cores, ready, runtime)
                   for key, runtime in feasible.items()]
        if len(streams) == 1:
            return streams[0]
        # A cluster index belongs to one class, so the tuple comparison
        # is decided by (bound, index) and never reaches the runtime.
        return heapq.merge(*streams)
