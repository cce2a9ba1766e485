"""Reference implementations the tests, fuzzers and benchmarks compare against.

Each one is the simple, slow algorithm a production path in ``src/repro``
replaced.  They are test infrastructure, not product code: nothing under
``src/`` imports this module, and nothing here is reachable from the CLI
or the daemon.

* :func:`apply_patterns_sweep` — the full-sweep greedy rewrite driver
  that :func:`repro.ir.rewrite.apply_patterns_worklist` superseded
  (differential in ``tests/ir/test_rewrite.py``, speedup budget in
  ``benchmarks/bench_ir_canonicalize.py``);
* :func:`dce_sweep` — the standalone dead-code sweep (re-walk the whole
  module until a walk erases nothing) that the worklist's
  :class:`repro.ir.canonicalize.EraseTriviallyDead` superseded ("nothing
  left dead" checks in ``tests/ir/test_canonicalize.py`` and
  ``tests/ir/test_golden.py``);
* :func:`analyze_module_fixpoint` — the run-to-fixpoint abstract
  interpreter (every pass re-visits every op until one changes nothing)
  that the single forward pass of :func:`repro.ir.verifier.verify_typed`
  superseded (value-by-value differential in
  ``tests/ir/test_analysis.py``);
* :func:`list_schedule_scan` — HLS list scheduling that rescans every
  unscheduled node on every cycle, which the event-driven ready list of
  :func:`repro.hls.scheduling.list_schedule` superseded (``Schedule``
  differential on random DFGs and on the nests of Fig. 3 and the
  benchmark corpus in ``tests/test_hls.py``);
* :class:`ScanHEFT` — HEFT with the exhaustive per-task node scan that
  :class:`repro.runtime.engine.HEFTScheduler`'s pruned candidate
  search superseded (``tools/workloadfuzz.py`` invariant 5,
  ``tests/test_runtime_engine.py``, ``benchmarks/bench_runtime_engine.py``);
* :func:`dependency_respecting_walk` — the full walk behind
  :func:`repro.runtime.taskgraph.dependency_order` (the order of
  ``TaskGraph.topological_order`` and of HEFT), which skips the walk
  where submission or rank order already settles it (200 random DAGs in
  ``tests/test_runtime_engine.py``);
* :class:`ScanTimeline` — the per-node placement timeline that re-scans
  every committed interval on each query, which the event-sweep index
  :class:`repro.runtime.timeline.NodeTimeline` superseded (placement
  differential in ``tests/test_runtime_engine.py``, speedup budget in
  ``benchmarks/bench_runtime_engine.py``).

The two scheduling oracles are driven the way the engine drives a
policy, with all four arguments: ``schedule(graph, cluster, ready,
timelines)``.  :func:`fresh_timelines` builds the empty timelines of a
standalone differential; nothing under ``src/`` fills them in by default.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import HLSError, IRError, RuntimeSchedulingError
from repro.hls.scheduling import BodyDFG, Schedule, alap, schedule_from
from repro.ir.analysis import (
    TOP,
    AbstractValue,
    AnalysisError,
    ModuleAnalysis,
    _meet,
    from_type,
    op_path,
)
from repro.ir.core import Module, Operation
from repro.ir.dialect import REGISTRY, DialectRegistry
from repro.ir.rewrite import PatternRewriter, RewritePattern, is_attached
from repro.runtime.cluster import Cluster, Node
from repro.runtime.engine.policies import (
    HEFTScheduler,
    Placement,
    PlanCosts,
    ScheduleResult,
    can_host,
    task_runtime,
    unplaceable,
)
from repro.runtime.taskgraph import Task, TaskGraph
from repro.runtime.timeline import NodeTimeline


def apply_patterns_sweep(
    module: Module,
    patterns: Iterable[RewritePattern],
    max_iterations: int = 32,
) -> bool:
    """Greedy full-sweep driver: apply ``patterns`` until fixpoint.

    Returns True when any pattern fired.  Patterns must be confluent enough
    to converge within ``max_iterations`` sweeps; exceeding the cap raises.

    Each sweep snapshots the op list up front, so an op can be visited
    after an *ancestor* was erased; those ops have already been detached
    from the def-use graph (empty operand lists) and must not be offered
    to patterns.  A plain ``op.parent is None`` check only catches the
    erased op itself — nested ops keep their block pointers — so the
    whole ancestor chain is verified (:func:`repro.ir.rewrite.is_attached`).

    Every sweep re-visits every op: O(ops x iterations), which is why the
    worklist driver replaced it (``make bench-ir`` measures the two).
    """
    patterns = list(patterns)
    changed_ever = False
    for _ in range(max_iterations):
        fired = False
        rewriter = PatternRewriter()
        for op in list(module.walk()):
            if op is not module.op and not is_attached(op, module.op):
                continue  # erased (or inside an erased ancestor) this sweep
            for pattern in patterns:
                if pattern.op_name is not None and op.name != pattern.op_name:
                    continue
                if pattern.match_and_rewrite(op, rewriter):
                    fired = True
                    break
        if not fired:
            return changed_ever
        changed_ever = True
    raise IRError(
        f"pattern application did not converge in {max_iterations} sweeps")


def dce_sweep(module: Module) -> bool:
    """Erase pure ops whose results are all unused, re-walking the whole
    module until a walk erases nothing; returns whether anything was.

    Ops carrying the ``interface`` trait (kernel arguments, declarations)
    are part of a function's contract and survive even when unused.
    """
    opdefs = REGISTRY.opdefs
    changed = False
    progress = True
    while progress:
        progress = False
        for op in list(module.walk()):
            if not op.results or op.parent is None:
                continue
            for result in op.results:
                if result.uses:
                    break
            else:
                opdef = opdefs.get(op.name)
                if (opdef is not None and "pure" in opdef.traits
                        and "interface" not in opdef.traits):
                    op.erase()
                    progress = changed = True
    return changed


@dataclass
class FixpointAnalysis(ModuleAnalysis):
    """What :func:`analyze_module_fixpoint` returns: the facts and the
    number of whole-module passes it made."""

    iterations: int = 0


def analyze_module_fixpoint(
    module: Module,
    registry: Optional[DialectRegistry] = None,
    max_iterations: int = 8,
) -> FixpointAnalysis:
    """Abstract interpretation by whole-module passes until one pass
    changes no value (so at least two, the last only confirming)."""
    reg = registry if registry is not None else REGISTRY
    analysis = FixpointAnalysis()
    for iteration in range(1, max_iterations + 1):
        analysis.iterations = iteration
        if not _fixpoint_visit(module.op, reg, analysis):
            return analysis
    raise AnalysisError(
        f"analysis did not converge after {max_iterations} iterations")


def _fixpoint_visit(op: Operation, registry: DialectRegistry,
                    analysis: ModuleAnalysis) -> bool:
    operands = [analysis.of(operand) for operand in op.operands]
    opdef = registry.opdef_for(op)
    inferred: Optional[Sequence[AbstractValue]] = None
    if opdef is not None and opdef.transfer is not None:
        try:
            inferred = opdef.transfer(op, operands, analysis)
        except AnalysisError as err:
            raise AnalysisError(f"{op_path(op)}: {err}") from None
    changed = False
    for idx, result in enumerate(op.results):
        declared = from_type(result.type)
        abstract = TOP
        if inferred is not None and idx < len(inferred):
            abstract = inferred[idx]
        refined = _meet(op, idx, abstract, declared)
        if analysis.values.get(result) != refined:
            analysis.values[result] = refined
            changed = True
    for region in op.regions:
        for block in region.blocks:
            for arg in block.args:
                seeded = from_type(arg.type)
                if analysis.values.get(arg) != seeded:
                    analysis.values[arg] = seeded
                    changed = True
            for inner in block.operations:
                changed |= _fixpoint_visit(inner, registry, analysis)
    return changed


def analysis_mismatches(module: Module, analysis: ModuleAnalysis) -> List[str]:
    """Every SSA value on which ``analysis`` and
    :func:`analyze_module_fixpoint` disagree, one line each (empty when
    the two hold the same fact for the same set of values)."""
    oracle = analyze_module_fixpoint(module).values
    lines = [f"{len(analysis.values)} values, oracle has {len(oracle)}"] \
        if len(analysis.values) != len(oracle) else []
    for op in module.walk():
        values = list(op.results)
        for region in op.regions:
            for block in region.blocks:
                values.extend(block.args)
        for value in values:
            got, want = analysis.values.get(value), oracle.get(value)
            if got != want:
                lines.append(f"{op_path(op) or op.name}: a {value.type} "
                             f"value is {got}, oracle says {want}")
    return lines


def list_schedule_scan(dfg: BodyDFG,
                       unit_limits: Optional[Dict[str, int]] = None
                       ) -> Schedule:
    """Resource-constrained list scheduling by a per-cycle rescan: every
    cycle tests each unscheduled node's predecessors for completion,
    O(nodes x cycles)."""
    limits = {"mem": 2}
    limits.update(unit_limits or {})
    priority = alap(dfg)
    remaining = set(range(dfg.size))
    start: List[int] = [-1] * dfg.size
    busy: Dict[Tuple[str, int], int] = {}  # (class, cycle) -> issues
    cycle = 0
    guard = 0
    while remaining:
        guard += 1
        if guard > 100000:
            raise HLSError("list scheduling did not converge")
        ready = [
            i for i in remaining
            if all(start[p] >= 0 and start[p] + dfg.nodes[p].cost.latency
                   <= cycle for p in dfg.nodes[i].preds)
        ]
        ready.sort(key=lambda i: priority[i])
        for i in ready:
            family = dfg.nodes[i].family
            if family in limits:
                used = busy.get((family, cycle), 0)
                if used >= limits[family]:
                    continue
                busy[(family, cycle)] = used + 1
            start[i] = cycle
            remaining.discard(i)
        cycle += 1
    return schedule_from(dfg, start, limits)


def dependency_respecting_walk(order: List[Task]) -> List[Task]:
    """Kahn's algorithm preferring the given order, run in full even
    when the order already respects every dependency."""
    position = {task.task_id: i for i, task in enumerate(order)}
    indegree = {task.task_id: len(task.deps) for task in order}
    dependents: Dict[int, List[int]] = {}
    for task in order:
        for dep in task.deps:
            dependents.setdefault(dep, []).append(task.task_id)
    ready = [position[tid] for tid, degree in indegree.items()
             if degree == 0]
    heapq.heapify(ready)
    result: List[Task] = []
    while ready:
        task = order[heapq.heappop(ready)]
        result.append(task)
        for successor in dependents.get(task.task_id, ()):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, position[successor])
    if len(result) != len(order):
        raise RuntimeSchedulingError("cycle in task graph")
    return result


class ScanHEFT(HEFTScheduler):
    """HEFT placing each task by evaluating every alive node.

    Ranking and ordering are inherited from the production scheduler, so
    this is an oracle for the *placement* step only: the first node (in
    cluster order) with the strictly smallest finish wins.
    """

    def _place(self, order: List[Task], graph: TaskGraph,
               cluster: Cluster, nodes: List[Node],
               timelines: Dict[str, NodeTimeline],
               ready: Dict[int, float],
               result: ScheduleResult, costs: PlanCosts) -> None:
        # ``costs`` is not read: the scan prices every (task, node) pair
        # and every edge through the cost model itself.
        for task in order:
            best: Optional[Placement] = None
            best_comm = 0.0
            for node in nodes:
                runtime = task_runtime(task, node)
                if runtime == float("inf") or not can_host(task, node):
                    continue
                ready_here = ready.get(task.task_id, 0.0)
                comm = 0.0
                for dep in task.deps:
                    dep_placement = result.placements[dep]
                    transfer = cluster.transfer_seconds(
                        dep_placement.node, node.name,
                        graph.tasks[dep].output_bytes,
                    )
                    comm += transfer
                    ready_here = max(ready_here,
                                     dep_placement.finish + transfer)
                start = timelines[node.name].earliest_start(
                    ready_here, runtime, task.resources.cores
                )
                candidate = Placement(task.task_id, node.name, start,
                                      start + runtime,
                                      task.resources.cores)
                if best is None or candidate.finish < best.finish:
                    best = candidate
                    best_comm = comm
            if best is None:
                raise unplaceable(task)
            timelines[best.node].commit(best.start, best.duration,
                                        task.resources.cores)
            result.placements[task.task_id] = best
            result.transfers_seconds += best_comm


def fresh_timelines(cluster: Cluster, timeline=NodeTimeline) -> dict:
    """Empty timelines for every node of ``cluster``, as a new engine
    holds them: what a standalone ``schedule(graph, cluster, {}, ...)``
    plans into."""
    return {name: timeline(node) for name, node in cluster.nodes.items()}


class ScanTimeline:
    """Placement queries by scanning every committed interval:
    O(intervals^2) per :meth:`earliest_start`.

    Holds what a policy needs of its ``timelines`` argument
    (``earliest_start`` and ``commit``), so the same scheduler runs on it
    and on :class:`NodeTimeline` and must place every task identically.
    """

    def __init__(self, node: Node):
        self.node = node
        self.intervals: List[Tuple[float, float, int]] = []

    def _usage_at(self, t0: float, t1: float) -> int:
        peak = 0
        points = {t0}
        for s, e, c in self.intervals:
            if s < t1 and e > t0:
                points.add(max(s, t0))
        for point in points:
            used = sum(c for s, e, c in self.intervals
                       if s <= point < e)
            peak = max(peak, used)
        return peak

    def earliest_start(self, ready: float, duration: float,
                       cores: int) -> float:
        candidates = sorted({ready} | {
            e for _, e, _ in self.intervals if e > ready
        })
        for candidate in candidates:
            if self._usage_at(candidate, candidate + duration) + cores \
                    <= self.node.cores:
                return candidate
        return candidates[-1] if candidates else ready

    def commit(self, start: float, duration: float, cores: int) -> None:
        self.intervals.append((start, start + duration, cores))
