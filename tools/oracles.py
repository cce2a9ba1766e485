"""Reference implementations the fuzzers and legacy benchmarks compare against.

Each one is the simple, slow algorithm a production path in ``src/repro``
replaced.  They are test infrastructure, not product code: nothing under
``src/`` imports this module, and nothing here is reachable from the CLI
or the daemon.

* :func:`apply_patterns_sweep` — the full-sweep greedy rewrite driver
  that :func:`repro.ir.rewrite.apply_patterns_worklist` superseded
  (differential in ``tests/ir/test_rewrite.py``, speedup budget in
  ``benchmarks/bench_ir_canonicalize.py``);
* :class:`ScanHEFT` — HEFT with the exhaustive per-task node scan that
  :class:`repro.runtime.scheduler.HEFTScheduler`'s pruned candidate
  search superseded (``tools/workloadfuzz.py`` invariant 5,
  ``tests/test_runtime_engine.py``, ``benchmarks/bench_runtime_engine.py``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import IRError
from repro.ir.core import Module
from repro.ir.rewrite import PatternRewriter, RewritePattern, is_attached
from repro.runtime.cluster import Cluster, Node
from repro.runtime.scheduler import (
    HEFTScheduler,
    Placement,
    ScheduleResult,
    _can_host,
    _task_runtime,
    _unplaceable,
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
    worklist driver replaced it (``BENCH_ir_canonicalize.json``).
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


class ScanHEFT(HEFTScheduler):
    """HEFT placing each task by evaluating every alive node.

    Ranking and ordering are inherited from the production scheduler, so
    this is an oracle for the *placement* step only: the first node (in
    cluster order) with the strictly smallest finish wins.
    """

    def _place(self, order: List[Task], graph: TaskGraph,
               cluster: Cluster, nodes: List[Node],
               timelines: Dict[str, NodeTimeline],
               ready_overrides: Optional[Dict[int, float]],
               result: ScheduleResult) -> None:
        for task in order:
            best: Optional[Placement] = None
            best_comm = 0.0
            for node in nodes:
                runtime = _task_runtime(task, node)
                if runtime == float("inf") or not _can_host(task, node):
                    continue
                ready = (ready_overrides or {}).get(task.task_id, 0.0)
                comm = 0.0
                for dep in task.deps:
                    dep_placement = result.placements[dep]
                    transfer = cluster.transfer_seconds(
                        dep_placement.node, node.name,
                        graph.tasks[dep].output_bytes,
                    )
                    comm += transfer
                    ready = max(ready, dep_placement.finish + transfer)
                start = timelines[node.name].earliest_start(
                    ready, runtime, task.resources.cores
                )
                candidate = Placement(task.task_id, node.name, start,
                                      start + runtime,
                                      task.resources.cores)
                if best is None or candidate.finish < best.finish:
                    best = candidate
                    best_comm = comm
            if best is None:
                raise _unplaceable(task)
            timelines[best.node].commit(best.start, best.duration,
                                        task.resources.cores)
            result.placements[task.task_id] = best
            result.transfers_seconds += best_comm
