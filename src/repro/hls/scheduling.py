"""Operation scheduling for HLS: dependence graphs, ASAP/ALAP and
resource-constrained list scheduling, plus initiation-interval analysis.

The unit of scheduling is one innermost loop body, represented as a DFG
whose nodes are scalar operations (loads, arithmetic, stores).  The
pipelining model is the standard modulo-scheduling bound:

* ``resMII`` — for each shared resource class, ``ceil(uses / units)``;
* ``recMII`` — the loop-carried recurrence bound; a load/store pair on the
  same buffer (an accumulation) carries its datapath latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import HLSError
from repro.hls.resources import SHARABLE_CLASSES, OpCost, _family, cost_of
from repro.ir import Operation, Value
from repro.ir.types import Type


@dataclass
class DFGNode:
    """One operation in the body dataflow graph."""

    index: int
    op: Operation
    cost: OpCost
    family: str
    preds: List[int] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)


@dataclass
class BodyDFG:
    """Dataflow graph of one loop body."""

    nodes: List[DFGNode]
    # (load_node, store_node) pairs on the same buffer => loop recurrence.
    recurrences: List[Tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.nodes)


def build_dfg(body_ops: List[Operation], element_of) -> BodyDFG:
    """Build the DFG of a loop body.

    ``element_of(op)`` returns the numeric type used for costing that op.
    SSA def-use edges plus memory-order edges (store -> later load/store on
    the same buffer) define the precedence; a load *before* a store on the
    same buffer marks an accumulation recurrence.
    """
    nodes: List[DFGNode] = []
    producer: Dict[Value, int] = {}
    last_store: Dict[int, int] = {}  # id(buffer) -> node index
    loads_by_buffer: Dict[int, List[int]] = {}
    recurrences: List[Tuple[int, int]] = []
    for op in body_ops:
        if op.name in ("affine.yield",):
            continue
        index = len(nodes)
        element = element_of(op)
        node = DFGNode(index, op, cost_of(op.name, element),
                       _family(op.name))
        nodes.append(node)
        for operand in op.operands:
            if operand in producer:
                pred = producer[operand]
                node.preds.append(pred)
                nodes[pred].succs.append(index)
        if op.name == "memref.load":
            buffer = id(op.operands[0])
            loads_by_buffer.setdefault(buffer, []).append(index)
            if buffer in last_store:
                node.preds.append(last_store[buffer])
                nodes[last_store[buffer]].succs.append(index)
        if op.name == "memref.store":
            buffer = id(op.operands[1])
            if buffer in loads_by_buffer:
                for load in loads_by_buffer[buffer]:
                    recurrences.append((load, index))
            last_store[buffer] = index
        for result in op.results:
            producer[result] = index
    return BodyDFG(nodes, recurrences)


@dataclass
class Schedule:
    """The result of scheduling one loop body."""

    start: List[int]
    depth: int  # total datapath latency (cycles through the body)
    ii: int
    res_mii: int
    rec_mii: int
    units: Dict[str, int]  # functional units instantiated per class


def asap(dfg: BodyDFG) -> List[int]:
    """As-soon-as-possible start times (unconstrained)."""
    start = [0] * dfg.size
    for node in dfg.nodes:  # nodes are in topological (program) order
        for pred in node.preds:
            pred_node = dfg.nodes[pred]
            start[node.index] = max(
                start[node.index], start[pred] + pred_node.cost.latency
            )
    return start


def alap(dfg: BodyDFG, horizon: Optional[int] = None) -> List[int]:
    """As-late-as-possible start times within ``horizon``."""
    asap_start = asap(dfg)
    if horizon is None:
        horizon = _depth_from(asap_start, dfg)
    start = [0] * dfg.size
    for node in dfg.nodes:
        start[node.index] = horizon - node.cost.latency
    for node in reversed(dfg.nodes):
        for pred in node.preds:
            pred_node = dfg.nodes[pred]
            start[pred] = min(start[pred],
                              start[node.index] - pred_node.cost.latency)
    return start


def _depth_from(start: List[int], dfg: BodyDFG) -> int:
    depth = 0
    for node in dfg.nodes:
        depth = max(depth, start[node.index] + node.cost.latency)
    return depth


def list_schedule(dfg: BodyDFG,
                  unit_limits: Optional[Dict[str, int]] = None) -> Schedule:
    """Resource-constrained list scheduling with ALAP priority.

    ``unit_limits`` caps concurrent issues per sharable class per cycle
    (defaults: 2 memory ports, unlimited everything else sized afterwards).
    """
    if dfg.size == 0:
        return Schedule([], 0, 1, 1, 1, {})
    limits = {"mem": 2}
    limits.update(unit_limits or {})
    priority = alap(dfg)
    remaining: Set[int] = set(range(dfg.size))
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
    depth = _depth_from(start, dfg)
    # Initiation interval bounds.
    res_mii = 1
    usage: Dict[str, int] = {}
    for node in dfg.nodes:
        if node.family in SHARABLE_CLASSES:
            usage[node.family] = usage.get(node.family, 0) + 1
    units: Dict[str, int] = {}
    for family, uses in usage.items():
        available = limits.get(family)
        if available:
            res_mii = max(res_mii, math.ceil(uses / available))
    rec_mii = 1
    for load, store in dfg.recurrences:
        path = _longest_path(dfg, load, store)
        if path is not None:
            rec_mii = max(rec_mii, path)
    ii = max(res_mii, rec_mii)
    # Steady-state functional units per class at this II.
    for family, uses in usage.items():
        units[family] = max(1, math.ceil(uses / ii))
    return Schedule(start, depth, ii, res_mii, rec_mii, units)


def _longest_path(dfg: BodyDFG, source: int, target: int) -> Optional[int]:
    """Longest latency path from ``source`` to ``target`` (None if absent)."""
    dist: Dict[int, int] = {source: dfg.nodes[source].cost.latency}
    for node in dfg.nodes:
        if node.index not in dist:
            continue
        base = dist[node.index]
        for succ in node.succs:
            cand = base + dfg.nodes[succ].cost.latency
            if cand > dist.get(succ, -1):
                dist[succ] = cand
    if target not in dist:
        # The recurrence may be through memory only (no SSA path): the
        # store must still wait one access round-trip.
        return dfg.nodes[source].cost.latency + dfg.nodes[target].cost.latency
    return dist[target]
