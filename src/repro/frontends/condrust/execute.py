"""Execution of ``dfg`` graphs on the EVEREST runtime engine (§VI-A).

Running a lowered ConDRust graph is submitting it: every ``dfg.node``
becomes, in source (SSA) order, one task of a
:class:`~repro.runtime.engine.RuntimeEngine` whose body is the
registered Python implementation.  Operands produced by earlier nodes
are the task's ``Future`` dependencies, constants and graph arguments
are plain arguments, and a node marked ``offloaded = true`` is an FPGA
resource request — the engine's policy places it on a node with an FPGA
and prices it through the virtualized access path, like every other
offloaded task.  The engine's schedule of the last run is kept, and the
schedule *waves* (sets of nodes whose inputs were already available, the
parallelism ConDRust exposes) are read off the dependencies the engine's
task graph recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.errors import RuntimeSchedulingError
from repro.ir import Module


@dataclass
class NodeRecord:
    """One dataflow node of the last run, as the engine holds it."""

    callee: str
    binding: str
    offloaded: bool
    wave: int
    task_id: int  # key into ``schedule.placements``


class DataflowExecutor:
    """Submits dfg graphs to a runtime engine, node implementations from
    a registry.

    ``engine`` is the :class:`~repro.runtime.engine.RuntimeEngine` every
    :meth:`run` submits to, so several graphs share one cluster's
    capacity; without one, each run gets an engine of its own on a
    one-node ``default_cluster``.
    """

    def __init__(self, module: Module, engine=None):
        self.module = module
        self.engine = engine
        self.registry: Dict[str, Callable] = {}
        self.resources: Dict[str, object] = {}
        self.trace: List[NodeRecord] = []
        self.schedule = None  # the engine's ScheduleResult of the last run

    def register(self, name: str, fn: Callable,
                 resources=None) -> "DataflowExecutor":
        """Register the implementation of a node callee, and optionally
        its cost as the engine's ``ResourceRequest``."""
        self.registry[name] = fn
        self.resources[name] = resources
        return self

    def register_all(self, impls: Dict[str, Callable]) -> "DataflowExecutor":
        self.registry.update(impls)
        return self

    def run(self, graph_name: str, *args):
        """Execute one graph with positional arguments; returns its output."""
        from repro.runtime import (
            Future, ResourceRequest, RuntimeEngine, default_cluster)

        graph = self.module.lookup(graph_name)
        if graph.name != "dfg.graph":
            raise RuntimeSchedulingError(f"{graph_name} is not a dfg.graph")
        entry = graph.regions[0].entry
        if len(args) != len(entry.args):
            raise RuntimeSchedulingError(
                f"{graph_name} expects {len(entry.args)} arguments, "
                f"got {len(args)}"
            )
        # Refused before anything is submitted: a shared engine must not
        # be left holding the first half of a graph.
        for op in entry.operations:
            if op.name == "dfg.node":
                if op.attr("callee") not in self.registry:
                    raise RuntimeSchedulingError(
                        "no implementation registered for node "
                        f"{op.attr('callee')!r}")
            elif op.name not in ("arith.constant", "dfg.output"):
                raise RuntimeSchedulingError(
                    f"unexpected op in dfg graph: {op.name}")
        engine = self.engine or RuntimeEngine(default_cluster(1))
        env = dict(zip(entry.args, args))
        wave_of: Dict[int, int] = {}
        self.trace = []
        output = None
        for op in entry.operations:
            if op.name == "arith.constant":
                env[op.results[0]] = op.attr("value")
            elif op.name == "dfg.output":
                output = env[op.operands[0]]
            else:
                callee = op.attr("callee")
                binding = op.attr("binding") or ""
                resources = self.resources.get(callee)
                if op.attr("offloaded", False):
                    resources = replace(
                        resources or ResourceRequest(fpga_seconds=1e-3),
                        fpga=True)
                future = engine.submit(
                    self.registry[callee], *[env[o] for o in op.operands],
                    resources=resources, name=binding or callee)
                env[op.results[0]] = future
                task = engine.graph.tasks[future.task_id]
                wave = 1 + max((wave_of.get(dep, 0) for dep in task.deps),
                               default=0)
                wave_of[task.task_id] = wave
                self.trace.append(NodeRecord(
                    callee, binding, task.resources.fpga, wave,
                    task.task_id))
        self.schedule = engine.run()
        return output.result() if isinstance(output, Future) else output

    def waves(self) -> List[List[str]]:
        """Nodes grouped by schedule wave (the exposed parallelism)."""
        if not self.trace:
            return []
        depth = max(record.wave for record in self.trace)
        grouped: List[List[str]] = [[] for _ in range(depth)]
        for record in self.trace:
            grouped[record.wave - 1].append(record.callee)
        return grouped
