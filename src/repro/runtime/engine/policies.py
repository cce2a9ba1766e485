"""Pluggable scheduling policies (§VI-A duty 1 and 2).

Every policy implements the :class:`SchedulingPolicy` protocol:

* ``name`` — the registry key (``--policy`` on the CLI);
* ``online`` — ``False`` for plan-ahead list schedulers (the engine asks
  them to plan the whole pending subgraph whenever work arrives),
  ``True`` for dispatch-time policies (the engine asks them to place one
  task the moment its dependencies have finished);
* ``schedule(graph, cluster, ready_overrides=None, timelines=None)`` —
  the batch entry point every policy supports, so any policy can also be
  used standalone against a frozen task graph.

Online policies additionally expose
``place(task, graph, cluster, timelines, placements, now)`` returning a
``(Placement, transfer_seconds)`` pair computed from *live* node state.

:class:`~repro.runtime.scheduler.HEFTScheduler` and
:class:`~repro.runtime.scheduler.RoundRobinScheduler` satisfy the
protocol as offline policies; :class:`MinLoadPolicy` here is the online
load balancer: it sends each task to the feasible node with the least
outstanding committed work, breaking ties by earliest finish and then
by cluster order.
"""

from __future__ import annotations

import inspect
from math import inf
from typing import Callable, Dict, Optional, Protocol, Tuple, Union, \
    runtime_checkable

from repro.errors import RuntimeSchedulingError
from repro.runtime.cluster import Cluster
from repro.runtime.scheduler import (
    HEFTScheduler,
    Placement,
    RoundRobinScheduler,
    ScheduleResult,
    _can_host,
    _task_runtime,
    _unplaceable,
)
from repro.runtime.taskgraph import Task, TaskGraph
from repro.runtime.timeline import NodeTimeline


@runtime_checkable
class SchedulingPolicy(Protocol):
    """What the engine needs from a scheduling policy.

    ``schedule`` commits every placement it returns into ``timelines``
    (:meth:`NodeTimeline.commit`) and only reads ``graph``, whose tasks
    may be the caller's own objects.  The engine hands an offline policy
    scratch copies of the live timelines and makes them the live ones
    when the plan comes back; a plan that returns a placement it did not
    commit is refused with the policy's name.
    """

    name: str
    online: bool

    def schedule(self, graph: TaskGraph, cluster: Cluster,
                 ready_overrides: Optional[Dict[int, float]] = None,
                 timelines: Optional[Dict[str, NodeTimeline]] = None
                 ) -> ScheduleResult:
        ...


class MinLoadPolicy:
    """Online least-loaded placement, decided at dispatch time.

    The paper's resource manager "load-balances the computation when
    necessary"; this policy does it continuously: each task goes to the
    feasible node with the fewest committed core-seconds still
    outstanding, using the live timeline state — including work from
    *other* jobs streamed onto the same cluster.  Nodes tied at that
    load are told apart by the task's earliest finish, then by cluster
    order.
    """

    name = "min-load"
    online = True

    def place(self, task: Task, graph: TaskGraph, cluster: Cluster,
              timelines: Dict[str, NodeTimeline],
              placements: Dict[int, Placement],
              now: float) -> Tuple[Placement, float]:
        nodes = cluster.alive_nodes()
        loads = [timelines[node.name].load_after(now) for node in nodes]
        best: Optional[Placement] = None
        best_load = best_comm = 0.0
        # The key is (load, finish), first in cluster order: walking the
        # nodes by (load, position), only the feasible ones tied at the
        # smallest load are priced and searched for a start.
        for load, position in sorted(zip(loads, range(len(nodes)))):
            if best is not None and load > best_load:
                break
            node = nodes[position]
            runtime = _task_runtime(task, node)
            if runtime == inf or not _can_host(task, node):
                continue
            ready = now
            comm = 0.0
            for dep in task.deps:
                dep_placement = placements[dep]
                transfer = cluster.transfer_seconds(
                    dep_placement.node, node.name,
                    graph.tasks[dep].output_bytes,
                )
                comm += transfer
                ready = max(ready, dep_placement.finish + transfer)
            start = timelines[node.name].earliest_start(
                ready, runtime, task.resources.cores)
            if best is None or start + runtime < best.finish:
                best = Placement(task.task_id, node.name, start,
                                 start + runtime, task.resources.cores)
                best_load, best_comm = load, comm
        if best is None:
            raise _unplaceable(task)
        return best, best_comm

    def schedule(self, graph: TaskGraph, cluster: Cluster,
                 ready_overrides: Optional[Dict[int, float]] = None,
                 timelines: Optional[Dict[str, NodeTimeline]] = None
                 ) -> ScheduleResult:
        """Batch fallback: replay the online rule in topological order."""
        nodes = cluster.alive_nodes()
        if not nodes:
            raise RuntimeSchedulingError("no alive nodes")
        if timelines is None:
            timelines = {n.name: NodeTimeline(n) for n in nodes}
        result = ScheduleResult()
        for task in graph.topological_order():
            now = (ready_overrides or {}).get(task.task_id, 0.0)
            placement, comm = self.place(task, graph, cluster, timelines,
                                         result.placements, now)
            timelines[placement.node].commit(
                placement.start, placement.duration, placement.cores
            )
            result.placements[task.task_id] = placement
            result.transfers_seconds += comm
        return result


POLICIES: Dict[str, Callable[[], SchedulingPolicy]] = {
    HEFTScheduler.name: HEFTScheduler,
    RoundRobinScheduler.name: RoundRobinScheduler,
    MinLoadPolicy.name: MinLoadPolicy,
}


def resolve_policy(policy: Union[None, str, SchedulingPolicy]
                   ) -> SchedulingPolicy:
    """Accept a policy instance, a registry name, or ``None`` (HEFT)."""
    if policy is None:
        return HEFTScheduler()
    if isinstance(policy, str):
        if policy not in POLICIES:
            raise RuntimeSchedulingError(
                f"unknown scheduling policy {policy!r}; "
                f"available: {', '.join(sorted(POLICIES))}"
            )
        return POLICIES[policy]()
    if isinstance(policy, type):
        # A policy *class* (e.g. straight out of the POLICIES registry,
        # or ``RuntimeEngine(cluster, policy=HEFTScheduler)``): it would
        # pass the duck-type checks below — ``schedule`` is a function
        # attribute — and then crash on the first unbound call.
        return resolve_policy(policy())
    if not hasattr(policy, "schedule"):
        raise RuntimeSchedulingError(
            f"{type(policy).__name__} does not implement SchedulingPolicy"
        )
    # Fail fast on schedulers written against the seed interface: the
    # engine plans into shared timelines, and a schedule() that cannot
    # accept them would either crash mid-run or silently overcommit
    # nodes by planning against fresh (empty) capacity.
    try:
        parameters = inspect.signature(policy.schedule).parameters
    except (TypeError, ValueError):  # builtins / C callables: trust them
        parameters = None
    if parameters is not None and "timelines" not in parameters \
            and not any(p.kind is inspect.Parameter.VAR_KEYWORD
                        for p in parameters.values()):
        raise RuntimeSchedulingError(
            f"{type(policy).__name__}.schedule() must accept a "
            "timelines= keyword (plan into the given live node "
            "timelines) to drive the runtime engine"
        )
    return policy
