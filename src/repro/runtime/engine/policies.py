"""Scheduling policies and what they produce (§VI-A duties 1 to 3).

A policy has a ``name`` (the registry key, ``--policy`` on the CLI), an
``online`` flag and **one** method, which only the engine calls:

* ``online = False`` — a plan-ahead list scheduler.  Whenever work
  arrives the engine asks it to plan the whole pending subgraph
  (:func:`build_replan_subgraph`, for first placement and failure
  repair alike): ``schedule(graph, cluster, ready, timelines)``, all
  four required.  :class:`HEFTScheduler` (upward-rank list scheduling
  with earliest-finish-time placement — the production policy) and
  :class:`RoundRobinScheduler` (the baseline it is compared against);
* ``online = True`` — a dispatch-time policy.  The engine asks it to
  place one task the moment its dependencies have finished:
  ``place(task, graph, cluster, timelines, placements, now)`` returning
  a ``(Placement, transfer_seconds)`` pair computed from *live* node
  state.  :class:`MinLoadPolicy` is the online load balancer.

The engine owns the node timelines: a schedule of a frozen graph is an
engine run with everything submitted at time zero.  What a run returns
(:class:`ScheduleResult`) and the cost model every policy prices with
(:func:`task_runtime`, :class:`PlanCosts`) live here too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import inf
from typing import Callable, Dict, List, NamedTuple, Optional, Protocol, \
    Tuple, Union

from repro.errors import RuntimeSchedulingError
from repro.runtime.cluster import SRIOV_OVERHEAD, Cluster, Node
from repro.runtime.placement import CandidateIndex, ClassKey, node_classes
from repro.runtime.taskgraph import Task, TaskGraph, dependency_order
from repro.runtime.timeline import NodeTimeline


@dataclass
class Placement:
    """Where and when one task runs."""

    task_id: int
    node: str
    start: float
    finish: float
    cores: int = 1

    @property
    def duration(self) -> float:
        return self.finish - self.start

    @property
    def core_seconds(self) -> float:
        return self.duration * self.cores


@dataclass
class UtilizationReport:
    """Per-node busy time relative to the schedule makespan."""

    makespan: float
    busy: Dict[str, float]
    utilization: Dict[str, float]
    imbalance: float  # max/mean busy ratio


@dataclass
class ScheduleResult:
    """A complete schedule of a task graph on a cluster."""

    placements: Dict[int, Placement] = field(default_factory=dict)
    transfers_seconds: float = 0.0
    rescheduled_tasks: int = 0

    @property
    def makespan(self) -> float:
        return max((p.finish for p in self.placements.values()), default=0.0)

    def utilization(self, cluster: Cluster) -> UtilizationReport:
        """Per-node load of this schedule (the load-balance signal)."""
        makespan = self.makespan or 1e-12
        busy: dict = {}
        for placement in self.placements.values():
            busy[placement.node] = busy.get(placement.node, 0.0) \
                + placement.core_seconds
        for name in cluster.nodes:
            busy.setdefault(name, 0.0)
        # Core-seconds consumed over core-seconds available.
        utilization = {
            name: b / (makespan * cluster.nodes[name].cores)
            for name, b in busy.items()
        }
        values = list(busy.values())
        mean = sum(values) / len(values) if values else 0.0
        imbalance = (max(values) / mean) if mean else 1.0
        return UtilizationReport(makespan, busy, utilization, imbalance)


def task_runtime(task: Task, node: Node) -> float:
    """Execution time of a task on a node, honouring resource requests."""
    resources = task.resources
    if resources.fpga:
        if not node.has_fpga:
            return inf
        # Overheads of the virtualized access path (Fig. 6).
        return resources.fpga_seconds * SRIOV_OVERHEAD
    return node.cpu_seconds(resources.cpu_flops, resources.cores)


def can_host(task: Task, node: Node) -> bool:
    """A node can host a task only if the core request physically fits.

    The seed scheduler silently overcommitted a node when a task asked
    for more cores than the node has; such nodes are now skipped, and a
    task no node can host raises :class:`RuntimeSchedulingError`.
    """
    return task.resources.cores <= node.cores


def unplaceable(task: Task) -> RuntimeSchedulingError:
    """The error for a task no alive node can host."""
    need = "an FPGA" if task.resources.fpga \
        else f"{task.resources.cores} cores"
    return RuntimeSchedulingError(
        f"task {task.name!r} requires {need} but no alive node "
        "can provide it"
    )


class PlanCosts(NamedTuple):
    """The cost model of one ``schedule()`` call, evaluated once.

    A task's runtime depends on a node only through its class and the
    network charges by payload, not by destination, so ranking and
    placement read these two tables instead of calling the model per
    node, per edge and per candidate.
    """

    #: node class -> how many alive nodes it has
    class_sizes: Dict[ClassKey, int]
    #: task id -> node class -> seconds (``inf``: the class cannot run it)
    runtime: Dict[int, Dict[ClassKey, float]]
    #: task id -> seconds to move the task's output to another node
    transfer: Dict[int, float]

    @classmethod
    def of(cls, tasks: List[Task], nodes: List[Node],
           cluster: Cluster) -> "PlanCosts":
        classes = node_classes(nodes)
        representatives = [(key, members[0])
                           for key, members in classes.items()]
        wire: Dict[int, float] = {}  # payload bytes -> seconds
        runtime, transfer = {}, {}
        for task in tasks:
            runtime[task.task_id] = {
                key: task_runtime(task, representative)
                for key, representative in representatives}
            payload = task.output_bytes
            if payload not in wire:
                wire[payload] = cluster.network.message_seconds(payload)
            transfer[task.task_id] = wire[payload]
        sizes = {key: len(members) for key, members in classes.items()}
        return cls(sizes, runtime, transfer)


def build_replan_subgraph(graph: TaskGraph, subset: set,
                          ready_floor: float,
                          placements: Dict[int, Placement]):
    """A planning subgraph for re-placing ``subset`` of ``graph``.

    Tasks keep their ids.  Dependencies inside the subset stay subgraph
    edges (so the policy models their data transfers per candidate
    node); dependencies outside it, all placed, are folded into per-task
    ready times via their finish in ``placements``, floored at
    ``ready_floor``.  Cross-boundary edges therefore bound the start by
    the producer's *finish* only — the eventual placement node isn't
    known while planning, so their transfer time is not charged.

    Returns ``(subgraph, ready)``.
    """
    subgraph = TaskGraph()
    ready: Dict[int, float] = {}
    for task in graph.topological_order():
        if task.task_id not in subset:
            continue
        ready_time = ready_floor
        outside = False
        for dep in task.deps:
            if dep not in subset:
                outside = True
                ready_time = max(ready_time, placements[dep].finish)
        # A policy only reads the tasks it plans, so one whose deps all
        # lie inside the subset is shared, not copied.
        subgraph.tasks[task.task_id] = replace(
            task, deps=[d for d in task.deps if d in subset]) \
            if outside else task
        ready[task.task_id] = ready_time
    return subgraph, ready


class SchedulingPolicy(Protocol):
    """What the engine needs from a policy: a name, a kind, one method.

    An offline ``schedule`` places each task of ``graph`` no earlier
    than its entry in ``ready``, commits every placement it returns
    into ``timelines`` (:meth:`NodeTimeline.commit`) and only reads
    ``graph``, whose tasks may be the engine's own objects.  The engine
    hands it scratch copies of the live timelines and makes them the
    live ones when the plan comes back; a plan that returns a placement
    it did not commit is refused with the policy's name.  An online
    ``place`` reads the live timelines; the engine commits its answer.
    """

    name: str
    online: bool


class HEFTScheduler:
    """Heterogeneous-Earliest-Finish-Time list scheduling.

    Placement is the pruned candidate search of
    :class:`~repro.runtime.placement.CandidateIndex`: per-class cost
    models and cached start-time lower bounds, so a task evaluates a
    handful of nodes instead of all of them.  The exhaustive per-task
    scan it replaced lives on as the differential oracle
    ``tools/oracles.py::ScanHEFT`` (identical placements on any graph,
    enforced by ``tools/workloadfuzz.py`` and measured by ``make
    bench-runtime``).
    """

    name = "heft"
    online = False

    def schedule(self, graph: TaskGraph, cluster: Cluster,
                 ready: Dict[int, float],
                 timelines: Dict[str, NodeTimeline]) -> ScheduleResult:
        nodes = cluster.alive_nodes()
        if not nodes:
            raise RuntimeSchedulingError("no alive nodes")
        tasks = graph.topological_order()
        costs = PlanCosts.of(tasks, nodes, cluster)
        ranks = self._upward_ranks(tasks, costs)
        # Stable-sort by rank, but never a task before its dependencies.
        order = dependency_order(
            sorted(tasks, key=lambda t: -ranks[t.task_id]))
        result = ScheduleResult()
        self._place(order, graph, cluster, nodes, timelines, ready,
                    result, costs)
        return result

    def _place(self, order: List[Task], graph: TaskGraph,
               cluster: Cluster, nodes: List[Node],
               timelines: Dict[str, NodeTimeline],
               ready: Dict[int, float],
               result: ScheduleResult, costs: PlanCosts) -> None:
        """Pruned candidate search; placements identical to a full scan.

        An exhaustive loop keeps the first node (in cluster order) with
        the strictly smallest finish — the lexicographic minimum of
        ``(finish, cluster index)``.  Candidates arrive here ordered by
        a lower bound on exactly that key, so evaluation stops at the
        first candidate whose bound cannot beat the current best.  A node
        hosting none of the task's dependencies starts at ``ready_all``
        or later, so when ``ready_all + shortest`` already exceeds the
        best dependency host's finish — strictly: on a tie a lower index
        could still win — the search is skipped.  Only candidate
        evaluations sharpen the index's bounds (``observe``).
        Every price comes from ``costs``; ``graph`` and ``cluster`` are
        there for a placer that prices on its own (the scan oracle).
        """
        # Each task's feasible classes (finite runtime, enough cores) and
        # shortest runtime there, and the smallest runtime any task
        # requests per (class, cores) — the duration floor of the bounds.
        feasible_of: Dict[int, Tuple[Dict[ClassKey, float], float]] = {}
        floors: Dict[tuple, float] = {}
        for task in order:
            cores = task.resources.cores
            feasible = {}
            shortest = inf
            for key, runtime in costs.runtime[task.task_id].items():
                if runtime != inf and cores <= key[0]:  # the class's cores
                    feasible[key] = runtime
                    if runtime < shortest:
                        shortest = runtime
                    floor_key = (key, cores)
                    if floor_key not in floors \
                            or runtime < floors[floor_key]:
                        floors[floor_key] = runtime
            feasible_of[task.task_id] = feasible, shortest
        index = CandidateIndex(nodes, timelines, floors)
        placements = result.placements
        node_pos = {node.name: i for i, node in enumerate(nodes)}
        for task in order:
            cores = task.resources.cores
            ready_floor = ready.get(task.task_id, 0.0)
            dep_info = [(placements[dep], costs.transfer[dep])
                        for dep in task.deps]
            # Ready time on a node hosting none of the deps: every
            # transfer is remote.  For the handful of dep-hosting nodes
            # some transfers vanish, so those are evaluated exactly up
            # front instead of bounded.
            ready_all = ready_floor
            comm_all = 0.0
            host_indices = set()
            for dep_placement, transfer in dep_info:
                comm_all += transfer
                arrival = dep_placement.finish + transfer
                if arrival > ready_all:
                    ready_all = arrival
                host_indices.add(node_pos[dep_placement.node])
            feasible, shortest = feasible_of[task.task_id]
            best_finish = best_idx = None
            best = None  # (node, start, runtime, comm)
            for idx in sorted(host_indices):
                runtime = feasible.get(index.class_of[idx])
                if runtime is None:
                    continue
                node = nodes[idx]
                ready_here = ready_floor
                comm = 0.0
                for dep_placement, transfer in dep_info:
                    arrival = dep_placement.finish
                    if dep_placement.node != node.name:
                        comm += transfer
                        arrival += transfer
                    if arrival > ready_here:
                        ready_here = arrival
                start = index.timelines[idx].earliest_start(
                    ready_here, runtime, cores)
                finish = start + runtime
                if best_finish is None or (finish, idx) \
                        < (best_finish, best_idx):
                    best_finish, best_idx = finish, idx
                    best = (node, start, runtime, comm)
            # Search only if a node hosting no dependency could still win.
            if best_finish is None or ready_all + shortest <= best_finish:
                for bound, idx, runtime in index.candidates(feasible, cores,
                                                            ready_all):
                    if best_finish is not None and (
                            bound > best_finish
                            or (bound == best_finish and idx >= best_idx)):
                        break
                    if idx in host_indices:
                        continue  # exact value already folded into best
                    start = index.timelines[idx].earliest_start(
                        ready_all, runtime, cores)
                    index.observe(idx, cores, ready_all, runtime, start)
                    finish = start + runtime
                    if best_finish is None or (finish, idx) \
                            < (best_finish, best_idx):
                        best_finish, best_idx = finish, idx
                        best = (nodes[idx], start, runtime, comm_all)
            if best is None:
                raise unplaceable(task)
            node, start, runtime, comm = best
            index.timelines[best_idx].commit(start, runtime, cores)
            # A commit only moves true start times later, so every
            # cached bound stays a valid lower bound.  The committed
            # node's bound is now optimistically low, so it sorts early
            # once more and observe() re-sharpens it on its next candidate
            # evaluation.
            placements[task.task_id] = Placement(
                task.task_id, node.name, start, start + runtime, cores)
            result.transfers_seconds += comm

    @staticmethod
    def _upward_ranks(tasks: List[Task],
                      costs: PlanCosts) -> Dict[int, float]:
        # Runtime depends on the node only through its class (cores,
        # GFLOP/s, FPGA presence), so average over the classes weighted
        # by class size instead of touching every node per task
        # — O(tasks x classes), not O(tasks x nodes).
        sizes = costs.class_sizes
        ranks: Dict[int, float] = {}
        # Largest rank among a task's successors (ranks are positive:
        # 0.0 says it has none).  Walking the topological order backwards,
        # every successor has pushed its rank before the task reads it,
        # and the task's one wire time is added to the largest only.
        below = dict.fromkeys(costs.runtime, 0.0)
        for t in reversed(tasks):
            total = 0.0
            count = 0
            for key, r in costs.runtime[t.task_id].items():
                if r != inf:
                    total += r * sizes[key]
                    count += sizes[key]
            rank = (total or 1e-9) / (count or 1)
            if below[t.task_id]:
                rank += below[t.task_id] + costs.transfer[t.task_id]
            ranks[t.task_id] = rank
            for dep in t.deps:
                if rank > below[dep]:
                    below[dep] = rank
        return ranks


class RoundRobinScheduler:
    """The naive baseline: assign tasks to nodes in rotation."""

    name = "round-robin"
    online = False

    def schedule(self, graph: TaskGraph, cluster: Cluster,
                 ready: Dict[int, float],
                 timelines: Dict[str, NodeTimeline]) -> ScheduleResult:
        nodes = cluster.alive_nodes()
        if not nodes:
            raise RuntimeSchedulingError("no alive nodes")
        result = ScheduleResult()
        index = 0
        for task in graph.topological_order():
            attempts = 0
            while True:
                node = nodes[index % len(nodes)]
                index += 1
                attempts += 1
                runtime = task_runtime(task, node)
                if runtime != inf and can_host(task, node):
                    break
                if attempts > len(nodes):
                    raise unplaceable(task)
            ready_here = ready.get(task.task_id, 0.0)
            for dep in task.deps:
                dep_placement = result.placements[dep]
                transfer = cluster.transfer_seconds(
                    dep_placement.node, node.name,
                    graph.tasks[dep].output_bytes,
                )
                ready_here = max(ready_here, dep_placement.finish + transfer)
                result.transfers_seconds += transfer
            start = timelines[node.name].earliest_start(
                ready_here, runtime, task.resources.cores
            )
            timelines[node.name].commit(start, runtime,
                                        task.resources.cores)
            result.placements[task.task_id] = Placement(
                task.task_id, node.name, start, start + runtime,
                task.resources.cores
            )
        return result


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
            runtime = task_runtime(task, node)
            if runtime == inf or not can_host(task, node):
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
            raise unplaceable(task)
        return best, best_comm


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
        # pass the duck-type check below — its method is a function
        # attribute — and then crash on the first unbound call.
        return resolve_policy(policy())
    online = getattr(policy, "online", None)
    method = "place" if online else "schedule"
    if online is None or not callable(getattr(policy, method, None)):
        raise RuntimeSchedulingError(
            f"{type(policy).__name__} does not implement SchedulingPolicy"
            f" (an 'online' flag and a {method}() method)"
        )
    return policy
