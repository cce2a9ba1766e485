"""The event-driven runtime engine (§VI-A, all four duties in one loop).

The paper's resource manager is an *online* system: it "schedules and
assigns the workflow tasks ... load-balances the computation ... performs
data transfers ... monitors the cluster and reschedules tasks if needed".
:class:`RuntimeEngine` implements it as a discrete-event simulation that
executes real work:

* **scheduling** is delegated to a pluggable
  :class:`~repro.runtime.engine.policies.SchedulingPolicy` — offline
  policies (HEFT, round-robin) plan the whole pending subgraph whenever
  work arrives, committing what they place into the scratch timelines
  they are handed, which the engine adopts when the plan succeeds;
  online policies (min-load) place each task the moment its
  dependencies finish, from live node state;
* **execution** calls each task's Python function on the event loop (the
  thread that called :meth:`RuntimeEngine.run`) when its simulated start
  fires and publishes the outcome at its simulated finish, so simulated
  placement and functional results stay in one pass.  A function that
  raises stops the engine at that finish with a
  :class:`RuntimeSchedulingError` naming the task;
* **streaming submission**: tasks may be submitted while the engine runs
  — schedule them onto the event loop with
  :meth:`RuntimeEngine.submit_at` / :meth:`RuntimeEngine.call_at` (the
  engine is not thread-safe) — and many jobs interleave on one cluster,
  sharing its capacity through the common timeline index;
* **monitoring** is in-loop: node heartbeats are recorded as the event
  clock advances, and when the :class:`~repro.runtime.monitor.ClusterMonitor`
  reports a dead node the engine automatically re-places every placement
  lost to the failure.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.errors import RuntimeSchedulingError
from repro.runtime.cluster import Cluster
from repro.runtime.engine import events as ev
from repro.runtime.engine.events import EventQueue, SimClock
from repro.runtime.engine.policies import (
    Placement,
    ScheduleResult,
    SchedulingPolicy,
    build_replan_subgraph,
    resolve_policy,
)
from repro.runtime.monitor import ClusterMonitor
from repro.runtime.taskgraph import Future, ResourceRequest, TaskGraph
from repro.runtime.timeline import NodeTimeline
from repro.telemetry.trace import get_tracer

PENDING = "pending"      # submitted, not yet placed
PLACED = "placed"        # placement committed, start event queued
RUNNING = "running"      # real function called, outcome held back
DONE = "done"            # result stored in graph.results


class RuntimeEngine:
    """Discrete-event unification of scheduling, execution, monitoring."""

    def __init__(self, cluster: Cluster,
                 policy: Optional[SchedulingPolicy] = None, *,
                 heartbeat_interval: Optional[float] = None):
        self.cluster = cluster
        policy = resolve_policy(policy)
        self.policy = policy
        self._online = policy.online
        self.monitor = ClusterMonitor(cluster)
        self.heartbeat_interval = heartbeat_interval
        self.graph = TaskGraph()
        self.clock = SimClock()
        self.timelines: Dict[str, NodeTimeline] = {
            name: NodeTimeline(node)
            for name, node in cluster.nodes.items()
        }
        self.placements: Dict[int, Placement] = {}
        self.transfers_seconds = 0.0
        self.rescheduled_tasks = 0
        self._events = EventQueue()
        self._state: Dict[int, str] = {}
        # Live PENDING set (state == PENDING ⟺ membership), so dispatch
        # and the stuck-check never rescan the full task table — at 100k
        # streamed tasks that rescan is itself O(tasks²).
        self._pending: Set[int] = set()
        self._epoch: Dict[int, int] = {}
        # RUNNING task -> (returned, value or exception) of its function.
        self._outcomes: Dict[int, Tuple[bool, Any]] = {}
        self._failed: Optional[RuntimeSchedulingError] = None
        self._unfinished = 0
        self._handled_failures: Set[str] = set()
        self._running = False
        # Ready tracking for online dispatch: how many unfinished
        # dependencies block each task, who to unblock on finish, and
        # the queue of unblocked PENDING tasks — so dispatch never
        # rescans the whole graph.
        self._blockers: Dict[int, int] = {}
        self._dependents: Dict[int, list] = {}
        self._ready: list = []

    # ------------------------------------------------------------------
    # Submission (streaming: legal before and during run())
    # ------------------------------------------------------------------

    def submit(self, fn: Callable, *args,
               resources: Optional[ResourceRequest] = None,
               output_bytes: int = 8192,
               name: Optional[str] = None, **kwargs) -> Future:
        """Add one task; ``Future`` arguments become dependencies.

        May be called while the engine is running — from a
        :meth:`call_at` callback on the event loop, not from another
        thread (the engine is not thread-safe) — and the new task is
        dispatched at the current simulated time, sharing node capacity
        with everything already in flight.
        """
        future = self.graph.add(fn, args, kwargs, resources, output_bytes,
                                name)
        tid = future.task_id
        self._state[tid] = PENDING
        self._pending.add(tid)
        self._epoch[tid] = 0
        self._unfinished += 1
        blockers = 0
        for dep in self.graph.tasks[tid].deps:
            if self._state.get(dep) != DONE:
                blockers += 1
                self._dependents.setdefault(dep, []).append(tid)
        self._blockers[tid] = blockers
        if blockers == 0:
            self._ready.append(tid)
        if self._running:
            self._events.push(self.clock.now, ev.DISPATCH)
        return future

    def submit_at(self, time: float, fn: Callable, *args, **kwargs) -> None:
        """Schedule ``submit(fn, *args, **kwargs)`` at a simulated time."""
        self.call_at(time, lambda: self.submit(fn, *args, **kwargs))

    def call_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Run an arbitrary callback at a simulated time.

        The callback executes on the event loop with the clock at
        ``time``; it may submit tasks, fail nodes, or inspect state.
        """
        self._push_at(time, ev.CALLBACK, callback)

    def fail_node_at(self, time: float, name: str) -> None:
        """Inject a node failure at a simulated time."""
        if name not in self.cluster.nodes:
            raise RuntimeSchedulingError(f"name={name!r}: unknown node")
        self._push_at(time, ev.NODE_FAILURE, name)

    def _push_at(self, time: float, kind: str, payload: Any) -> None:
        # Refused here, where the caller is, and not when the event
        # fires mid-run with part of the workflow already executed.
        if not time >= self.clock.now:
            raise RuntimeSchedulingError(
                f"time={time!r} is earlier than clock.now ({self.clock.now})")
        self._events.push(time, kind, payload)

    def has_pending(self) -> bool:
        return self._unfinished > 0

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> ScheduleResult:
        """Process events until none remain (or ``until`` is reached).

        Returns the cumulative :class:`ScheduleResult`; functional
        results land in ``graph.results`` as finish events fire.  May be
        called repeatedly — later runs re-dispatch whatever is pending,
        continuing from the current simulated time.  Once a task's
        function has raised, this and every later call raise the
        :class:`RuntimeSchedulingError` that names it.
        """
        if self._failed is not None:
            raise self._failed
        self._running = True
        try:
            self._beat(self.clock.now)
            self._detect_failures(self.clock.now)
            self._dispatch(self.clock.now)
            if self.heartbeat_interval:
                self._events.push(
                    self.clock.now + self.heartbeat_interval,
                    ev.HEARTBEAT,
                )
            while self._events:
                if until is not None \
                        and self._events.peek_time() > until:
                    break
                event = self._events.pop()
                self.clock.advance(event.time)
                self._handle(event)
        finally:
            self._running = False
        if until is None:
            stuck = [self.graph.tasks[tid].name
                     for tid in sorted(self._pending)]
            if stuck:
                raise RuntimeSchedulingError(
                    f"tasks never became dispatchable (cycle or "
                    f"unsatisfiable dependencies): {stuck}"
                )
        return self.schedule_result()

    def schedule_result(self) -> ScheduleResult:
        return ScheduleResult(
            placements=dict(self.placements),
            transfers_seconds=self.transfers_seconds,
            rescheduled_tasks=self.rescheduled_tasks,
        )

    def _handle(self, event) -> None:
        now = self.clock.now
        if event.kind == ev.TASK_START:
            self._handle_start(*event.payload)
        elif event.kind == ev.TASK_FINISH:
            self._handle_finish(*event.payload)
        elif event.kind == ev.NODE_FAILURE:
            self.cluster.fail_node(event.payload)
            self._detect_failures(now)
        elif event.kind == ev.CALLBACK:
            event.payload()
            self._detect_failures(now)
            self._dispatch(now)
        elif event.kind == ev.DISPATCH:
            self._dispatch(now)
        elif event.kind == ev.HEARTBEAT:
            self._beat(now)
            self._detect_failures(now)
            if self._unfinished > 0 or self._events:
                self._events.push(now + self.heartbeat_interval,
                                  ev.HEARTBEAT)

    def _beat(self, now: float) -> None:
        for name, node in self.cluster.nodes.items():
            if node.alive:
                self.monitor.record_heartbeat(name, now)

    def _detect_failures(self, now: float) -> None:
        # A restored node becomes failure-handleable again.
        self._handled_failures = {
            name for name in self._handled_failures
            if not self.cluster.nodes[name].alive
        }
        # In-simulation liveness is the cluster's alive flags: every
        # alive node heartbeats on schedule, so the monitor's
        # stale-heartbeat timeout can never trip here (heartbeats exist
        # for observability — dashboards, tests — not detection).
        for name in self.monitor.dead_nodes(now, timeout=float("inf")):
            if name not in self._handled_failures:
                self._handled_failures.add(name)
                self._handle_failure(name, now)

    # ------------------------------------------------------------------
    # Dispatch: hand pending work to the policy
    # ------------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        dispatch = self._dispatch_online if self._online \
            else self._dispatch_offline
        tracer = get_tracer()
        if not tracer.enabled:
            dispatch(now)
            return
        # The dispatch span measures *real* planning time (the policy's
        # placement search runs on the wall clock even though the tasks
        # it places live on the simulated one).
        with tracer.span("engine.dispatch", category="engine") as span:
            span.attrs.update(policy=type(self.policy).__name__,
                              pending=len(self._pending), sim_now=now)
            dispatch(now)

    def _finish_of(self, dep: int) -> float:
        if dep not in self.placements:
            raise RuntimeSchedulingError(
                f"dependency on unknown or unplaced task {dep}"
            )
        return self.placements[dep].finish

    def _dispatch_offline(self, now: float) -> None:
        """Plan the whole pending subgraph with the offline policy."""
        if not self._pending:
            return
        subgraph, ready = build_replan_subgraph(
            self.graph, set(self._pending), now, self._finish_of,
        )
        # The policy commits what it places into scratch copies, so a
        # plan that raises partway (e.g. an unplaceable FPGA task) leaves
        # the live timelines untouched; a plan that succeeds has already
        # built the next live state, and the copies are adopted as it.
        scratch = {name: timeline.clone()
                   for name, timeline in self.timelines.items()}
        tracer = get_tracer()
        with tracer.span("engine.plan", category="engine") as span:
            span.set("tasks", len(subgraph.tasks))
            plan = self.policy.schedule(subgraph, self.cluster, ready,
                                        scratch)
        placed: Dict[str, int] = {}
        for placement in plan.placements.values():
            placed[placement.node] = placed.get(placement.node, 0) + 1
        for name, timeline in scratch.items():
            grown = timeline.committed - self.timelines[name].committed
            if grown != placed.get(name, 0):
                raise RuntimeSchedulingError(
                    f"policy {type(self.policy).__name__} returned "
                    f"{placed.get(name, 0)} placement(s) on {name!r} but "
                    f"committed {grown} into the timelines it was given")
        self.timelines = scratch
        for placement in plan.placements.values():
            self._record(placement)
        self.transfers_seconds += plan.transfers_seconds
        self._ready.clear()  # offline planning consumed every pending task

    def _dispatch_online(self, now: float) -> None:
        """Place every unblocked task from the ready queue."""
        while self._ready:
            batch, self._ready = sorted(self._ready), []
            for tid in batch:
                if self._state.get(tid) != PENDING:
                    continue
                task = self.graph.tasks[tid]
                unfinished = [d for d in task.deps
                              if self._state.get(d) != DONE]
                if unfinished:
                    # Dependencies edited after submission: re-register
                    # them and wait for their finish events instead.
                    self._blockers[tid] = len(unfinished)
                    for dep in unfinished:
                        dependents = self._dependents.setdefault(dep, [])
                        if tid not in dependents:
                            dependents.append(tid)
                    continue
                placement, comm = self.policy.place(
                    task, self.graph, self.cluster,
                    self.timelines, self.placements, now,
                )
                self.transfers_seconds += comm
                self.timelines[placement.node].commit(
                    placement.start, placement.duration, placement.cores
                )
                self._record(placement)

    def _record(self, placement: Placement) -> None:
        """Record a committed placement and queue its start."""
        tid = placement.task_id
        self.placements[tid] = placement
        self._state[tid] = PLACED
        self._pending.discard(tid)
        self._events.push(placement.start, ev.TASK_START,
                          (tid, self._epoch[tid]))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _handle_start(self, tid: int, epoch: int) -> None:
        if self._epoch.get(tid) != epoch or self._state.get(tid) != PLACED:
            return  # cancelled by a failure reschedule
        task = self.graph.tasks[tid]
        results = self.graph.results
        args = [
            results[a.task_id] if isinstance(a, Future) else a
            for a in task.args
        ]
        try:
            self._outcomes[tid] = (True, task.fn(*args, **task.kwargs))
        except Exception as error:
            self._outcomes[tid] = (False, error)
        self._state[tid] = RUNNING
        self._events.push(self.placements[tid].finish, ev.TASK_FINISH,
                          (tid, epoch))

    def _handle_finish(self, tid: int, epoch: int) -> None:
        if self._epoch.get(tid) != epoch or self._state.get(tid) != RUNNING:
            return  # cancelled by a failure reschedule
        returned, result = self._outcomes.pop(tid)
        if not returned:
            self._failed = RuntimeSchedulingError(
                f"task {self.graph.tasks[tid].name!r} raised "
                f"{type(result).__name__}: {result}")
            raise self._failed from result
        self.graph.results[tid] = result
        self._state[tid] = DONE
        self._unfinished -= 1
        tracer = get_tracer()
        if tracer.enabled:
            # Task execution lives on the *simulated* clock: the span is
            # the committed placement interval, laned by cluster node.
            placement = self.placements[tid]
            tracer.record_span(
                f"task:{self.graph.tasks[tid].name}",
                placement.start, placement.finish,
                track=placement.node, category="task",
                attrs={"task_id": tid, "cores": placement.cores,
                       "epoch": epoch})
        for dependent in self._dependents.pop(tid, ()):
            if self._blockers.get(dependent, 0) > 0:
                self._blockers[dependent] -= 1
                if self._blockers[dependent] == 0 \
                        and self._state.get(dependent) == PENDING:
                    self._ready.append(dependent)
        if self._online:
            self._dispatch_online(self.clock.now)

    # ------------------------------------------------------------------
    # Failure handling (§VI-A duty 4, in-loop)
    # ------------------------------------------------------------------

    def _handle_failure(self, name: str, now: float) -> None:
        """Re-place all work lost to a node failure, mid-run.

        Tasks finished on the node before ``now`` keep their results;
        everything else on the node — and every not-yet-finished task
        transitively depending on a lost output — goes back to PENDING
        and is re-dispatched on the survivors.
        """
        lost: Set[int] = set()
        for tid, placement in self.placements.items():
            if placement.node == name and placement.finish > now \
                    and self._state.get(tid) in (PLACED, RUNNING):
                lost.add(tid)
        # Transitive closure over the dependent index (every non-DONE
        # dependency edge is registered there at submit time, and DONE
        # is permanent, so the index covers every edge a loss can travel
        # along) — BFS instead of a whole-graph fixpoint scan.
        frontier = list(lost)
        while frontier:
            tid = frontier.pop()
            for dependent in self._dependents.get(tid, ()):
                if dependent in lost \
                        or self._state.get(dependent) in (DONE, PENDING):
                    continue
                lost.add(dependent)
                frontier.append(dependent)
        for tid in lost:
            placement = self.placements.pop(tid)
            self.timelines[placement.node].release(
                placement.start, placement.duration, placement.cores
            )
            # A lost RUNNING task's outcome is discarded; the
            # replacement calls the function again.
            self._outcomes.pop(tid, None)
            self._state[tid] = PENDING
            self._pending.add(tid)
            self._epoch[tid] += 1
        for tid in lost:
            blockers = sum(1 for d in self.graph.tasks[tid].deps
                           if self._state.get(d) != DONE)
            self._blockers[tid] = blockers
            if blockers == 0:
                self._ready.append(tid)
        self.rescheduled_tasks += len(lost)
        tracer = get_tracer()
        if tracer.enabled and lost:
            tracer.record_span(f"failure:{name}", now, now,
                               track=name, category="failure",
                               attrs={"lost_tasks": len(lost)})
        if lost:
            with tracer.span("engine.reschedule", category="engine") \
                    as span:
                span.attrs.update(node=name, lost=len(lost))
                self._dispatch(now)
