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
* **monitoring** is in-loop: after a node failure, a callback, or a
  task body that changed the cluster's liveness generation the engine
  reads the cluster's ``alive`` flags, and for every node that went
  down it automatically re-places every placement lost to the failure.

Bookkeeping is one :class:`_TaskRecord` per task and plain-tuple events
(:mod:`~repro.runtime.engine.events`): a task costs the heap push and pop
of its start and its finish, one handler call each, and its function.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Set

from repro.errors import RuntimeSchedulingError
from repro.runtime.cluster import Cluster
from repro.runtime.engine import events as ev
from repro.runtime.engine.policies import (
    Placement,
    ScheduleResult,
    SchedulingPolicy,
    build_replan_subgraph,
    resolve_policy,
)
from repro.runtime.taskgraph import Future, ResourceRequest, Task, TaskGraph
from repro.runtime.timeline import NodeTimeline
from repro.telemetry.trace import get_tracer

PENDING = "pending"      # submitted, not yet placed
PLACED = "placed"        # placement committed, start event queued
RUNNING = "running"      # real function called, outcome held back
DONE = "done"            # result stored in graph.results


class _TaskRecord:
    """Everything the engine tracks about one task, in one place.

    ``epoch`` counts the task's placements lost to node failures: a
    queued start or finish carries the epoch it was queued under and is
    skipped once the two differ.  ``outcome`` is ``(returned, value or
    exception)`` of the function, held from the simulated start until
    the finish publishes it.  ``blockers`` is how many unfinished
    dependencies hold the task back (online dispatch), and ``dependents``
    are the records to unblock when it finishes, or to re-place with it
    when its output is lost.
    """

    __slots__ = ("task", "state", "epoch", "outcome", "blockers",
                 "dependents")

    def __init__(self, task: Task):
        self.task = task
        self.state = PENDING
        self.epoch = 0
        self.outcome: Any = None
        self.blockers = 0
        self.dependents: List[_TaskRecord] = []


class RuntimeEngine:
    """Discrete-event unification of scheduling, execution, monitoring."""

    def __init__(self, cluster: Cluster,
                 policy: Optional[SchedulingPolicy] = None):
        self.cluster = cluster
        policy = resolve_policy(policy)
        self.policy = policy
        self._online = policy.online
        self.graph = TaskGraph()
        # Simulated time: the time of the last event popped.  No event is
        # queued earlier than it (_push_at refuses a call_at time, and
        # _admit a policy's placement), so it never runs backwards.
        self.now = 0.0
        self.timelines: Dict[str, NodeTimeline] = {
            name: NodeTimeline(node)
            for name, node in cluster.nodes.items()
        }
        self.placements: Dict[int, Placement] = {}
        self.transfers_seconds = 0.0
        self.rescheduled_tasks = 0
        # A heap of (time, kind, seq, subject, epoch) tuples; ``_seq`` is
        # the last sequence number handed out.
        self._events: list = []
        self._seq = 0
        self._records: Dict[int, _TaskRecord] = {}
        # Live PENDING set (state == PENDING ⟺ membership), so dispatch
        # and the stuck-check never rescan the full task table — at 100k
        # streamed tasks that rescan is itself O(tasks²).
        self._pending: Set[int] = set()
        self._failed: Optional[RuntimeSchedulingError] = None
        self._handled_failures: Set[str] = set()
        # The cluster's liveness generation _detect_failures last read.
        self._liveness = -1
        self._running = False
        self._tracer = get_tracer()
        # Unblocked PENDING tasks for online dispatch, so it never
        # rescans the whole graph.
        self._ready: List[int] = []

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
        task = self.graph.tasks[tid]
        records = self._records
        record = records[tid] = _TaskRecord(task)
        self._pending.add(tid)
        for dep in task.deps:
            if dep in records:
                producer = records[dep]
                if producer.state == DONE:
                    continue
                producer.dependents.append(record)
            record.blockers += 1
        if record.blockers == 0:
            self._ready.append(tid)
        if self._running:
            self._push(self.now, ev.DISPATCH)
        return future

    def submit_at(self, time: float, fn: Callable, *args, **kwargs) -> None:
        """Schedule ``submit(fn, *args, **kwargs)`` at a simulated time."""
        self.call_at(time, lambda: self.submit(fn, *args, **kwargs))

    def call_at(self, time: float, callback: Callable[[], Any]) -> None:
        """Run an arbitrary callback at a simulated time.

        The callback executes on the event loop with ``now`` at
        ``time``; it may submit tasks, fail nodes, or inspect state.
        """
        self._push_at(time, ev.CALLBACK, callback)

    def fail_node_at(self, time: float, name: str) -> None:
        """Inject a node failure at a simulated time."""
        if name not in self.cluster.nodes:
            raise RuntimeSchedulingError(f"name={name!r}: unknown node")
        self._push_at(time, ev.NODE_FAILURE, name)

    def _push_at(self, time: float, kind: int, subject: Any) -> None:
        # Refused here, where the caller is, and not when the event
        # fires mid-run with part of the workflow already executed.
        if not time >= self.now:
            raise RuntimeSchedulingError(
                f"time={time!r} is earlier than engine.now ({self.now})")
        self._push(time, kind, subject)

    def _push(self, time: float, kind: int, subject: Any = None) -> None:
        # A task's start and finish are pushed the same way but inline
        # (_record_all, _start), with the task's epoch in the last slot.
        self._seq += 1
        heappush(self._events, (time, kind, self._seq, subject, 0))

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
        self._tracer = get_tracer()
        events = self._events
        try:
            self._detect_failures(self.now)
            self._dispatch(self.now)
            while events:
                if until is not None and events[0][0] > until:
                    break
                self.now, kind, _, subject, epoch = heappop(events)
                if kind == ev.TASK_START:
                    self._start(subject, epoch)
                elif kind == ev.TASK_FINISH:
                    self._finish(subject, epoch)
                else:
                    self._handle(kind, subject)
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

    def _handle(self, kind: int, subject: Any) -> None:
        """Every event but a task's start and finish."""
        now = self.now
        if kind == ev.NODE_FAILURE:
            self.cluster.fail_node(subject)
            self._detect_failures(now)
        elif kind == ev.CALLBACK:
            subject()
            self._detect_failures(now)
            self._dispatch(now)
        elif kind == ev.DISPATCH:
            self._dispatch(now)

    def _detect_failures(self, now: float) -> None:
        self._liveness = self.cluster.liveness
        # A restored node becomes failure-handleable again.
        self._handled_failures = {
            name for name in self._handled_failures
            if not self.cluster.nodes[name].alive
        }
        # Liveness is the cluster's alive flags, handled in node order.
        for name, node in self.cluster.nodes.items():
            if not node.alive and name not in self._handled_failures:
                self._handled_failures.add(name)
                self._handle_failure(name, now)

    # ------------------------------------------------------------------
    # Dispatch: hand pending work to the policy
    # ------------------------------------------------------------------

    def _dispatch(self, now: float) -> None:
        dispatch = self._dispatch_online if self._online \
            else self._dispatch_offline
        tracer = self._tracer
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

    def _dispatch_offline(self, now: float) -> None:
        """Plan the whole pending subgraph with the offline policy."""
        if not self._pending:
            return
        subgraph, ready = build_replan_subgraph(
            self.graph, set(self._pending), now, self.placements,
        )
        # The policy commits what it places into scratch copies, so a
        # plan that raises partway (e.g. an unplaceable FPGA task) leaves
        # the live timelines untouched; a plan that succeeds has already
        # built the next live state, and the copies are adopted as it.
        scratch = {name: timeline.clone()
                   for name, timeline in self.timelines.items()}
        with self._tracer.span("engine.plan", category="engine") as span:
            span.set("tasks", len(subgraph.tasks))
            plan = self.policy.schedule(subgraph, self.cluster, ready,
                                        scratch)
        self._admit(plan.placements, now)
        placed = dict.fromkeys(scratch, 0)
        for placement in plan.placements.values():
            placed[placement.node] += 1
        for name, timeline in scratch.items():
            grown = timeline.committed - self.timelines[name].committed
            if grown != placed[name]:
                raise RuntimeSchedulingError(
                    f"policy {type(self.policy).__name__} returned "
                    f"{placed[name]} placement(s) on {name!r} but "
                    f"committed {grown} into the timelines it was given")
        self.timelines = scratch
        self._record_all(plan.placements)
        self.transfers_seconds += plan.transfers_seconds
        self._ready.clear()  # offline planning consumed every pending task

    def _dispatch_online(self, now: float) -> None:
        """Place every unblocked task from the ready queue."""
        records = self._records
        while self._ready:
            batch, self._ready = sorted(self._ready), []
            for tid in batch:
                record = records[tid]
                if record.state != PENDING:
                    continue
                task = record.task
                unfinished = [d for d in task.deps
                              if d not in records
                              or records[d].state != DONE]
                if unfinished:
                    # Dependencies edited after submission: re-register
                    # them and wait for their finish events instead.
                    record.blockers = len(unfinished)
                    for dep in unfinished:
                        if dep in records \
                                and record not in records[dep].dependents:
                            records[dep].dependents.append(record)
                    continue
                placement, comm = self.policy.place(
                    task, self.graph, self.cluster,
                    self.timelines, self.placements, now,
                )
                placed = {tid: placement}
                self._admit(placed, now)
                self.transfers_seconds += comm
                self.timelines[placement.node].commit(
                    placement.start, placement.duration, placement.cores
                )
                self._record_all(placed)

    def _admit(self, placements: Dict[int, Placement], now: float) -> None:
        """Refuse, with the policy's name and before anything of the plan
        is adopted, a placement that is not for the pending task it is
        keyed by, not on a node of the cluster, or not an interval from
        ``now`` on: its start and finish events would run the clock
        backwards."""
        timelines, pending = self.timelines, self._pending
        for tid, placement in placements.items():
            if tid != placement.task_id or tid not in pending \
                    or placement.node not in timelines \
                    or not now <= placement.start <= placement.finish:
                raise RuntimeSchedulingError(
                    f"policy {type(self.policy).__name__} placed task "
                    f"{placement.task_id} on {placement.node!r} over "
                    f"[{placement.start}, {placement.finish}] at clock "
                    f"{now}: not a pending task, not a node of the "
                    f"cluster, or not an interval from now on")

    def _record_all(self, placements: Dict[int, Placement]) -> None:
        """Record committed placements and queue their starts."""
        self.placements.update(placements)
        self._pending.difference_update(placements)
        records, events = self._records, self._events
        for tid, placement in placements.items():
            record = records[tid]
            record.state = PLACED
            self._seq += 1
            heappush(events, (placement.start, ev.TASK_START, self._seq,
                              record, record.epoch))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _start(self, record: _TaskRecord, epoch: int) -> None:
        if record.epoch != epoch or record.state != PLACED:
            return  # cancelled by a failure reschedule
        task = record.task
        results = self.graph.results
        args = [
            results[a.task_id] if isinstance(a, Future) else a
            for a in task.args
        ]
        kwargs = task.kwargs
        if kwargs:
            kwargs = {key: results[value.task_id]
                      if isinstance(value, Future) else value
                      for key, value in kwargs.items()}
        try:
            record.outcome = (True, task.fn(*args, **kwargs))
        except Exception as error:
            record.outcome = (False, error)
        record.state = RUNNING
        self._seq += 1
        heappush(self._events, (self.placements[task.task_id].finish,
                                ev.TASK_FINISH, self._seq, record, epoch))
        # The body may have failed or restored a node (its own included,
        # which loses this very task).
        if self.cluster.liveness != self._liveness:
            self._detect_failures(self.now)

    def _finish(self, record: _TaskRecord, epoch: int) -> None:
        if record.epoch != epoch or record.state != RUNNING:
            return  # cancelled by a failure reschedule
        (returned, result), record.outcome = record.outcome, None
        task = record.task
        if not returned:
            self._failed = RuntimeSchedulingError(
                f"task {task.name!r} raised "
                f"{type(result).__name__}: {result}")
            raise self._failed from result
        self.graph.results[task.task_id] = result
        record.state = DONE
        tracer = self._tracer
        if tracer.enabled:
            # Task execution lives on the *simulated* clock: the span is
            # the committed placement interval, laned by cluster node.
            placement = self.placements[task.task_id]
            tracer.record_span(
                f"task:{task.name}",
                placement.start, placement.finish,
                track=placement.node, category="task",
                attrs={"task_id": task.task_id, "cores": placement.cores,
                       "epoch": epoch})
        for dependent in record.dependents:
            if dependent.blockers > 0:
                dependent.blockers -= 1
                if dependent.blockers == 0 and dependent.state == PENDING:
                    self._ready.append(dependent.task.task_id)
        if self._online:
            self._dispatch_online(self.now)

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
        records = self._records
        lost: Set[int] = set()
        for tid, placement in self.placements.items():
            if placement.node == name and placement.finish > now \
                    and records[tid].state in (PLACED, RUNNING):
                lost.add(tid)
        # Transitive closure over the dependents lists (every non-DONE
        # dependency edge is registered there at submit time, and DONE
        # is permanent, so they cover every edge a loss can travel
        # along) — BFS instead of a whole-graph fixpoint scan.
        frontier = list(lost)
        while frontier:
            for dependent in records[frontier.pop()].dependents:
                tid = dependent.task.task_id
                if tid in lost or dependent.state in (DONE, PENDING):
                    continue
                lost.add(tid)
                frontier.append(tid)
        for tid in lost:
            placement = self.placements.pop(tid)
            self.timelines[placement.node].release(
                placement.start, placement.duration, placement.cores
            )
            # A lost RUNNING task's outcome is discarded; the
            # replacement calls the function again.
            record = records[tid]
            record.outcome = None
            record.state = PENDING
            record.epoch += 1
            self._pending.add(tid)
            # A lost task is never DONE, so the order of this loop does
            # not change any count.
            record.blockers = sum(
                1 for d in record.task.deps
                if d not in records or records[d].state != DONE)
            if record.blockers == 0:
                self._ready.append(tid)
        self.rescheduled_tasks += len(lost)
        tracer = self._tracer
        if tracer.enabled and lost:
            tracer.record_span(f"failure:{name}", now, now,
                               track=name, category="failure",
                               attrs={"lost_tasks": len(lost)})
        if lost:
            with tracer.span("engine.reschedule", category="engine") \
                    as span:
                span.attrs.update(node=name, lost=len(lost))
                self._dispatch(now)
