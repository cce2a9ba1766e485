"""The Dask-like task API with EVEREST extensions (paper §VI-A).

"The runtime interaction with the target applications is done through a
Dask-like API, requiring only minimal modifications.  The original Dask API
is extended with EVEREST-specific features, mainly to specify the resource
requests and the possibility of kernel fine-tuning."

* :class:`EverestClient.submit` is the eager-ish entry point returning a
  :class:`Future`;
* **resource requests** (:class:`ResourceRequest`) carry core counts, FPGA
  needs and cost estimates — the EVEREST extension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import inf
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import RuntimeSchedulingError

_BAD_COST = "{} must be finite and not negative, got {!r}"


@dataclass(frozen=True)
class ResourceRequest:
    """EVEREST resource request attached to one task."""

    cores: int = 1
    fpga: bool = False
    # Cost model inputs: CPU flops, or FPGA kernel time if offloaded.
    cpu_flops: float = 1e9
    fpga_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise RuntimeSchedulingError("a task needs at least one core")
        # Chained comparisons: NaN fails both, and no call is added to
        # a construction that happens once per task.
        if not 0.0 <= self.cpu_flops < inf:
            raise RuntimeSchedulingError(
                _BAD_COST.format("cpu_flops", self.cpu_flops))
        if not 0.0 <= self.fpga_seconds < inf:
            raise RuntimeSchedulingError(
                _BAD_COST.format("fpga_seconds", self.fpga_seconds))


@dataclass
class Task:
    """One node of the task graph."""

    task_id: int
    name: str
    fn: Callable
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    deps: List[int]
    resources: ResourceRequest
    output_bytes: int = 8192

    def runtime_on_cpu(self, node) -> float:
        return node.cpu_seconds(self.resources.cpu_flops,
                                self.resources.cores)


class Future:
    """A handle to a task's eventual result.

    Holds the results table, not the graph: tasks keep their futures as
    arguments, so a reference to the graph would make every workflow a
    cycle that only the garbage collector's cycle detector can free.
    """

    def __init__(self, results: Dict[int, Any], task_id: int):
        self._results = results
        self.task_id = task_id

    def result(self):
        if self.task_id not in self._results:
            raise RuntimeSchedulingError(
                "task graph not executed yet; call client.compute() first"
            )
        return self._results[self.task_id]


class TaskGraph:
    """A DAG of tasks under construction."""

    def __init__(self) -> None:
        self._ids = itertools.count()
        self.tasks: Dict[int, Task] = {}
        self.results: Dict[int, Any] = {}

    def add(self, fn: Callable, args: tuple, kwargs: dict,
            resources: Optional[ResourceRequest], output_bytes: int,
            name: Optional[str]) -> Future:
        if not 0 <= output_bytes < inf:
            raise RuntimeSchedulingError(
                _BAD_COST.format("output_bytes", output_bytes))
        deps = [arg.task_id for arg in args if isinstance(arg, Future)]
        task_id = next(self._ids)
        self.tasks[task_id] = Task(
            task_id=task_id,
            name=name or getattr(fn, "__name__", f"task{task_id}"),
            fn=fn,
            args=tuple(args),
            kwargs=dict(kwargs),
            deps=deps,
            resources=resources or ResourceRequest(),
            output_bytes=output_bytes,
        )
        return Future(self.results, task_id)

    def topological_order(self) -> List[Task]:
        # Iterative post-order DFS (same order a recursive visit would
        # produce) — a 100k-task dependency chain must not hit the
        # interpreter recursion limit.  ``emitted`` maps a visited task
        # to whether it is out (False: still on the current DFS path, so
        # between two roots every key is out).
        tasks = self.tasks
        order: List[Task] = []
        emitted: Dict[int, bool] = {}
        for root, task in list(tasks.items()):
            if root in emitted:
                continue
            # Submission order puts dependencies first, so a root's are
            # normally all out already: the DFS would emit it at once.
            for dep in task.deps:
                if dep not in emitted:
                    break
            else:
                emitted[root] = True
                order.append(task)
                continue
            emitted[root] = False
            stack = [(root, iter(task.deps))]
            while stack:
                task_id, deps = stack[-1]
                for dep in deps:
                    state = emitted.get(dep)
                    if state is False:
                        raise RuntimeSchedulingError(
                            "task graph has a cycle")
                    if state:
                        continue
                    emitted[dep] = False
                    stack.append((dep, iter(tasks[dep].deps)))
                    break
                else:
                    emitted[task_id] = True
                    order.append(tasks[task_id])
                    stack.pop()
        return order


class EverestClient:
    """The application-facing client (the Dask ``Client`` analogue).

    A thin wrapper over the event-driven
    :class:`~repro.runtime.engine.RuntimeEngine`, the only planner there
    is: submission builds the engine's task graph, :meth:`compute` runs
    the engine (simulated placement + real execution in one event loop),
    and :meth:`gather` re-dispatches anything submitted since the last
    run — the seed client silently ignored tasks submitted after
    ``compute()``.

    ``scheduler`` accepts a policy instance or a registry name
    (``"heft"``, ``"round-robin"``, ``"min-load"``); the default is HEFT.
    """

    def __init__(self, cluster, scheduler=None):
        from repro.runtime.engine import RuntimeEngine

        self.cluster = cluster
        self.engine = RuntimeEngine(cluster, policy=scheduler)
        self.scheduler = self.engine.policy
        self.graph = self.engine.graph
        self.last_schedule = None

    def submit(self, fn: Callable, *args,
               resources: Optional[ResourceRequest] = None,
               output_bytes: int = 8192,
               name: Optional[str] = None, **kwargs) -> Future:
        """Add one task; ``Future`` arguments become dependencies."""
        return self.engine.submit(fn, *args, resources=resources,
                                  output_bytes=output_bytes, name=name,
                                  **kwargs)

    def compute(self):
        """Dispatch pending tasks on the cluster (simulated time) and
        execute them (real results).  Returns the cumulative
        :class:`~repro.runtime.ScheduleResult`.
        """
        self.last_schedule = self.engine.run()
        return self.last_schedule

    def gather(self, futures: List[Future]) -> list:
        if self.last_schedule is None or self.engine.has_pending():
            self.compute()
        return [f.result() for f in futures]
