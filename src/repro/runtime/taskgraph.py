"""The Dask-like task API with EVEREST extensions (paper §VI-A).

"The runtime interaction with the target applications is done through a
Dask-like API, requiring only minimal modifications.  The original Dask API
is extended with EVEREST-specific features, mainly to specify the resource
requests and the possibility of kernel fine-tuning."

* :meth:`RuntimeEngine.submit <repro.runtime.engine.RuntimeEngine.submit>`
  is the one entry point: it adds a :class:`Task` to the engine's
  :class:`TaskGraph` and returns its :class:`Future`, and a ``Future``
  passed as an argument, positional or keyword, is a dependency;
* **resource requests** (:class:`ResourceRequest`) carry core counts, FPGA
  needs and cost estimates — the EVEREST extension;
* :func:`dependency_order` is the one topological walk, shared by
  :meth:`TaskGraph.topological_order` and HEFT's rank order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
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
                "task graph not executed yet; call engine.run() first"
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
        # A Future of another graph would read whichever task of this
        # one has its id: it is marked None here and refused below, so
        # the check costs a submit no call.
        results = self.results
        values = (*args, *kwargs.values()) if kwargs else args
        deps = [arg.task_id if arg._results is results else None
                for arg in values if isinstance(arg, Future)]
        if None in deps:
            where = next(
                key for key, arg in (*enumerate(args), *kwargs.items())
                if isinstance(arg, Future) and arg._results is not results)
            raise RuntimeSchedulingError(
                f"argument {where!r} is a Future of another task graph; "
                "pass its result() instead")
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
        return dependency_order(list(self.tasks.values()))


def dependency_order(order: List[Task]) -> List[Task]:
    """``order`` with every task after its dependencies.

    Kahn's walk that, of the tasks whose dependencies are all out, emits
    the one earliest in ``order``.  Submission order (``submit`` and
    ``build_replan_subgraph`` put every dependency first) and HEFT's
    rank order (upward ranks fall along every edge) already respect the
    dependencies, and then the walk would emit ``order`` itself: one
    pass that finds no dependency at or after its task returns it as it
    is.  A cycle, or a dependency on a task that is not in ``order``, is
    a :class:`RuntimeSchedulingError`.
    """
    position = {task.task_id: i for i, task in enumerate(order)}
    settled = True
    for i, task in enumerate(order):
        for dep in task.deps:
            if dep not in position or position[dep] >= i:
                settled = False
    if settled:
        return order
    indegree: Dict[int, int] = {}
    dependents: Dict[int, List[int]] = {}
    for task in order:
        indegree[task.task_id] = len(task.deps)
        for dep in task.deps:
            if dep not in position:
                raise RuntimeSchedulingError(
                    f"task {task.name!r} depends on task {dep}, which is "
                    "not in the graph")
            dependents.setdefault(dep, []).append(task.task_id)
    ready = [position[tid] for tid, degree in indegree.items()
             if degree == 0]
    heapify(ready)
    result: List[Task] = []
    while ready:
        task = order[heappop(ready)]
        result.append(task)
        for successor in dependents.get(task.task_id, ()):
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heappush(ready, position[successor])
    if len(result) != len(order):
        raise RuntimeSchedulingError("task graph has a cycle")
    return result
