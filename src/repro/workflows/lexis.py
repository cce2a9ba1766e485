"""LEXIS-style workflow deployment (paper §IV "Deployment").

"The deployment of the application workflows leverages the LEXIS platform,
which has been extended to offload the execution of selected kernels to
FPGA.  Once a task (or one of its parts) is marked for FPGA acceleration,
its execution is set to be offloaded to FPGA-based clusters."

A :class:`WorkflowSpec` is a location-annotated DAG; ``deploy`` submits it
to a new EVEREST runtime engine, turning FPGA-marked tasks into FPGA
resource requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import WorkflowError
from repro.runtime.cluster import Cluster
from repro.runtime.engine import RuntimeEngine
from repro.runtime.taskgraph import Future, ResourceRequest


@dataclass
class WorkflowTask:
    """One workflow step."""

    name: str
    fn: Callable
    after: List[str] = field(default_factory=list)
    location: str = "hpc"          # 'hpc' | 'cloud' | 'fpga'
    fpga_seconds: float = 1e-3     # kernel estimate when offloaded
    cpu_flops: float = 1e9
    cores: int = 1
    output_bytes: int = 8192
    args: tuple = ()


@dataclass
class WorkflowSpec:
    """A named workflow DAG; tasks join it through :meth:`add`."""

    name: str
    tasks: List[WorkflowTask] = field(default_factory=list, init=False)
    _by_name: Dict[str, WorkflowTask] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def add(self, task: WorkflowTask) -> "WorkflowSpec":
        if task.name in self._by_name:
            raise WorkflowError(f"duplicate task name {task.name!r}")
        self._by_name[task.name] = task
        self.tasks.append(task)
        return self

    def task(self, name: str) -> WorkflowTask:
        if name not in self._by_name:
            raise WorkflowError(f"unknown task {name!r}")
        return self._by_name[name]

    def mark_for_fpga(self, task_name: str,
                      fpga_seconds: Optional[float] = None) -> None:
        """The paper's offload marking."""
        task = self.task(task_name)
        task.location = "fpga"
        if fpga_seconds is not None:
            task.fpga_seconds = fpga_seconds


class LexisPlatform:
    """Deploys workflows onto the EVEREST runtime engine.

    ``policy`` selects the engine's scheduling policy for every
    deployment (a name like ``"heft"``/``"min-load"`` or a policy
    instance).
    """

    def __init__(self, cluster: Cluster, policy=None):
        self.cluster = cluster
        self.policy = policy
        self.deployments: Dict[str, Dict[str, Future]] = {}

    def deploy(self, spec: WorkflowSpec) -> RuntimeEngine:
        """Submit the whole DAG to a new engine, which the caller runs."""
        engine = RuntimeEngine(self.cluster, policy=self.policy)
        futures: Dict[str, Future] = {}
        # One pass: a task whose dependencies are not all submitted yet
        # waits under each missing name and is released by its last one.
        waiting: Dict[str, List[WorkflowTask]] = {}
        blockers: Dict[str, int] = {}
        for listed in spec.tasks:
            missing = [dep for dep in listed.after if dep not in futures]
            blockers[listed.name] = len(missing)
            for dep in missing:
                waiting.setdefault(dep, []).append(listed)
            ready = [] if missing else [listed]
            while ready:
                task = ready.pop()
                deps = [futures[d] for d in task.after]
                resources = ResourceRequest(
                    cores=task.cores,
                    fpga=task.location == "fpga",
                    cpu_flops=task.cpu_flops,
                    fpga_seconds=task.fpga_seconds,
                )
                futures[task.name] = engine.submit(
                    task.fn, *task.args, *deps, resources=resources,
                    output_bytes=task.output_bytes, name=task.name,
                )
                for waiter in waiting.pop(task.name, ()):
                    blockers[waiter.name] -= 1
                    if not blockers[waiter.name]:
                        ready.append(waiter)
        if waiting:
            raise WorkflowError(
                f"workflow {spec.name!r} has unsatisfiable dependencies: "
                f"{[t.name for t in spec.tasks if blockers[t.name]]}"
            )
        self.deployments[spec.name] = futures
        return engine

    def results(self, spec_name: str) -> Dict[str, object]:
        if spec_name not in self.deployments:
            raise WorkflowError(f"workflow {spec_name!r} not deployed")
        return {name: future.result()
                for name, future in self.deployments[spec_name].items()}
