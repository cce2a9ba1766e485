"""API-based microservices (paper §III).

"Components are packaged up in containers as microservices that can handle
compute-intensive tasks...  Offering such micro-services using RestAPI
enables the reuse of the functionality across different use cases."

An in-process REST-like registry: services register handlers under
``METHOD /path`` routes; calls dispatch with JSON-ish dict payloads and
return status-coded responses.  Used by the Fig. 1 platform benchmark and
the anomaly-detection service deployment.

:class:`RuntimeService` exposes the resource manager itself as a
microservice: JSON workflow descriptions POSTed to ``/runtime/jobs`` are
deployed through the LEXIS platform onto the event-driven
:class:`~repro.runtime.engine.RuntimeEngine` under a client-selected
scheduling policy, and the resulting placements, makespan and
utilization are queryable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import RuntimeSchedulingError, WorkflowError


@dataclass
class Request:
    method: str
    path: str
    payload: dict = field(default_factory=dict)


@dataclass
class Response:
    status: int
    body: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


class MicroserviceRegistry:
    """Route table plus dispatch, one per platform."""

    def __init__(self) -> None:
        self.routes: Dict[Tuple[str, str], Callable[[Request], dict]] = {}
        self.calls: int = 0

    def register(self, method: str, path: str,
                 handler: Callable[[Request], dict]) -> None:
        key = (method.upper(), path)
        if key in self.routes:
            raise WorkflowError(f"route {method} {path} already registered")
        self.routes[key] = handler

    def service(self, method: str, path: str):
        """Decorator form of :meth:`register`."""

        def wrap(handler: Callable[[Request], dict]):
            self.register(method, path, handler)
            return handler

        return wrap

    def call(self, method: str, path: str,
             payload: Optional[dict] = None) -> Response:
        self.calls += 1
        key = (method.upper(), path)
        if key not in self.routes:
            return Response(404, {"error": f"no route {method} {path}"})
        try:
            body = self.routes[key](Request(method.upper(), path,
                                            payload or {}))
        except WorkflowError as error:
            return Response(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - service boundary
            return Response(500, {"error": str(error)})
        return Response(200, body if isinstance(body, dict)
                        else {"result": body})

    def routes_list(self) -> list:
        return sorted(f"{m} {p}" for m, p in self.routes)


def _number(entry: dict, key: str, kind: type, default):
    """A task's cost field as ``kind``; one that will not convert is the
    caller's mistake (400), not a failure of the handler (500)."""
    try:
        return kind(entry.get(key, default))
    except (TypeError, ValueError, OverflowError):
        raise WorkflowError(
            f"task {entry['name']!r}: {key!r} must be of type "
            f"{kind.__name__}, got {entry[key]!r}") from None


def _typed(value, kind: type, what: str):
    """``value`` when JSON gave it the ``kind`` the handler goes on to
    use it as; anything else is a 400 naming the job or task and field."""
    if not isinstance(value, kind):
        raise WorkflowError(
            f"{what} must be of type {kind.__name__}, got {value!r}")
    return value


class RuntimeService:
    """The resource manager (§VI-A) behind a REST-ish API.

    Routes registered on the given registry:

    * ``GET /runtime/policies`` — the pluggable policy names;
    * ``POST /runtime/jobs`` — deploy a JSON workflow description onto
      the engine (payload: ``name``, optional ``policy``, and ``tasks``
      as a list of ``{name, after, cpu_flops, cores, fpga,
      fpga_seconds, output_bytes}``); responds with placements and
      makespan;
    * ``GET /runtime/jobs`` — all jobs served so far;
    * ``GET /runtime/utilization`` — per-node utilization of one job
      (payload: ``{"name": ...}``).
    """

    def __init__(self, registry: MicroserviceRegistry, cluster,
                 policy: str = "heft"):
        from repro.workflows.lexis import LexisPlatform

        self.cluster = cluster
        self.platform = LexisPlatform(cluster, policy=policy)
        self.jobs: Dict[str, dict] = {}
        registry.register("GET", "/runtime/policies", self._policies)
        registry.register("POST", "/runtime/jobs", self._submit_job)
        registry.register("GET", "/runtime/jobs", self._list_jobs)
        registry.register("GET", "/runtime/utilization", self._utilization)

    @staticmethod
    def _policies(request: Request) -> dict:
        from repro.runtime.engine import POLICIES

        return {"policies": sorted(POLICIES)}

    def _submit_job(self, request: Request) -> dict:
        from repro.workflows.lexis import WorkflowSpec, WorkflowTask

        payload = request.payload
        name = payload.get("name")
        if not name:
            raise WorkflowError("job payload needs a 'name'")
        _typed(name, str, "job 'name'")
        if name in self.jobs:
            raise WorkflowError(f"job {name!r} already submitted")
        tasks = payload.get("tasks")
        if not tasks:
            raise WorkflowError("job payload needs a non-empty 'tasks' list")
        spec = WorkflowSpec(name)
        for entry in _typed(tasks, list, f"job {name!r}: 'tasks'"):
            if "name" not in _typed(entry, dict, f"job {name!r}: a task"):
                raise WorkflowError("every task needs a 'name'")
            task = f"job {name!r}: task {entry['name']!r}"
            after = _typed(entry.get("after", []), list, f"{task}: 'after'")
            for dep in after:
                _typed(dep, str, f"{task}: an 'after' entry")
            spec.add(WorkflowTask(
                name=_typed(entry["name"], str, f"{task}: 'name'"),
                fn=lambda *deps, _n=entry["name"]: _n,
                after=after,
                location="fpga" if entry.get("fpga") else "hpc",
                fpga_seconds=_number(entry, "fpga_seconds", float, 1e-3),
                cpu_flops=_number(entry, "cpu_flops", float, 1e9),
                cores=_number(entry, "cores", int, 1),
                output_bytes=_number(entry, "output_bytes", int, 8192),
            ))
        try:
            client = self.platform.deploy(spec,
                                          policy=payload.get("policy"))
            schedule = client.compute()
        except RuntimeSchedulingError as error:
            # An unschedulable workflow is the caller's fault: 400.
            raise WorkflowError(str(error)) from error
        by_name = {t.task_id: t.name for t in client.graph.tasks.values()}
        report = schedule.utilization(self.cluster)
        record = {
            "name": name,
            "policy": getattr(client.scheduler, "name",
                              type(client.scheduler).__name__),
            "makespan_seconds": schedule.makespan,
            "transfers_seconds": schedule.transfers_seconds,
            "utilization": report.utilization,
            "placements": {
                by_name[tid]: {"node": p.node, "start": p.start,
                               "finish": p.finish, "cores": p.cores}
                for tid, p in schedule.placements.items()
            },
        }
        self.jobs[name] = record
        return record

    def _list_jobs(self, request: Request) -> dict:
        return {"jobs": [
            {"name": job["name"], "policy": job["policy"],
             "makespan_seconds": job["makespan_seconds"]}
            for job in self.jobs.values()
        ]}

    def _utilization(self, request: Request) -> dict:
        name = request.payload.get("name")
        if name not in self.jobs:
            raise WorkflowError(f"unknown job {name!r}")
        return {"name": name, "utilization": self.jobs[name]["utilization"]}
