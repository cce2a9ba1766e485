"""The EVEREST virtualized runtime environment (paper §VI).

* :mod:`repro.runtime.cluster` — heterogeneous nodes (CPU + FPGA) and the
  data-center network;
* :mod:`repro.runtime.taskgraph` — the Dask-like API with EVEREST resource
  requests;
* :mod:`repro.runtime.timeline` — the event-sweep core-capacity index
  behind every placement query;
* :mod:`repro.runtime.engine` — the event-driven runtime engine, the one
  planner: scheduling policies (HEFT, round-robin, min-load) and their
  cost model, streaming submission, and in-loop rescheduling of the work
  a failed node loses (a node's liveness is its ``alive`` flag).

An FPGA task's time includes ``cluster.SRIOV_OVERHEAD``, the SR-IOV access
path of Fig. 6's virtualization environment.
"""

from repro.runtime.cluster import Cluster, Node, default_cluster
from repro.runtime.engine import (
    POLICIES,
    HEFTScheduler,
    MinLoadPolicy,
    RoundRobinScheduler,
    RuntimeEngine,
    SchedulingPolicy,
    resolve_policy,
    synthetic_workflow,
)
from repro.runtime.engine.policies import (
    Placement,
    ScheduleResult,
    UtilizationReport,
)
from repro.runtime.taskgraph import (
    EverestClient,
    Future,
    ResourceRequest,
    Task,
    TaskGraph,
)
from repro.runtime.timeline import NodeTimeline

__all__ = [
    "Cluster",
    "Node",
    "default_cluster",
    "UtilizationReport",
    "HEFTScheduler",
    "RoundRobinScheduler",
    "MinLoadPolicy",
    "SchedulingPolicy",
    "RuntimeEngine",
    "POLICIES",
    "resolve_policy",
    "synthetic_workflow",
    "NodeTimeline",
    "Placement",
    "ScheduleResult",
    "EverestClient",
    "Future",
    "ResourceRequest",
    "Task",
    "TaskGraph",
]
