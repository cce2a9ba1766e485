"""The EVEREST virtualized runtime environment (paper §VI).

* :mod:`repro.runtime.cluster` — heterogeneous nodes (CPU + FPGA) and the
  data-center network;
* :mod:`repro.runtime.taskgraph` — the Dask-like API with EVEREST resource
  requests and kernel fine-tuning;
* :mod:`repro.runtime.timeline` — the event-sweep core-capacity index
  behind every placement query;
* :mod:`repro.runtime.scheduler` — offline scheduling policies (HEFT,
  round-robin), data transfers, the replan subgraph the engine repairs
  failures through;
* :mod:`repro.runtime.engine` — the event-driven runtime engine: pluggable
  policies, streaming submission, in-loop monitoring and rescheduling;
* :mod:`repro.runtime.monitor` — cluster monitoring;
* :mod:`repro.runtime.virtualization` — QEMU-KVM/libvirt/SR-IOV models.
"""

from repro.runtime.cluster import Cluster, Node, default_cluster
from repro.runtime.engine import (
    POLICIES,
    MinLoadPolicy,
    RuntimeEngine,
    SchedulingPolicy,
    resolve_policy,
    synthetic_workflow,
)
from repro.runtime.monitor import ClusterMonitor, UtilizationReport
from repro.runtime.scheduler import (
    HEFTScheduler,
    Placement,
    RoundRobinScheduler,
    ScheduleResult,
)
from repro.runtime.taskgraph import (
    EverestClient,
    Future,
    ResourceRequest,
    Task,
    TaskGraph,
    delayed,
)
from repro.runtime.timeline import NodeTimeline

__all__ = [
    "Cluster",
    "Node",
    "default_cluster",
    "ClusterMonitor",
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
    "delayed",
]
