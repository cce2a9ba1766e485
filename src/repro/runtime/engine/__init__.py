"""The event-driven EVEREST runtime engine (§VI-A).

One discrete-event loop unifies the resource manager's four duties —
dependency-aware scheduling, load balancing, data transfers, and
monitoring with mid-run rescheduling — behind pluggable policies:

* :class:`RuntimeEngine` — the engine: simulated time, real execution
  on the event loop at each task's simulated start, streaming
  submission, in-loop failure recovery;
* :class:`SchedulingPolicy` — the policy contract, one method each:
  :class:`HEFTScheduler` and :class:`RoundRobinScheduler` plan offline,
  :class:`MinLoadPolicy` (``min-load``) places online;
* :data:`POLICIES` / :func:`resolve_policy` — the policy registry used
  by the ``basecamp runtime --policy`` CLI;
* :func:`synthetic_workflow` — shared workload generator.
"""

from repro.runtime.engine.core import RuntimeEngine
from repro.runtime.engine.policies import (
    POLICIES,
    HEFTScheduler,
    MinLoadPolicy,
    RoundRobinScheduler,
    SchedulingPolicy,
    resolve_policy,
)
from repro.runtime.engine.workloads import synthetic_workflow

__all__ = [
    "RuntimeEngine",
    "POLICIES",
    "HEFTScheduler",
    "MinLoadPolicy",
    "RoundRobinScheduler",
    "SchedulingPolicy",
    "resolve_policy",
    "synthetic_workflow",
]
