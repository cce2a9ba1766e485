"""Cluster monitoring: utilization reports and failure detection (§VI-A).

The monitor inspects schedules and libvirt node states, producing the
signals the resource manager acts on: per-node utilization (load-balance
trigger) and node liveness (rescheduling trigger).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.runtime.cluster import Cluster
from repro.runtime.scheduler import ScheduleResult


@dataclass
class UtilizationReport:
    """Per-node busy time relative to the schedule makespan."""

    makespan: float
    busy: Dict[str, float]
    utilization: Dict[str, float]
    imbalance: float  # max/mean busy ratio


class ClusterMonitor:
    """Watches a cluster and its schedules."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster
        self.heartbeat: Dict[str, float] = {
            name: 0.0 for name in cluster.nodes
        }

    def record_heartbeat(self, node: str, time: float) -> None:
        self.heartbeat[node] = time

    def dead_nodes(self, now: float, timeout: float = 30.0) -> List[str]:
        """Nodes whose heartbeat is stale (or marked not alive)."""
        dead = [name for name, node in self.cluster.nodes.items()
                if not node.alive]
        dead.extend(
            name for name, last in self.heartbeat.items()
            if now - last > timeout and name not in dead
            and self.cluster.nodes[name].alive
        )
        return dead

    def utilization(self, schedule: ScheduleResult) -> UtilizationReport:
        makespan = schedule.makespan or 1e-12
        busy: dict = {}
        for placement in schedule.placements.values():
            busy[placement.node] = busy.get(placement.node, 0.0) \
                + placement.core_seconds
        for name in self.cluster.nodes:
            busy.setdefault(name, 0.0)
        # Core-seconds consumed over core-seconds available.
        utilization = {
            name: b / (makespan * self.cluster.nodes[name].cores)
            for name, b in busy.items()
        }
        values = list(busy.values())
        mean = sum(values) / len(values) if values else 0.0
        imbalance = (max(values) / mean) if mean else 1.0
        return UtilizationReport(makespan, busy, utilization, imbalance)
