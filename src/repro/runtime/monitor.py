"""Cluster monitoring: failure detection (§VI-A duty 4).

The monitor records node heartbeats and reports node liveness, the
signal the engine's rescheduling acts on (the load-balance signal is
:meth:`~repro.runtime.ScheduleResult.utilization`).
"""

from __future__ import annotations

from typing import Dict, List

from repro.runtime.cluster import Cluster


class ClusterMonitor:
    """Watches a cluster's heartbeats."""

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
