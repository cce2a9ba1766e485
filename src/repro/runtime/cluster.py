"""Cluster model: heterogeneous nodes with CPUs and FPGAs.

The EVEREST target system (§III): nodes with Intel Xeon / AMD EPYC CPUs,
PCIe-attached Alveo cards and network-attached cloudFPGA nodes, connected
by a data-center network.  The engine prices an FPGA task with
:data:`SRIOV_OVERHEAD`, the one factor it takes from Fig. 6's
virtualization environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import RuntimeSchedulingError
from repro.platforms.device import FPGADevice, alveo_u55c
from repro.platforms.network import LinkModel

# Fig. 6: a VM reaches its FPGA through an SR-IOV virtual function, the
# "near-native" access path, so a kernel runs 3 % slower than bare metal.
SRIOV_OVERHEAD = 1.03


@dataclass
class Node:
    """One physical computing node."""

    name: str
    cores: int = 32
    core_gflops: float = 2.5  # per-core sustained f64 GFLOP/s
    fpgas: List[FPGADevice] = field(default_factory=list)
    alive: bool = True

    @property
    def has_fpga(self) -> bool:
        return bool(self.fpgas)

    def cpu_seconds(self, flops: float, cores_used: int = 1) -> float:
        """Time to run ``flops`` float operations on this node's CPUs."""
        cores_used = max(1, min(cores_used, self.cores))
        return flops / (self.core_gflops * 1e9 * cores_used)


class Cluster:
    """A set of nodes joined by a uniform data-center network."""

    def __init__(self, nodes: List[Node],
                 network: Optional[LinkModel] = None):
        if not nodes:
            raise RuntimeSchedulingError("cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise RuntimeSchedulingError("duplicate node names")
        self.nodes: Dict[str, Node] = {n.name: n for n in nodes}
        self.network = network or LinkModel(bandwidth_gbps=100.0,
                                            latency_us=2.0)

    def node(self, name: str) -> Node:
        if name not in self.nodes:
            raise RuntimeSchedulingError(f"unknown node {name!r}")
        return self.nodes[name]

    def alive_nodes(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.alive]

    def fail_node(self, name: str) -> None:
        """Take a node down (used by failure-injection tests)."""
        self.node(name).alive = False

    def restore_node(self, name: str) -> None:
        self.node(name).alive = True

    def transfer_seconds(self, src: str, dst: str, num_bytes: int) -> float:
        if src == dst:
            return 0.0
        return self.network.message_seconds(num_bytes)


def default_cluster(num_nodes: int = 4, fpgas_per_node: int = 1) -> Cluster:
    """The EVEREST testbed shape: a few nodes, u55c cards on each."""
    nodes = []
    for i in range(num_nodes):
        fpgas = [alveo_u55c() for _ in range(fpgas_per_node)]
        nodes.append(Node(name=f"node{i}", fpgas=fpgas))
    return Cluster(nodes)
