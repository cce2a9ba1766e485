"""FIG6: the SR-IOV access path of the virtualization environment (paper
Fig. 6), as the runtime engine prices it.

The paper's claim is that SR-IOV "results in near-native performance":
an FPGA task pays ``SRIOV_OVERHEAD`` on top of its raw kernel time, and
that stays within 5 % of bare metal under every placement policy.
"""

import pytest

from repro.platforms import alveo_u55c
from repro.runtime import Cluster, Node, ResourceRequest, RuntimeEngine
from repro.runtime.cluster import SRIOV_OVERHEAD


def test_fig6_sriov_overhead_through_engine(benchmark):
    """The virtualized access path as the runtime engine models it: an
    FPGA task dispatched by any policy pays the SR-IOV overhead on top
    of the raw kernel time — compared across policies through the single
    engine entry point."""
    kernel_seconds = 1e-3

    def run_policies():
        makespans = {}
        for policy in ("heft", "round-robin", "min-load"):
            cluster = Cluster([Node("host0", fpgas=[]),
                               Node("acc0", fpgas=[alveo_u55c()])])
            engine = RuntimeEngine(cluster, policy=policy)
            engine.submit(lambda: 0,
                          resources=ResourceRequest(
                              fpga=True, fpga_seconds=kernel_seconds))
            makespans[policy] = engine.run().makespan
        return makespans

    makespans = benchmark(run_policies)
    for policy, makespan in makespans.items():
        assert makespan == pytest.approx(kernel_seconds * SRIOV_OVERHEAD)
        assert makespan / kernel_seconds <= 1.05  # near-native
    print(f"\n  engine FPGA makespans: "
          + ", ".join(f"{p}={m * 1e3:.4f}ms"
                      for p, m in makespans.items()))
