"""CLAIM-PTDR: "We also implemented the PTDR kernel on a compute cluster
with Alveo u55c FPGAs ... We also tested this component with the
virtualization layer" (§VIII).

CPU PTDR vs. the same kernel scheduled by the runtime engine as an FPGA
task on a u55c node (its modelled duration includes the SR-IOV overhead),
plus the routing product: a departure-time sweep.
"""

import numpy as np

from repro.apps.traffic import (
    RoadNetwork,
    departure_profile,
    ptdr_montecarlo,
    synthetic_segment_models,
)
from repro.apps.traffic.ptdr import ptdr_flops_per_sample
from repro.runtime import (
    Cluster,
    EverestClient,
    Node,
    ResourceRequest,
)
from repro.platforms import alveo_u55c

_NETWORK = RoadNetwork(6, 6, seed=3)
_ROUTE = _NETWORK.random_route(np.random.default_rng(5))
_MODELS = synthetic_segment_models(_NETWORK, _ROUTE, seed=1)
_SAMPLES = 2000


def test_ptdr_cpu(benchmark):
    dist = benchmark(ptdr_montecarlo, _MODELS, 8 * 3600.0, _SAMPLES, 0)
    assert dist.median_s > 0


def test_ptdr_on_virtualized_fpga_cluster(benchmark):
    """Schedule PTDR as an FPGA task on a u55c cluster (timing model)."""
    cluster = Cluster([Node("host0", fpgas=[]),
                       Node("acc0", fpgas=[alveo_u55c()])])
    flops = ptdr_flops_per_sample(_MODELS) * _SAMPLES
    # The deeply pipelined MC kernel sustains ~64 sample-steps/cycle.
    fpga_seconds = flops / (64.0 * 12 * 300e6)

    def run():
        client = EverestClient(cluster)
        future = client.submit(
            lambda: ptdr_montecarlo(_MODELS, 8 * 3600.0, _SAMPLES, 0),
            resources=ResourceRequest(fpga=True, fpga_seconds=fpga_seconds,
                                      cpu_flops=flops),
        )
        schedule = client.compute()
        return future.result(), schedule

    dist, schedule = benchmark(run)
    placement = next(iter(schedule.placements.values()))
    assert placement.node == "acc0"
    cpu_seconds = flops / (2.5e9)  # one core of the host node
    speedup = cpu_seconds / placement.duration
    print(f"\n  PTDR modelled: cpu={cpu_seconds * 1e3:.2f}ms "
          f"fpga(virtualized)={placement.duration * 1e3:.3f}ms "
          f"speedup={speedup:.0f}x")
    assert speedup > 1.0


def test_ptdr_departure_sweep(benchmark):
    departures = [h * 3600.0 for h in (3, 8, 12, 17.5, 22)]
    profile = benchmark(departure_profile, _MODELS, departures, 400, 0)
    assert profile[8 * 3600.0].median_s > profile[3 * 3600.0].median_s
    print()
    for departure, dist in profile.items():
        print(f"  depart {departure / 3600:5.1f}h "
              f"median={dist.median_s:7.1f}s p95={dist.percentile_s(95):7.1f}s")
