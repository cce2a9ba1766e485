"""The paper's §V–§VIII claims that no other tier-1 test states, each
checked through an SDK entry point.

Where the others are checked: stage caching and the format sweep's
agreement with single compiles in ``tests/test_pipeline.py``; the energy,
air-quality, traffic and WRF use cases in ``tests/test_apps.py``; TPE,
the anomaly service and mARGOt in ``tests/test_autotuner_anomaly.py``;
HEFT against round-robin and failure rescheduling in
``tests/test_runtime.py`` and ``tests/test_runtime_engine.py``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.ir import types as T
from repro.olympus import OlympusGenerator
from repro.pipeline import PipelineSession
from repro.platforms import PLMConfig, device_by_name
from repro.runtime.engine.policies import POLICIES


def test_custom_formats_speed_up_the_kernel():
    """§VIII: every custom data format of the DSE synthesizes Fig. 3 in
    fewer cycles than double precision."""
    swept = PipelineSession().format_sweep(
        FIG3_MAJOR_ABSORBER, ["f64", "f32", "bf16", "fixed<8.8>",
                              "posit<16,1>"])
    cycles = {spec: report.total_cycles for spec, report in swept.items()}
    f64 = cycles.pop("f64")
    assert max(cycles.values()) < f64, cycles


def test_each_olympus_optimization_lowers_latency():
    """§V-C: in the design space the session explores, turning on data
    packing or double buffering, or doubling the replicas, makes every
    configuration faster."""
    points = PipelineSession().olympus(FIG3_MAJOR_ABSORBER).points
    latency = {(config.replicas, config.double_buffered, config.packed):
               breakdown.total for config, breakdown, _ in points}
    assert len(latency) >= 8
    for (replicas, buffered, packed), seconds in latency.items():
        for better in ((replicas, True, packed), (replicas, buffered, True),
                       (2 * replicas, buffered, packed)):
            if better != (replicas, buffered, packed) and better in latency:
                assert latency[better] < seconds, (better, replicas,
                                                   buffered, packed)


def test_packing_raises_bandwidth():
    """§V-C, Iris data packing: on Fig. 3, every packed design point moves
    its input in less time than the unpacked point with the same
    replicas and buffering, and the generated instance fills the 512-bit
    bus where an unpacked one carries one 64-bit element per beat."""
    result = PipelineSession().olympus(FIG3_MAJOR_ABSORBER)
    transfer_in = {(config.replicas, config.double_buffered, config.packed):
                   breakdown.transfer_in
                   for config, breakdown, _ in result.points}
    packed = [key for key in transfer_in if key[2]]
    assert packed
    for replicas, buffered, _ in packed:
        assert transfer_in[replicas, buffered, True] \
            < transfer_in[replicas, buffered, False]
    (instance,) = result.system.instances
    assert result.best.packed and instance.bus_efficiency == 1.0
    generator = OlympusGenerator(device_by_name(result.device_name))
    _, unpacked = generator.estimate(instance.report,
                                     replace(result.best, packed=False))
    assert unpacked.bus_efficiency == 64 / 512


# The exec_stream benchmark's kernel at 1,500 x 8.
CHAIN = """
kernel chain {
  index i: 1500, j: 8
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  t3 = t2 * b + t1
  out = sum[j](t3 * t2)
}
"""


def test_plm_sharing_saves_bram():
    """§V-C, PLM sharing: the generated system's scratch PLM, sized by
    the compiler's lifetime-shared arena, takes fewer BRAM18 blocks than
    one buffer per ``memref.alloc`` of the lowered kernel would."""
    session = PipelineSession()
    result = session.olympus(CHAIN)
    (instance,) = result.system.instances
    (scratch,) = [plm for plm in instance.plms if plm.name == "scratch"]
    compiled = session.compile(CHAIN)
    unshared = 0
    for op in compiled.module.lookup(compiled.kernel.name).walk():
        if op.name == "memref.alloc":
            ref = op.results[0].type
            unshared += math.prod(ref.shape) * T.bitwidth(ref.element) // 8
    dedicated = PLMConfig("scratch", unshared)
    assert scratch.bytes < unshared
    assert (scratch.bram_blocks, dedicated.bram_blocks) == (125, 131)


@pytest.mark.parametrize("seed", [0, 1])
def test_online_policies_balance_a_120_task_workflow(seed):
    """§VI-A's load balancing: on `basecamp runtime`'s 120-task workflow
    over four nodes, the online min-load policy stays within 10 % of
    round-robin's makespan, and HEFT and min-load keep the busiest node
    under three times the mean load."""
    from repro.runtime import default_cluster
    from repro.runtime.engine import RuntimeEngine, synthetic_workflow

    rows = {}
    for policy in POLICIES:
        cluster = default_cluster(4)
        engine = RuntimeEngine(cluster, policy=policy)
        synthetic_workflow(engine, n_tasks=120, seed=seed)
        result = engine.run()
        rows[policy] = (result.makespan,
                        result.utilization(cluster).imbalance)
    assert sorted(rows) == ["heft", "min-load", "round-robin"]
    assert rows["min-load"][0] <= rows["round-robin"][0] * 1.10
    assert rows["heft"][1] < 3.0
    assert rows["min-load"][1] < 3.0


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_ptdr_runs_on_the_virtualized_fpga_node(policy):
    """§VIII: PTDR deployed as a workflow's FPGA step on a cluster of a
    host and a u55c node runs on the card, behind the SR-IOV layer, under
    every policy, and returns the distribution the CPU kernel computes."""
    from repro.apps.traffic import (
        RoadNetwork,
        ptdr_montecarlo,
        synthetic_segment_models,
    )
    from repro.platforms import alveo_u55c
    from repro.runtime import Cluster, Node
    from repro.runtime.cluster import SRIOV_OVERHEAD
    from repro.workflows import LexisPlatform, WorkflowSpec, WorkflowTask

    network = RoadNetwork(6, 6, seed=3)
    models = synthetic_segment_models(
        network, network.random_route(np.random.default_rng(5)), seed=1)
    spec = WorkflowSpec("routing")
    spec.add(WorkflowTask("depart", lambda: 8 * 3600.0))
    spec.add(WorkflowTask(
        "ptdr", lambda departure: ptdr_montecarlo(models, departure, 400, 0),
        after=["depart"], location="fpga", fpga_seconds=2e-3))
    platform = LexisPlatform(Cluster([Node("host0", fpgas=[]),
                                      Node("acc0", fpgas=[alveo_u55c()])]),
                             policy)
    engine = platform.deploy(spec)
    schedule = engine.run()
    placed = {engine.graph.tasks[task_id].name: placement
              for task_id, placement in schedule.placements.items()}
    assert placed["ptdr"].node == "acc0"
    assert placed["ptdr"].duration == pytest.approx(2e-3 * SRIOV_OVERHEAD)
    assert placed["depart"].finish <= placed["ptdr"].start
    dist = platform.results("routing")["ptdr"]
    cpu = ptdr_montecarlo(models, 8 * 3600.0, 400, 0)
    assert (dist.median_s, dist.percentile_s(95)) \
        == (cpu.median_s, cpu.percentile_s(95))
