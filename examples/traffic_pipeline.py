"""Traffic use case (paper §II-D): the Fig. 4 pipeline on synthetic FCD.

Parses the paper's ConDRust listing, lowers it to a dataflow graph, runs
HMM map matching over generated floating-car data on the runtime engine
with the projection kernel placed as an FPGA task, then builds speed
profiles and a PTDR travel-time distribution for the matched route.

Run:  python examples/traffic_pipeline.py
"""

import numpy as np

from repro.apps.traffic import (
    RoadNetwork,
    build_trellis,
    generate_fcd,
    interpolate,
    matching_accuracy,
    projection,
    ptdr_montecarlo,
    synthetic_segment_models,
    viterbi,
)
from repro.frontends.condrust import (
    FIG4_MAP_MATCHING,
    DataflowExecutor,
    lower_program_to_dfg,
    parse_program,
)


def main() -> None:
    network = RoadNetwork(8, 8, seed=1)
    rng = np.random.default_rng(11)
    route = network.random_route(rng, min_segments=10)
    trajectory = generate_fcd(network, route, rng, gps_noise_m=15.0)
    print(f"road network: {len(network.segments)} segments; "
          f"trajectory: {len(trajectory.fixes)} GPS fixes")

    # The coordination layer: the paper's Fig. 4, verbatim.
    module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
    executor = DataflowExecutor(module)
    executor.register_all({
        "projection": projection,
        "build_trellis": build_trellis,
        "viterbi": viterbi,
        "interpolate": lambda rsv, mc: interpolate(rsv, mc, trajectory),
    })
    matched = executor.run("match_one", trajectory, network)
    # The run is a schedule of the runtime engine: which kernels it
    # placed as FPGA tasks, and where, is read off it.
    offloaded = [node.callee for node in executor.trace if node.offloaded]
    accuracy = matching_accuracy(matched, trajectory)
    print(f"map matching: accuracy={accuracy:.0%}, "
          f"offloaded kernels: {offloaded}")
    for node in executor.trace:
        placed = executor.schedule.placements[node.task_id]
        print(f"  {node.binding or node.callee:>11} -> {placed.node} "
              f"[{placed.start * 1e3:.3f}, {placed.finish * 1e3:.3f}] ms"
              f"{' (FPGA)' if node.offloaded else ''}")
    print(f"mean matched speed: {matched.mean_speed():.1f} m/s")

    # Downstream: probabilistic time-dependent routing on the route.
    models = synthetic_segment_models(network, route, seed=2)
    for hour in (3, 8, 17):
        dist = ptdr_montecarlo(models, hour * 3600.0, samples=1500, seed=0)
        print(f"PTDR departure {hour:02d}:00 -> "
              f"median {dist.median_s:6.1f}s, "
              f"p95 {dist.percentile_s(95):6.1f}s, "
              f"buffer {dist.buffer_index:.0%}")
    print("traffic pipeline OK")


if __name__ == "__main__":
    main()
