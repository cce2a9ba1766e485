"""FIG4: the ConDRust map-matching pipeline (paper Fig. 4).

The figure's listing is parsed verbatim, ownership-checked, lowered to a
dfg graph and executed with the traffic use case's real implementations of
projection / build_trellis / viterbi / interpolate on the runtime engine
— with the projection stage placed as an FPGA task, as its ``#[kernel]``
attribute requests.
"""

import numpy as np

from repro.apps.traffic import (
    RoadNetwork,
    build_trellis,
    generate_fcd,
    interpolate,
    matching_accuracy,
    projection,
    viterbi,
)
from repro.frontends.condrust import (
    FIG4_MAP_MATCHING,
    DataflowExecutor,
    lower_program_to_dfg,
    parse_program,
)

_NETWORK = RoadNetwork(6, 6, seed=4)
_RNG = np.random.default_rng(7)
_ROUTE = _NETWORK.random_route(_RNG)
_TRAJECTORY = generate_fcd(_NETWORK, _ROUTE, _RNG)


def _executor():
    module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
    executor = DataflowExecutor(module)
    executor.register_all({
        "projection": projection,
        "build_trellis": build_trellis,
        "viterbi": viterbi,
        "interpolate": lambda rsv, mc: interpolate(rsv, mc, _TRAJECTORY),
    })
    return executor


def test_fig4_frontend(benchmark):
    module = benchmark(
        lambda: lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
    )
    assert module.lookup("match_one").name == "dfg.graph"


def test_fig4_dataflow_execution(benchmark):
    executor = _executor()
    matched = benchmark(executor.run, "match_one", _TRAJECTORY, _NETWORK)
    accuracy = matching_accuracy(matched, _TRAJECTORY)
    assert accuracy > 0.7
    offloaded = [node.callee for node in executor.trace if node.offloaded]
    assert "projection" in offloaded
