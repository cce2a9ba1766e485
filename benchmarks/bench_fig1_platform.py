"""FIG1: the converged heterogeneous platform (paper Fig. 1).

Instantiates the full stack — accelerated nodes, the daemon's REST
surface, and a vertical solution (a traffic query) — and deploys a
workflow end to end through it.  The virtualization layer is Fig. 6's
own model (``bench_fig6_virtualization.py``).
"""

import numpy as np

from repro.apps.traffic import RoadNetwork, ptdr_montecarlo, synthetic_segment_models
from repro.basecamp.serve import BasecampService
from repro.runtime import default_cluster
from repro.workflows import LexisPlatform, WorkflowSpec, WorkflowTask


def _build_platform():
    cluster = default_cluster(num_nodes=4, fpgas_per_node=1)
    network = RoadNetwork(5, 5, seed=0)
    route = network.random_route(np.random.default_rng(0))
    models = synthetic_segment_models(network, route)

    def ptdr_query(departure_s):
        dist = ptdr_montecarlo(models, departure_s, samples=200, seed=0)
        return {"median_s": dist.median_s, "p95_s": dist.percentile_s(95)}

    return cluster, BasecampService(), ptdr_query


def test_fig1_platform_bringup(benchmark):
    cluster, service, _ = benchmark(_build_platform)
    assert len(cluster.fpga_nodes()) == 4
    # The resource manager answers for the vertical's workflow over the
    # same API every other tenant uses.
    reply = service.handle("runtime", {"nodes": 4, "tasks": [
        {"name": "ingest"},
        {"name": "query", "after": ["ingest"], "fpga": True}]})
    placed = reply["results"][0]["placements"]
    assert placed["ingest"]["finish"] <= placed["query"]["start"]


def test_fig1_end_to_end_workflow(benchmark):
    cluster, _, ptdr_query = _build_platform()
    platform = LexisPlatform(cluster)

    def run_workflow():
        spec = WorkflowSpec("vertical")
        spec.add(WorkflowTask("ingest", lambda: 8 * 3600.0))
        spec.add(WorkflowTask("query", ptdr_query, after=["ingest"]))
        client = platform.deploy(spec)
        client.compute()
        return platform.results("vertical")["query"]

    result = benchmark(run_workflow)
    assert result["p95_s"] >= result["median_s"] > 0
