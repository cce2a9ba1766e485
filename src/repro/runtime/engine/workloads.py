"""The synthetic workflow the CLI, the daemon, tests and benchmarks submit.

The shape mirrors the EVEREST use-case workflows (§VII): wide layers of
independent kernels with a sliding dependency window between layers —
wide enough to load every node, deep enough that placement order matters.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.runtime.taskgraph import Future, ResourceRequest


def synthetic_workflow(engine, n_tasks: int = 60, seed: int = 0, *,
                       width: Optional[int] = None,
                       fpga_fraction: float = 0.0,
                       label: str = "t") -> List[Future]:
    """Submit a layered random workflow to a
    :class:`~repro.runtime.engine.RuntimeEngine`.

    Returns the futures of the final layer (their results imply the
    whole workflow ran).
    """
    rng = random.Random(seed)
    # Wide enough that one layer oversubscribes a 32-core node, so the
    # policy has real load-balancing decisions to make.
    width = width or max(12, n_tasks // 4)
    futures: List[Future] = []
    previous: List[Future] = []
    submitted = 0
    layer_index = 0
    while submitted < n_tasks:
        layer: List[Future] = []
        for i in range(min(width, n_tasks - submitted)):
            deps = []
            if previous:
                deps = [previous[i % len(previous)],
                        previous[(i + 1) % len(previous)]]
            fpga = rng.random() < fpga_fraction
            resources = ResourceRequest(
                cores=rng.randint(1, 7),
                fpga=fpga,
                cpu_flops=rng.uniform(1e9, 5e10),
                fpga_seconds=rng.uniform(1e-4, 2e-3) if fpga else 0.0,
            )
            layer.append(engine.submit(
                lambda *a, i=submitted: i, *deps,
                resources=resources,
                name=f"{label}{layer_index}_{i}",
            ))
            submitted += 1
        futures = layer
        previous = layer
        layer_index += 1
    return futures
