"""Property-style cross-policy assertions on small enumerable graphs.

The generative fuzzer (tests/test_workload_fuzz.py) checks the scheduler
invariant suite on random workloads; this module applies the *same*
checkers — imported from :mod:`tools.workloadfuzz`, so an invariant-
checker bug surfaces here on a readable case first — to an exhaustive
enumeration of tiny graphs:

* every DAG on 3 tasks (all 8 dependency patterns over the index order);
* the canonical ≤6-task shapes: chain, diamond, fan-out, fan-in, and a
  double diamond.

Every registered policy must satisfy every invariant on every graph.
"""

import itertools
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)

from workloadfuzz import (  # noqa: E402
    ENGINE_INVARIANTS,
    NodeSpec,
    TaskSpec,
    WorkloadCase,
    check_engine_is_the_offline_schedule,
    check_incremental_heft,
    check_makespan_monotonic,
    run_case,
)

from repro.runtime.engine.policies import POLICIES  # noqa: E402

_NODES = [NodeSpec(cores=8, core_gflops=2.5, fpga=True),
          NodeSpec(cores=4, core_gflops=1.5, fpga=False)]

_SHAPES = {
    "chain6": [(), (0,), (1,), (2,), (3,), (4,)],
    "diamond": [(), (0,), (0,), (1, 2)],
    "fanout5": [(), (0,), (0,), (0,), (0,)],
    "fanin5": [(), (), (), (), (0, 1, 2, 3)],
    "double-diamond": [(), (0,), (0,), (1, 2), (3,), (3,)],
}
# All DAGs on 3 tasks: each of the 3 forward pairs is an edge or not.
for bits in itertools.product([0, 1], repeat=3):
    deps = {1: [], 2: []}
    if bits[0]:
        deps[1].append(0)
    if bits[1]:
        deps[2].append(0)
    if bits[2]:
        deps[2].append(1)
    _SHAPES[f"dag3-{bits[0]}{bits[1]}{bits[2]}"] = \
        [(), tuple(deps[1]), tuple(deps[2])]


def _case(name: str, shape) -> WorkloadCase:
    # Deterministic per-task resources: varied cores (including exactly
    # a node's capacity), one FPGA task when the graph is big enough.
    tasks = []
    for index, deps in enumerate(shape):
        cores = [1, 2, 4, 8, 3, 2][index % 6]
        fpga = index == 3
        tasks.append(TaskSpec(
            index=index, deps=tuple(deps), cores=cores,
            cpu_flops=1e9 * (index + 1), fpga=fpga,
            fpga_seconds=1e-3 if fpga else 0.0,
            output_bytes=4096 * index,
        ))
    return WorkloadCase(seed=0, nodes=list(_NODES),
                        tasks=tasks, arrivals=[(0.0, tuple(
                            range(len(tasks))))])


@pytest.mark.parametrize("name", sorted(_SHAPES))
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_every_policy_satisfies_every_invariant(name, policy):
    case = _case(name, _SHAPES[name])
    engine, schedule, calls = run_case(case, policy)
    for invariant in ENGINE_INVARIANTS:
        invariant(case, policy, engine, schedule, calls)


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_heft_variants_and_monotonicity(name):
    case = _case(name, _SHAPES[name])
    check_incremental_heft(case)
    check_engine_is_the_offline_schedule(case)
    check_makespan_monotonic(case)
