"""Generative workload fuzzing of the runtime engine (smoke tier).

Each seeded case builds a random completable workload with
:mod:`tools.workloadfuzz` — heterogeneous cluster, random DAG, streamed
arrivals, constrained failure injections — runs it through every
registered policy and asserts the full scheduler invariant suite:
completeness (no lost/double-executed task), dependency order, simulated
order (each function runs at its placement's start), no core
overcommit (cross-checked against ``NodeTimeline.peak_usage``),
replay determinism, incremental ≡ baseline HEFT, and makespan
monotonicity under cluster growth.

``tools/workloadfuzz.py --count N`` runs a longer standalone campaign
(``make fuzz-runtime``); triage tips live in docs/runtime.md.
"""

import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)

from workloadfuzz import (  # noqa: E402
    build_cluster,
    check_simulated_order,
    generate_case,
    run_case,
)

N_SEEDS = 200


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_workload_fuzz(seed):
    # Import inside the test so a failure message names the seed's
    # check, and late imports never shadow collection.
    from workloadfuzz import check_workload

    check_workload(seed)


def test_generator_is_deterministic():
    assert generate_case(13) == generate_case(13)


def test_generator_cases_are_completable():
    """Every generated failure schedule leaves survivors that can host
    every task (cores and FPGA needs)."""
    for seed in range(40):
        case = generate_case(seed)
        failed = {name for _, name in case.failures}
        cluster = build_cluster(case)
        survivors = [n for n in cluster.nodes.values()
                     if n.name not in failed]
        assert survivors
        for spec in case.tasks:
            assert any(spec.cores <= node.cores
                       and (not spec.fpga or node.has_fpga)
                       for node in survivors), (seed, spec)


def test_run_case_returns_live_engine_state():
    case = generate_case(3)
    engine, schedule, calls = run_case(case, "heft")
    assert len(schedule.placements) == len(case.tasks)
    assert len(calls) >= len(case.tasks)


def test_simulated_order_catches_a_call_off_its_start():
    case = generate_case(3)
    engine, schedule, calls = run_case(case, "min-load")
    check_simulated_order(case, "min-load", engine, schedule, calls)
    first, last = calls[0], calls[-1]
    assert first[1] < last[1]
    swapped = [last] + calls[1:-1] + [first]
    with pytest.raises(AssertionError, match="clock ran backwards"):
        check_simulated_order(case, "min-load", engine, schedule, swapped)
    late = calls[:-1] + [(last[0], last[1] + 1.0)]
    with pytest.raises(AssertionError, match="placement starts at"):
        check_simulated_order(case, "min-load", engine, schedule, late)
