"""CLAIM-RUNTIME: the resource manager's four duties (§VI-A) — dependency-
aware scheduling, load balancing, data transfers, and rescheduling after
failure — on a 100+-task workflow over a heterogeneous cluster.

All policies are exercised through the single entry point of the
event-driven :class:`~repro.runtime.engine.RuntimeEngine`: the same loop
schedules (via the pluggable policy), executes, monitors and — in the
failure benchmark — reschedules mid-run.
"""

import pytest

from repro.runtime import RuntimeEngine, default_cluster
from repro.runtime.engine import synthetic_workflow

_TASKS = 120
_NODES = 4


def _run(policy, seed=0, fail=None):
    cluster = default_cluster(_NODES)
    engine = RuntimeEngine(cluster, policy=policy)
    synthetic_workflow(engine, n_tasks=_TASKS, seed=seed)
    if fail is not None:
        engine.fail_node_at(fail[1], fail[0])
    return engine, engine.run()


def test_heft_vs_round_robin_makespan(benchmark):
    engine, heft = benchmark(_run, "heft")
    assert len(engine.graph.tasks) >= 100
    _, rr = _run("round-robin")
    print(f"\n  HEFT makespan={heft.makespan:.3f}s "
          f"round-robin={rr.makespan:.3f}s "
          f"({rr.makespan / heft.makespan:.2f}x)")
    assert heft.makespan <= rr.makespan * 1.02


def test_min_load_online_policy(benchmark):
    """The online policy places at dispatch time from live node state
    and must stay competitive with the offline baseline."""
    _, min_load = benchmark(_run, "min-load")
    _, rr = _run("round-robin")
    print(f"\n  min-load makespan={min_load.makespan:.3f}s "
          f"round-robin={rr.makespan:.3f}s")
    assert min_load.makespan <= rr.makespan * 1.10


@pytest.mark.parametrize("policy", ["heft", "min-load"])
def test_load_balance_quality(benchmark, policy):
    engine, schedule = benchmark(_run, policy, 1)
    report = schedule.utilization(engine.cluster)
    assert report.imbalance < 3.0


def test_failure_rescheduling_mid_run(benchmark):
    """Duty (4) in-loop: the monitor detects the failure while the engine
    runs and lost tasks are re-placed automatically."""
    _, baseline = _run("heft", seed=2)
    fail_time = baseline.makespan * 0.3

    engine, repaired = benchmark(_run, "heft", 2, ("node1", fail_time))
    assert repaired.rescheduled_tasks > 0
    # No task keeps running on the failed node past the failure.
    for placement in repaired.placements.values():
        if placement.node == "node1":
            assert placement.finish <= fail_time + 1e-9
    # Every task still produced a result on the survivors.
    assert len(engine.graph.results) == len(engine.graph.tasks)
    print(f"\n  failure at {fail_time:.3f}s: "
          f"{repaired.rescheduled_tasks} tasks rescheduled, "
          f"makespan {baseline.makespan:.3f}s -> {repaired.makespan:.3f}s")
