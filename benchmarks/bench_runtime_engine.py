"""BENCH-RUNTIME-ENGINE: the placement hot path against its two oracles.

Records, written to ``benchmarks/out/runtime_engine.json`` (run via
``make bench-runtime``):

* ``timeline`` — the interval-scanning placement timeline
  (``tools/oracles.py::ScanTimeline``, O(intervals²) per query) against
  the event-sweep :class:`~repro.runtime.timeline.NodeTimeline` index,
  scheduling the *same* 2,000-task graph through the same scheduler;
  placements must be identical and the index must be ≥5× faster;
* ``scale_smoke`` / ``scale`` — incremental HEFT placement
  (:mod:`repro.runtime.placement`) against the exhaustive per-node scan
  (``tools/oracles.py::ScanHEFT``) on a cluster-scale graph, with a
  wall-clock budget so scaling regressions fail loudly.  The default
  run uses a reduced scale that fits in ``make test``; set
  ``BENCH_SCALE_FULL=1`` for the full 100k-task / 1,000-node
  measurement (the scan alone takes about 20 minutes).

Per-policy planning time and makespan through the engine come from
``python3 -m bench --workload engine_plan --trace 1``
(``engine.policy_ms.*``, ``engine.makespan_s``); that HEFT's makespan
stays within 2 % of round-robin's is
``bench_claim_runtime_scheduler.py::test_heft_vs_round_robin_makespan``.
"""

import os

from conftest import measure, record
from oracles import ScanHEFT, ScanTimeline, fresh_timelines

from repro.runtime import (
    HEFTScheduler,
    NodeTimeline,
    RoundRobinScheduler,
    TaskGraph,
    default_cluster,
)
from repro.runtime.engine import synthetic_workflow

_TIMELINE_TASKS = 2000
_TIMELINE_NODES = 16

_SCALE_FULL = os.environ.get("BENCH_SCALE_FULL") == "1"
_SCALE_TASKS, _SCALE_NODES = (100_000, 1000) if _SCALE_FULL else (4000, 200)
_SCALE_BUDGET = 240.0 if _SCALE_FULL else 30.0
_SCALE_MIN_SPEEDUP = 10.0 if _SCALE_FULL else 3.0
_SCALE_SEED = 7
# Incremental-only scaling curve, recorded alongside the full run.
_SCALE_CURVE = (20000, 60000)


class _GraphBuilder:
    """Adapter so :func:`synthetic_workflow` can fill a bare graph."""

    def __init__(self):
        self.graph = TaskGraph()

    def submit(self, fn, *args, resources=None, output_bytes=8192,
               name=None, **kwargs):
        return self.graph.add(fn, args, kwargs, resources, output_bytes,
                              name)


def _workflow(n_tasks, seed):
    builder = _GraphBuilder()
    synthetic_workflow(builder, n_tasks=n_tasks, seed=seed)
    assert len(builder.graph.tasks) == n_tasks
    return builder.graph


def _same_schedule(left, right) -> bool:
    if set(left.placements) != set(right.placements):
        return False
    for tid, placement in left.placements.items():
        other = right.placements[tid]
        if (placement.node, placement.start, placement.finish) \
                != (other.node, other.start, other.finish):
            return False
    return abs(left.transfers_seconds - right.transfers_seconds) < 1e-9


def test_timeline_index_speedup_on_2000_task_graph():
    graph = _workflow(_TIMELINE_TASKS, seed=0)
    cluster = default_cluster(_TIMELINE_NODES)

    def plan(policy, timeline=NodeTimeline):
        # Called the way the engine calls a policy: everything ready at
        # zero, planned into timelines the caller owns.
        return lambda: policy().schedule(
            graph, cluster, {}, fresh_timelines(cluster, timeline))

    # Same scheduler, same graph: the index changes nothing but speed.
    # The production policy through the same index rides along.
    (scan, scan_schedule), (indexed, indexed_schedule), (heft, by_heft) = \
        measure(plan(RoundRobinScheduler, ScanTimeline),
                plan(RoundRobinScheduler), plan(HEFTScheduler))
    assert len(indexed_schedule.placements) == _TIMELINE_TASKS
    assert len(by_heft.placements) == _TIMELINE_TASKS
    assert _same_schedule(scan_schedule, indexed_schedule)

    speedup = scan["median_s"] / indexed["median_s"]
    record("runtime_engine", "timeline", {
        "tasks": _TIMELINE_TASKS,
        "nodes": _TIMELINE_NODES,
        "interval_scan": scan,
        "event_sweep": indexed,
        "speedup": round(speedup, 1),
        "heft_with_index": heft,
        "placements_identical": True,
    })
    print(f"\n  2000-task placement: interval scan {scan['median_s']:.3f}s,"
          f" event-sweep index {indexed['median_s']:.3f}s ({speedup:.0f}x);"
          f" HEFT+index {heft['median_s']:.3f}s")
    assert speedup >= 5.0


def test_scale_incremental_heft():
    """Cluster-scale HEFT: incremental placement vs the exhaustive scan.

    The incremental placer must finish inside the wall-clock budget and
    produce bitwise-identical placements to the per-node scan, at a
    ≥``_SCALE_MIN_SPEEDUP``x speedup.  ``BENCH_SCALE_FULL=1`` runs the
    headline 100k-task / 1,000-node measurement and additionally records
    an incremental-only scaling curve.
    """
    graph = _workflow(_SCALE_TASKS, _SCALE_SEED)
    cluster = default_cluster(_SCALE_NODES)

    def incremental():
        return HEFTScheduler().schedule(graph, cluster, {},
                                        fresh_timelines(cluster))

    def scanning():
        return ScanHEFT().schedule(graph, cluster, {},
                                   fresh_timelines(cluster))

    if _SCALE_FULL:
        # The 20-minute scan is timed once, on its own.
        [(inc, inc_schedule)] = measure(incremental)
        [(base, base_schedule)] = measure(scanning, repeats=1, warmup=0)
    else:
        (inc, inc_schedule), (base, base_schedule) = \
            measure(incremental, scanning)
    assert len(inc_schedule.placements) == _SCALE_TASKS
    assert inc["median_s"] <= _SCALE_BUDGET, (
        f"incremental HEFT took {inc['median_s']:.1f}s at "
        f"{_SCALE_TASKS} tasks / {_SCALE_NODES} nodes "
        f"(budget {_SCALE_BUDGET:.0f}s)")
    identical = _same_schedule(inc_schedule, base_schedule)
    assert identical, "incremental HEFT diverged from the baseline scan"
    speedup = base["median_s"] / inc["median_s"]

    payload = {
        "tasks": _SCALE_TASKS,
        "nodes": _SCALE_NODES,
        "seed": _SCALE_SEED,
        "incremental": inc,
        "baseline_scan": base,
        "speedup": round(speedup, 1),
        "placements_identical": identical,
        "makespan_seconds": round(inc_schedule.makespan, 2),
        "budget_seconds": _SCALE_BUDGET,
    }
    if _SCALE_FULL:
        payload["curve_nodes"] = _SCALE_NODES
        payload["curve"] = []
        for n_tasks in _SCALE_CURVE:
            point = _workflow(n_tasks, _SCALE_SEED)
            [(seconds, schedule)] = measure(
                lambda: HEFTScheduler().schedule(
                    point, cluster, {}, fresh_timelines(cluster)))
            assert len(schedule.placements) == n_tasks
            payload["curve"].append({"tasks": n_tasks,
                                     "incremental": seconds})
    record("runtime_engine", "scale" if _SCALE_FULL else "scale_smoke",
           payload)
    print(f"\n  {_SCALE_TASKS}-task/{_SCALE_NODES}-node HEFT: incremental "
          f"{inc['median_s']:.1f}s, scan {base['median_s']:.1f}s "
          f"({speedup:.1f}x), identical={identical}")
    assert speedup >= _SCALE_MIN_SPEEDUP
