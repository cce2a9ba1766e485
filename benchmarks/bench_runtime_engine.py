"""BENCH-RUNTIME-ENGINE: the placement hot path and the policy suite.

Two records, written to ``BENCH_runtime_engine.json`` at the repo root
(run via ``make bench-runtime``):

* ``timeline`` — the seed ``_usage_at``/``earliest_start`` scan
  (O(intervals²) per query, copied below as :class:`_SeedNodeTimeline`)
  against the event-sweep :class:`~repro.runtime.timeline.NodeTimeline`
  index, scheduling the *same* 2,000-task graph through the same
  scheduler; placements must be identical and the index must be ≥5×
  faster;
* ``policies`` — makespan and wall time of every registered policy
  driving the :class:`~repro.runtime.engine.RuntimeEngine` on a shared
  workload;
* ``scale`` / ``scale_smoke`` — incremental HEFT placement
  (:mod:`repro.runtime.placement`) against the exhaustive per-node scan
  (``tools/oracles.py::ScanHEFT``) on a cluster-scale graph, with a
  wall-clock budget so scaling regressions fail loudly.  The default
  run uses a reduced scale that fits in ``make test``; set ``BENCH_SCALE_FULL=1`` for the full
  100k-task / 1,000-node measurement (several minutes of baseline), or
  override ``BENCH_SCALE_TASKS`` / ``BENCH_SCALE_NODES`` /
  ``BENCH_SCALE_BUDGET`` individually.
"""

import json
import os
import sys
import time
from pathlib import Path
from typing import List, Tuple

from repro.runtime import (
    POLICIES,
    HEFTScheduler,
    RoundRobinScheduler,
    RuntimeEngine,
    TaskGraph,
    default_cluster,
)
from repro.runtime.engine import synthetic_workflow

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from oracles import ScanHEFT  # noqa: E402

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_runtime_engine.json"

_TIMELINE_TASKS = 2000
_TIMELINE_NODES = 16
_POLICY_TASKS = 300
_POLICY_NODES = 4

_SCALE_FULL = os.environ.get("BENCH_SCALE_FULL") == "1"
_SCALE_TASKS = int(os.environ.get(
    "BENCH_SCALE_TASKS", "100000" if _SCALE_FULL else "4000"))
_SCALE_NODES = int(os.environ.get(
    "BENCH_SCALE_NODES", "1000" if _SCALE_FULL else "200"))
_SCALE_BUDGET = float(os.environ.get(
    "BENCH_SCALE_BUDGET", "240" if _SCALE_FULL else "30"))
_SCALE_MIN_SPEEDUP = 10.0 if _SCALE_FULL else 3.0
_SCALE_SEED = 7
# Incremental-only scaling curve, recorded alongside the full run.
_SCALE_CURVE = (20000, 60000, 100000)


class _SeedNodeTimeline:
    """The seed repo's O(intervals²) placement scan, kept as baseline."""

    def __init__(self, node):
        self.node = node
        self.intervals: List[Tuple[float, float, int]] = []

    def _usage_at(self, t0: float, t1: float) -> int:
        peak = 0
        points = {t0}
        for s, e, c in self.intervals:
            if s < t1 and e > t0:
                points.add(max(s, t0))
        for point in points:
            used = sum(c for s, e, c in self.intervals
                       if s <= point < e)
            peak = max(peak, used)
        return peak

    def earliest_start(self, ready: float, duration: float,
                       cores: int) -> float:
        candidates = sorted({ready} | {
            e for _, e, _ in self.intervals if e > ready
        })
        for candidate in candidates:
            if self._usage_at(candidate, candidate + duration) + cores \
                    <= self.node.cores:
                return candidate
        return candidates[-1] if candidates else ready

    def commit(self, start: float, duration: float, cores: int) -> None:
        self.intervals.append((start, start + duration, cores))


class _GraphBuilder:
    """Adapter so :func:`synthetic_workflow` can fill a bare graph."""

    def __init__(self):
        self.graph = TaskGraph()

    def submit(self, fn, *args, resources=None, output_bytes=8192,
               tuning=None, name=None, **kwargs):
        return self.graph.add(fn, args, kwargs, resources, output_bytes,
                              tuning, name)


def _record(section: str, payload: dict) -> None:
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[section] = payload
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True)
                            + "\n")


def _timed_schedule(scheduler, graph, cluster, timelines=None):
    t0 = time.perf_counter()
    schedule = scheduler.schedule(graph, cluster, timelines=timelines)
    return time.perf_counter() - t0, schedule


def test_timeline_index_speedup_on_2000_task_graph():
    builder = _GraphBuilder()
    synthetic_workflow(builder, n_tasks=_TIMELINE_TASKS, seed=0)
    graph = builder.graph
    assert len(graph.tasks) == _TIMELINE_TASKS
    cluster = default_cluster(_TIMELINE_NODES)

    seed_seconds, seed_schedule = _timed_schedule(
        RoundRobinScheduler(), graph, cluster,
        timelines={node.name: _SeedNodeTimeline(node)
                   for node in cluster.alive_nodes()},
    )
    indexed_seconds, indexed_schedule = _timed_schedule(
        RoundRobinScheduler(), graph, cluster,
    )
    # Same scheduler, same graph: the index changes nothing but speed.
    assert len(indexed_schedule.placements) == _TIMELINE_TASKS
    for tid, placement in seed_schedule.placements.items():
        other = indexed_schedule.placements[tid]
        assert (placement.node, placement.start, placement.finish) \
            == (other.node, other.start, other.finish)

    # The production policy through the same index, for reference.
    heft_seconds, heft_schedule = _timed_schedule(
        HEFTScheduler(), graph, cluster,
    )
    assert len(heft_schedule.placements) == _TIMELINE_TASKS

    speedup = seed_seconds / indexed_seconds
    _record("timeline", {
        "tasks": _TIMELINE_TASKS,
        "nodes": _TIMELINE_NODES,
        "seed_scan_seconds": round(seed_seconds, 4),
        "event_sweep_seconds": round(indexed_seconds, 4),
        "speedup": round(speedup, 1),
        "heft_with_index_seconds": round(heft_seconds, 4),
        "placements_identical": True,
    })
    print(f"\n  2000-task placement: seed scan {seed_seconds:.3f}s, "
          f"event-sweep index {indexed_seconds:.3f}s "
          f"({speedup:.0f}x); HEFT+index {heft_seconds:.3f}s")
    assert speedup >= 5.0


def _same_schedule(left, right) -> bool:
    if set(left.placements) != set(right.placements):
        return False
    for tid, placement in left.placements.items():
        other = right.placements[tid]
        if (placement.node, placement.start, placement.finish) \
                != (other.node, other.start, other.finish):
            return False
    return abs(left.transfers_seconds - right.transfers_seconds) < 1e-9


def test_scale_incremental_heft():
    """Cluster-scale HEFT: incremental placement vs the exhaustive scan.

    The incremental placer must finish inside the wall-clock budget and
    produce bitwise-identical placements to the per-node scan, at a
    ≥``_SCALE_MIN_SPEEDUP``x speedup.  ``BENCH_SCALE_FULL=1`` runs the
    headline 100k-task / 1,000-node measurement and additionally records
    an incremental-only scaling curve.
    """
    builder = _GraphBuilder()
    synthetic_workflow(builder, n_tasks=_SCALE_TASKS, seed=_SCALE_SEED)
    graph = builder.graph
    cluster = default_cluster(_SCALE_NODES)

    inc_seconds, inc_schedule = _timed_schedule(
        HEFTScheduler(), graph, cluster)
    assert len(inc_schedule.placements) == _SCALE_TASKS
    assert inc_seconds <= _SCALE_BUDGET, (
        f"incremental HEFT took {inc_seconds:.1f}s at "
        f"{_SCALE_TASKS} tasks / {_SCALE_NODES} nodes "
        f"(budget {_SCALE_BUDGET:.0f}s)")

    base_seconds, base_schedule = _timed_schedule(
        ScanHEFT(), graph, cluster)
    identical = _same_schedule(inc_schedule, base_schedule)
    assert identical, "incremental HEFT diverged from the baseline scan"
    speedup = base_seconds / inc_seconds

    payload = {
        "tasks": _SCALE_TASKS,
        "nodes": _SCALE_NODES,
        "seed": _SCALE_SEED,
        "incremental_seconds": round(inc_seconds, 2),
        "baseline_seconds": round(base_seconds, 2),
        "speedup": round(speedup, 1),
        "placements_identical": identical,
        "makespan_seconds": round(inc_schedule.makespan, 2),
        "budget_seconds": _SCALE_BUDGET,
    }
    if _SCALE_FULL:
        curve = []
        for n_tasks in _SCALE_CURVE:
            if n_tasks == _SCALE_TASKS:
                curve.append({"tasks": n_tasks,
                              "incremental_seconds":
                              round(inc_seconds, 2)})
                continue
            point = _GraphBuilder()
            synthetic_workflow(point, n_tasks=n_tasks, seed=_SCALE_SEED)
            seconds, schedule = _timed_schedule(
                HEFTScheduler(), point.graph, cluster)
            assert len(schedule.placements) == n_tasks
            curve.append({"tasks": n_tasks,
                          "incremental_seconds": round(seconds, 2)})
        payload["curve_nodes"] = _SCALE_NODES
        payload["curve"] = curve
    _record("scale" if _SCALE_FULL else "scale_smoke", payload)
    print(f"\n  {_SCALE_TASKS}-task/{_SCALE_NODES}-node HEFT: "
          f"incremental {inc_seconds:.1f}s, scan {base_seconds:.1f}s "
          f"({speedup:.1f}x), identical={identical}")
    assert speedup >= _SCALE_MIN_SPEEDUP


def test_policy_suite_through_engine():
    results = {}
    for policy in sorted(POLICIES):
        engine = RuntimeEngine(default_cluster(_POLICY_NODES),
                               policy=policy)
        synthetic_workflow(engine, n_tasks=_POLICY_TASKS, seed=1)
        t0 = time.perf_counter()
        schedule = engine.run()
        wall = time.perf_counter() - t0
        assert len(engine.graph.results) == _POLICY_TASKS
        results[policy] = {
            "makespan_seconds": round(schedule.makespan, 4),
            "wall_seconds": round(wall, 4),
            "transfers_seconds": round(schedule.transfers_seconds, 6),
        }
    _record("policies", {
        "tasks": _POLICY_TASKS,
        "nodes": _POLICY_NODES,
        "results": results,
    })
    print("\n  " + ", ".join(
        f"{p}: makespan={r['makespan_seconds']:.2f}s"
        for p, r in results.items()))
    heft = results["heft"]["makespan_seconds"]
    rr = results["round-robin"]["makespan_seconds"]
    assert heft <= rr * 1.02
