"""Generative workload fuzzing for the runtime engine and its policies.

``generate_case(seed)`` builds a random — but always completable —
workload: a heterogeneous cluster (mixed core counts, CPU speeds, FPGA
presence), a seeded random DAG (layered / fan-out / fan-in / chain /
random mixes, including tasks requesting *exactly* a node's core count),
an arrival process that streams part of the graph in while the engine
runs (with deliberate identical-timestamp collisions), and a
failure-injection schedule constrained so the surviving nodes can still
host every task.

Each case is executed through **every registered policy** (heft,
round-robin, min-load) and checked against the machine-checkable
invariant suite of :func:`check_invariants`:

* **completeness** — every submitted task finishes exactly once: one
  result, one final placement, and (absent failures) exactly one real
  function invocation — no lost or double-executed task;
* **no overcommit** — rebuilding every node's timeline from the final
  placements, core usage never exceeds the node's capacity at any
  instant, cross-checked against the *live*
  :meth:`~repro.runtime.timeline.NodeTimeline.peak_usage` of the
  engine's own timelines (which must hold exactly the same intervals and
  the same breakpoint index — commit/release churn from failure
  recovery must not leave drift);
* **dependencies respected** — no task starts before every dependency's
  finish;
* **simulated order** — every function runs with ``engine.now`` at
  its placement's start (for a task re-placed after a failure: its last
  call, at its final placement's start), and the clock never runs
  backwards from one call to the next;
* **determinism** — replaying the seed yields the identical schedule
  (the event queue is a total order; see
  :mod:`repro.runtime.engine.events`);
* **incremental ≡ baseline HEFT** — the pruned placement index
  (:mod:`repro.runtime.placement`) and the exhaustive per-node scan
  (``oracles.ScanHEFT``, next to this file) produce bitwise-identical
  schedules on the case's static graph;
* **the engine is the offline schedule** — for both offline policies,
  an engine run with the static graph submitted at t=0 and no failures
  places exactly what the policy's ``schedule(graph, cluster, {}, fresh
  timelines)`` places, transfer total included: the standalone
  scheduler entry computed nothing the engine does not, which is why
  there is none;
* **makespan monotonicity** — doubling the cluster (same node classes,
  so HEFT's rank order is unchanged) never makes the HEFT makespan
  worse by more than :data:`MONOTONICITY_SLACK` (list schedulers are
  subject to Graham's timing anomalies, so exact monotonicity is not a
  theorem; the slack bounds how bad an anomaly we accept).

Run standalone for a longer campaign::

    python tools/workloadfuzz.py --count 1000 [--start 0]

``--dump PATH`` runs no invariant: it writes every schedule of the
campaign (see :func:`schedule_dump`) to one JSON file, so "this change
places every task where the parent commit did" is ``cmp`` on the files
the two trees write.

Triage: every assertion message starts with the failing seed — re-run
just that seed with ``--count 1 --start <seed>``, then shrink by
lowering the task/node counts in :func:`generate_case` while the
violation persists.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.platforms.device import alveo_u55c
from repro.runtime.cluster import Cluster, Node, default_cluster
from repro.runtime.engine import (
    POLICIES,
    HEFTScheduler,
    RuntimeEngine,
    synthetic_workflow,
)
from repro.runtime.taskgraph import ResourceRequest, TaskGraph
from repro.runtime.timeline import NodeTimeline

# tools/ is on sys.path (script dir or tests)
from oracles import ScanHEFT, fresh_timelines

# Allowed relative makespan regression when the cluster is doubled
# (Graham anomaly headroom for HEFT's non-preemptive list scheduling).
MONOTONICITY_SLACK = 0.05

_CORE_CHOICES = (4, 8, 16, 32)
_GFLOPS_CHOICES = (1.5, 2.5, 4.0)


@dataclass(frozen=True)
class NodeSpec:
    cores: int
    core_gflops: float
    fpga: bool


@dataclass(frozen=True)
class TaskSpec:
    index: int
    deps: Tuple[int, ...]
    cores: int
    cpu_flops: float
    fpga: bool
    fpga_seconds: float
    output_bytes: int


@dataclass
class WorkloadCase:
    """One reproducible fuzz scenario (everything derived from ``seed``)."""

    seed: int
    nodes: List[NodeSpec]
    tasks: List[TaskSpec]
    # Streaming arrivals: (simulated time, task indices submitted then).
    arrivals: List[Tuple[float, Tuple[int, ...]]] = field(
        default_factory=list)
    # Failure injections: (simulated time, node name).
    failures: List[Tuple[float, str]] = field(default_factory=list)


def build_cluster(case: WorkloadCase, copies: int = 1) -> Cluster:
    """A fresh cluster for one run (failures mutate node liveness)."""
    nodes = []
    for copy in range(copies):
        for i, spec in enumerate(case.nodes):
            nodes.append(Node(
                name=f"fz{copy}n{i}" if copy else f"fzn{i}",
                cores=spec.cores,
                core_gflops=spec.core_gflops,
                fpgas=[alveo_u55c()] if spec.fpga else [],
            ))
    return Cluster(nodes)


def _random_deps(rng: random.Random, index: int, shape: str,
                 layer_of: Dict[int, int]) -> Tuple[int, ...]:
    if index == 0:
        return ()
    if shape == "chain":
        return (index - 1,)
    if shape == "fanout":
        return (0,) if rng.random() < 0.9 else ()
    if shape == "fanin":
        # Everything funnels into the last task; interior is sparse.
        return tuple(sorted(rng.sample(range(index),
                                       min(index, rng.randrange(0, 2)))))
    if shape == "layered":
        layer = layer_of[index]
        pool = [i for i in range(index) if layer_of[i] == layer - 1]
        if not pool:
            return ()
        return tuple(sorted(set(
            rng.choice(pool) for _ in range(rng.randrange(1, 3)))))
    return tuple(sorted(rng.sample(range(index),
                                   min(index, rng.randrange(0, 3)))))


def generate_case(seed: int) -> WorkloadCase:
    """Build a random, always-completable workload from ``seed``."""
    rng = random.Random(seed)
    n_nodes = rng.randrange(2, 7)
    nodes = [NodeSpec(cores=rng.choice(_CORE_CHOICES),
                      core_gflops=rng.choice(_GFLOPS_CHOICES),
                      fpga=rng.random() < 0.4)
             for _ in range(n_nodes)]

    # Failure schedule first: task feasibility is judged on survivors.
    failures: List[Tuple[float, str]] = []
    survivor_indices = list(range(n_nodes))
    if rng.random() < 0.4 and n_nodes > 1:
        for _ in range(rng.randrange(1, min(3, n_nodes))):
            if len(survivor_indices) <= 1:
                break
            victim = rng.choice(survivor_indices)
            survivor_indices.remove(victim)
            failures.append((round(rng.uniform(0.1, 4.0), 2),
                             f"fzn{victim}"))
    survivors = [nodes[i] for i in survivor_indices]
    max_cores = max(s.cores for s in survivors)
    fpga_cores = max((s.cores for s in survivors if s.fpga), default=0)

    n_tasks = rng.randrange(4, 29)
    shape = rng.choice(["layered", "fanout", "fanin", "chain", "random",
                        "layered", "random"])
    width = max(2, n_tasks // max(1, rng.randrange(2, 5)))
    layer_of = {i: i // width for i in range(n_tasks)}
    tasks = []
    for i in range(n_tasks):
        fpga = fpga_cores > 0 and rng.random() < 0.2
        # An FPGA task must fit a surviving FPGA node's cores, not just
        # any survivor's.  Occasionally request exactly a node's full
        # core count (the overcommit boundary).
        fit = fpga_cores if fpga else max_cores
        cores = fit if rng.random() < 0.15 else rng.randrange(1, fit + 1)
        tasks.append(TaskSpec(
            index=i,
            deps=_random_deps(rng, i, shape, layer_of),
            cores=cores,
            cpu_flops=rng.uniform(5e8, 4e10),
            fpga=fpga,
            fpga_seconds=rng.uniform(1e-4, 2e-3) if fpga else 0.0,
            output_bytes=rng.choice([0, 512, 8192, 1 << 20]),
        ))

    # Arrival process: the prefix arrives at t=0, the rest streams in as
    # contiguous chunks at non-decreasing times (dependencies only point
    # backwards, so a task never arrives before its dependencies).
    # Repeated timestamps are generated on purpose — identical-time
    # submissions must execute in submission order.
    arrivals: List[Tuple[float, Tuple[int, ...]]] = []
    first = n_tasks if rng.random() < 0.5 else rng.randrange(1, n_tasks)
    cursor, time = first, 0.0
    arrivals.append((0.0, tuple(range(first))))
    while cursor < n_tasks:
        if rng.random() < 0.4:  # deliberate tie with the previous chunk
            time = max(time, 0.25)
        else:
            time = round(time + rng.uniform(0.25, 2.0), 2)
        chunk = rng.randrange(1, n_tasks - cursor + 1)
        arrivals.append((time, tuple(range(cursor, cursor + chunk))))
        cursor += chunk
    return WorkloadCase(seed=seed, nodes=nodes, tasks=tasks,
                        arrivals=arrivals, failures=failures)


def static_graph(case: WorkloadCase) -> TaskGraph:
    """The case's DAG as a frozen offline graph (no arrivals/failures)."""
    graph = TaskGraph()
    futures = {}
    for spec in case.tasks:
        futures[spec.index] = graph.add(
            (lambda *a, i=spec.index: i),
            tuple(futures[d] for d in spec.deps), {},
            ResourceRequest(cores=spec.cores, fpga=spec.fpga,
                            cpu_flops=spec.cpu_flops,
                            fpga_seconds=spec.fpga_seconds),
            spec.output_bytes, f"fz{spec.index}",
        )
    return graph


def run_case(case: WorkloadCase, policy: str):
    """Execute the case through the engine; returns (engine, schedule,
    calls): every real invocation, in the order they ran, as ``(task
    index, simulated time)``."""
    cluster = build_cluster(case)
    engine = RuntimeEngine(cluster, policy=policy)
    futures: Dict[int, object] = {}
    calls: List[Tuple[int, float]] = []

    def make_fn(index: int):
        def fn(*args):  # on the engine's event loop: one thread
            calls.append((index, engine.now))
            return index
        return fn

    def submit_chunk(indices: Tuple[int, ...]) -> None:
        for index in indices:
            spec = case.tasks[index]
            futures[index] = engine.submit(
                make_fn(index), *[futures[d] for d in spec.deps],
                resources=ResourceRequest(
                    cores=spec.cores, fpga=spec.fpga,
                    cpu_flops=spec.cpu_flops,
                    fpga_seconds=spec.fpga_seconds),
                output_bytes=spec.output_bytes,
                name=f"fz{index}",
            )

    first_time, first_chunk = case.arrivals[0]
    assert first_time == 0.0
    submit_chunk(first_chunk)
    for time, chunk in case.arrivals[1:]:
        engine.call_at(time, lambda c=chunk: submit_chunk(c))
    for time, name in case.failures:
        engine.fail_node_at(time, name)
    schedule = engine.run()
    return engine, schedule, calls


# ---------------------------------------------------------------------------
# Invariant checkers (each raises AssertionError tagged with the seed)
# ---------------------------------------------------------------------------

def check_completeness(case, policy, engine, schedule, calls) -> None:
    tag = f"seed {case.seed} [{policy}]"
    n = len(case.tasks)
    counts = Counter(index for index, _ in calls)
    assert len(engine.graph.results) == n, \
        f"{tag}: {n - len(engine.graph.results)} task(s) lost"
    assert set(schedule.placements) == set(range(n)), \
        f"{tag}: placement set != task set"
    for index in range(n):
        assert engine.graph.results[index] == index, \
            f"{tag}: task {index} returned a foreign result"
        count = counts[index]
        assert count >= 1, f"{tag}: task {index} never executed"
        if not case.failures:
            assert count == 1, \
                f"{tag}: task {index} executed {count}x with no failures"


def check_dependencies(case, policy, engine, schedule, calls) -> None:
    tag = f"seed {case.seed} [{policy}]"
    for spec in case.tasks:
        placement = schedule.placements[spec.index]
        for dep in spec.deps:
            dep_finish = schedule.placements[dep].finish
            assert placement.start >= dep_finish - 1e-9, (
                f"{tag}: task {spec.index} starts at {placement.start} "
                f"before dependency {dep} finishes at {dep_finish}")


def check_simulated_order(case, policy, engine, schedule, calls) -> None:
    tag = f"seed {case.seed} [{policy}]"
    times = [time for _, time in calls]
    assert times == sorted(times), \
        f"{tag}: the clock ran backwards between two task functions"
    for index, time in dict(calls).items():  # each task's last call
        start = schedule.placements[index].start
        assert time == start, (
            f"{tag}: task {index} ran at {time} but its placement starts "
            f"at {start}")


def check_no_overcommit(case, policy, engine, schedule, calls) -> None:
    tag = f"seed {case.seed} [{policy}]"
    by_node: Dict[str, list] = {}
    for placement in schedule.placements.values():
        by_node.setdefault(placement.node, []).append(placement)
    for name, live in engine.timelines.items():
        node = engine.cluster.node(name)
        placements = by_node.get(name, [])
        rebuilt = NodeTimeline(node)
        for p in placements:
            rebuilt.commit(p.start, p.duration, p.cores)
        assert sorted(live.intervals) == sorted(rebuilt.intervals), (
            f"{tag}: node {name} live timeline drifted from the final "
            f"placements (stale commit/release state)")
        # Equal intervals with an unequal breakpoint index: a commit or
        # release left a redundant or wrong breakpoint behind.
        assert (live._times, live._levels) \
            == (rebuilt._times, rebuilt._levels), (
            f"{tag}: node {name} live timeline index {live._times} "
            f"{live._levels} differs from its rebuild's")
        for p in placements:
            for timeline, origin in ((rebuilt, "rebuilt"),
                                     (live, "live")):
                peak = timeline.peak_usage(p.start, p.finish)
                assert peak <= node.cores, (
                    f"{tag}: node {name} {origin} peak usage {peak} > "
                    f"{node.cores} cores during task {p.task_id}")


def _assert_same_schedule(tag: str, what: str, got, want,
                          transfers_within: float = 1e-9) -> None:
    """``got`` places every task where and when ``want`` does."""
    assert set(got.placements) == set(want.placements), \
        f"{tag}: {what} placed a different task set"
    for index, placement in want.placements.items():
        other = got.placements[index]
        assert (placement.node, placement.start, placement.finish) == \
            (other.node, other.start, other.finish), (
                f"{tag}: {what} diverged on task {index}: "
                f"{other} vs {placement}")
    assert abs(got.transfers_seconds
               - want.transfers_seconds) <= transfers_within, \
        f"{tag}: {what} transfer totals diverged"


def check_determinism(case, policy, engine, schedule, calls) -> None:
    _, replay, _ = run_case(case, policy)
    _assert_same_schedule(f"seed {case.seed} [{policy}]", "replay",
                          replay, schedule)


def schedule_static(case: WorkloadCase, policy, copies: int = 1):
    """``policy`` planning the case's whole static graph into the empty
    timelines of a fresh cluster, called as the engine calls it."""
    cluster = build_cluster(case, copies)
    return policy.schedule(static_graph(case), cluster, {},
                           fresh_timelines(cluster))


def check_incremental_heft(case: WorkloadCase) -> None:
    _assert_same_schedule(
        f"seed {case.seed}", "incremental HEFT (against the scan)",
        schedule_static(case, HEFTScheduler()),
        schedule_static(case, ScanHEFT()))


def check_engine_is_the_offline_schedule(case: WorkloadCase) -> None:
    everything_at_zero = replace(
        case, arrivals=[(0.0, tuple(range(len(case.tasks))))], failures=[])
    for name, policy in sorted(POLICIES.items()):
        if policy.online:
            continue
        _, ran, _ = run_case(everything_at_zero, name)
        _assert_same_schedule(
            f"seed {case.seed} [{name}]",
            "the engine run (against the policy's own schedule())",
            ran, schedule_static(case, policy()), transfers_within=0.0)


def check_makespan_monotonic(case: WorkloadCase) -> None:
    tag = f"seed {case.seed}"
    small = schedule_static(case, HEFTScheduler())
    big = schedule_static(case, HEFTScheduler(), copies=2)
    limit = small.makespan * (1.0 + MONOTONICITY_SLACK) + 1e-9
    assert big.makespan <= limit, (
        f"{tag}: doubling the cluster worsened the HEFT makespan "
        f"{small.makespan:.6f} -> {big.makespan:.6f} "
        f"(> {MONOTONICITY_SLACK:.0%} slack)")


ENGINE_INVARIANTS = (
    check_completeness,
    check_dependencies,
    check_simulated_order,
    check_no_overcommit,
    check_determinism,
)


def check_workload(seed: int) -> None:
    """Run one seed through every policy and every invariant."""
    case = generate_case(seed)
    for policy in sorted(POLICIES):
        engine, schedule, calls = run_case(case, policy)
        for invariant in ENGINE_INVARIANTS:
            invariant(case, policy, engine, schedule, calls)
    check_incremental_heft(case)
    check_engine_is_the_offline_schedule(case)
    check_makespan_monotonic(case)


def _schedule_record(engine, schedule) -> dict:
    """Everything a run decided, floats by ``repr``."""
    return {
        "placements": [
            (tid, p.node, repr(p.start), repr(p.finish), p.cores)
            for tid, p in sorted(schedule.placements.items())],
        "transfers_seconds": repr(schedule.transfers_seconds),
        "rescheduled_tasks": schedule.rescheduled_tasks,
        "results": sorted(engine.graph.results.items()),
        "intervals": {
            name: [(repr(start), repr(end), cores)
                   for start, end, cores in timeline.intervals]
            for name, timeline in sorted(engine.timelines.items())},
    }


def engine_plan_op(workflow: int, policy: str = "heft"):
    """One op of the benchmark's ``engine_plan`` workload (workflows 0
    to 7): 32 nodes, 800 tasks, a fifth on FPGAs, ``node3`` lost at 5.0.
    Returns ``(engine, schedule)``."""
    engine = RuntimeEngine(default_cluster(32), policy=policy)
    synthetic_workflow(engine, n_tasks=800, seed=workflow,
                       fpga_fraction=0.2)
    engine.fail_node_at(5.0, "node3")
    return engine, engine.run()


def schedule_dump(start: int, count: int) -> dict:
    """The schedules of the eight :func:`engine_plan_op` workflows and
    of ``count`` fuzz cases, each under every registered policy.  Fuzz
    runs also record how often each task's function ran."""
    dump: Dict[str, dict] = {}
    for policy in sorted(POLICIES):
        for workflow in range(8):
            dump[f"engine_plan/{workflow}/{policy}"] = \
                _schedule_record(*engine_plan_op(workflow, policy))
        for seed in range(start, start + count):
            engine, schedule, calls = run_case(generate_case(seed), policy)
            record = _schedule_record(engine, schedule)
            record["calls"] = sorted(
                Counter(index for index, _ in calls).items())
            dump[f"fuzz/{seed}/{policy}"] = record
    return dump


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fuzz the runtime engine: random DAGs + arrivals + "
                    "failures through every policy, checked against the "
                    "scheduler invariant suite")
    parser.add_argument("--count", type=int, default=200,
                        help="number of seeds to run")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed")
    parser.add_argument("--quiet", action="store_true",
                        help="only log failures (suppress the summary "
                             "line; CI smoke runs)")
    parser.add_argument("--dump", metavar="PATH",
                        help="check nothing; write every schedule of the "
                             "campaign to PATH for cmp against another "
                             "tree's")
    args = parser.parse_args(argv)
    if args.dump:
        with open(args.dump, "w") as out:
            json.dump(schedule_dump(args.start, args.count), out,
                      sort_keys=True)
        return 0
    from repro.telemetry.log import configure_logging, get_logger

    configure_logging("error" if args.quiet else "info")
    log = get_logger("workloadfuzz")
    failures = 0
    for seed in range(args.start, args.start + args.count):
        try:
            check_workload(seed)
        except Exception as error:  # pragma: no cover - campaign reporting
            failures += 1
            log.error("seed %d: FAIL: %s", seed, error)
    log.info("workloadfuzz: %d/%d seeds ok (seeds %d..%d)",
             args.count - failures, args.count,
             args.start, args.start + args.count - 1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
