"""``engine_plan``: plan, run and re-plan a workflow on the runtime engine.

One op builds a ``RuntimeEngine(default_cluster(32), policy="heft")``,
submits an 800-task synthetic workflow (20 % FPGA tasks), fails the fourth
node at simulated time 5.0 and runs to completion: dispatch, incremental
HEFT placement search and failure rescheduling.  No compiler, executor or
HTTP work.

The eight workflow seeds are pinned (placement search effort depends on
the workflow, and an op must be the same work on every benchmark seed);
the benchmark seed draws their order.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, Optional

from bench.loadgen import Block, timed_ops
from bench.spans import Recorder
from bench.workloads import Base

from repro.runtime import default_cluster
from repro.runtime.engine import POLICIES, RuntimeEngine, synthetic_workflow

NODES = 32
TASKS = 800
WORKFLOW_SEEDS = tuple(range(8))
FAILED_NODE = "node3"
FAIL_AT = 5.0


class Workload(Base):
    name = "engine_plan"
    #: Two passes over the workflows: whether a ``Future.result()`` finds
    #: its task already done is a race that moves the count by ~0.2 %.
    COUNTED_BLOCKS, COUNTED_BLOCK_OPS = len(WORKFLOW_SEEDS), 2

    def setup(self, seed: int, recorder: Recorder) -> None:
        self.recorder = recorder
        self.rng = random.Random(seed)
        self.order: list = []
        self.makespans: Dict[int, float] = {}
        self._op()

    def _plan(self, workflow_seed: int, policy: str = "heft"):
        span = self.recorder.span
        with span("op"):
            engine = RuntimeEngine(default_cluster(NODES), policy=policy)
            with span("engine.submit"):
                synthetic_workflow(engine, n_tasks=TASKS, seed=workflow_seed,
                                   fpga_fraction=0.2)
            engine.fail_node_at(FAIL_AT, FAILED_NODE)
            with span("engine.run"):
                result = engine.run()
        return workflow_seed, (workflow_seed, engine, result)

    def _op(self):
        if not self.order:
            self.order = list(WORKFLOW_SEEDS)
            self.rng.shuffle(self.order)
        return self._plan(self.order.pop())

    def block(self, ops: Optional[int] = None) -> Block:
        latencies, kinds, results = timed_ops(self._op, ops)
        return Block(latencies, kinds, lambda: sum(
            not self._correct(*result) for result in results))

    def _correct(self, workflow_seed, engine, result) -> bool:
        placements = result.placements
        tasks = engine.graph.tasks
        if len(tasks) != TASKS or set(placements) != set(tasks):
            return False
        for task_id, placement in placements.items():
            if placement.node == FAILED_NODE and placement.finish > FAIL_AT:
                return False
            if any(placement.start < placements[dep].finish
                   for dep in tasks[task_id].deps):
                return False
        # The virtual clock is deterministic: every plan of one workflow
        # must reproduce the first one's makespan.
        expected = self.makespans.setdefault(workflow_seed, result.makespan)
        return result.makespan == expected and result.makespan > FAIL_AT

    def layers(self) -> Dict[str, float]:
        _, own, inclusive = self.recorder.per_op()
        metrics = {
            "engine.submit_ms": 1e3 * inclusive["engine.submit"],
            "engine.run_ms": 1e3 * inclusive["engine.run"],
            # Engine construction and failure injection.
            "engine.setup_ms": 1e3 * own["op"],
            "engine.tasks_per_s": TASKS / inclusive["op"],
        }
        makespans, rescheduled = [], []
        for policy in sorted(POLICIES):
            samples = []
            for workflow_seed in WORKFLOW_SEEDS:
                start = time.perf_counter()
                _, (_, _, result) = self._plan(workflow_seed, policy)
                samples.append(time.perf_counter() - start)
                if policy == "heft":
                    makespans.append(result.makespan)
                    rescheduled.append(result.rescheduled_tasks)
            metrics[f"engine.policy_ms.{policy}"] = \
                1e3 * statistics.median(samples)
        # On the virtual clock, so exact and the same on every seed: they
        # move only when a policy or the workflow generator changes.
        metrics["engine.makespan_s"] = statistics.mean(makespans)
        metrics["engine.rescheduled_tasks"] = statistics.mean(rescheduled)
        return metrics
