"""Tests for the runtime: task costs, scheduling, failures."""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import RuntimeSchedulingError
from repro.platforms import alveo_u55c
from repro.runtime import (
    POLICIES,
    Cluster,
    Node,
    Placement,
    ResourceRequest,
    RuntimeEngine,
    ScheduleResult,
    default_cluster,
)
from repro.runtime.cluster import SRIOV_OVERHEAD


def _diamond_graph(engine):
    a = engine.submit(lambda: 1, name="a",
                      resources=ResourceRequest(cpu_flops=1e9))
    b = engine.submit(lambda x: x + 1, a, name="b",
                      resources=ResourceRequest(cpu_flops=4e9))
    c = engine.submit(lambda x: x * 2, a, name="c",
                      resources=ResourceRequest(cpu_flops=4e9))
    d = engine.submit(lambda x, y: x + y, b, c, name="d",
                      resources=ResourceRequest(cpu_flops=1e9))
    return d


class TestTaskCosts:
    """A cost is checked where the task is created, naming the field;
    a bad one used to surface deep in a run ("simulated clock cannot
    run backwards", "negative message size")."""

    @pytest.mark.parametrize("field", ["cpu_flops", "fpga_seconds"])
    @pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf")])
    def test_resource_request_refuses_a_bad_cost(self, field, value):
        with pytest.raises(RuntimeSchedulingError, match=field):
            ResourceRequest(**{field: value})

    @pytest.mark.parametrize("value", [-5, float("nan"), float("inf")])
    def test_submit_refuses_bad_output_bytes(self, value):
        engine = RuntimeEngine(default_cluster(1))
        with pytest.raises(RuntimeSchedulingError, match="output_bytes"):
            engine.submit(lambda: 0, output_bytes=value)
        assert engine.graph.tasks == {}

    def test_zero_costs_are_legal(self):
        engine = RuntimeEngine(default_cluster(1))
        future = engine.submit(
            lambda: 7, output_bytes=0,
            resources=ResourceRequest(cpu_flops=0.0, fpga_seconds=0.0))
        engine.run()
        assert future.result() == 7

    def test_sriov_overhead_is_near_native(self):
        """Fig. 6: an FPGA behind an SR-IOV virtual function runs within
        5 % of bare metal, and never faster."""
        assert 1.0 < SRIOV_OVERHEAD <= 1.05

    def test_sriov_overhead_has_one_definition(self):
        from repro.runtime.engine import policies

        assert policies.SRIOV_OVERHEAD is SRIOV_OVERHEAD
        src = Path(repro.__file__).parent
        defined = sorted(
            str(path.relative_to(src)) for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SRIOV_OVERHEAD"
                for t in node.targets))
        assert defined == [os.path.join("runtime", "cluster.py")]

    def test_fpga_task_pays_the_sriov_overhead(self):
        cluster = Cluster([Node("acc0", fpgas=[alveo_u55c()])])
        engine = RuntimeEngine(cluster)
        f = engine.submit(lambda: 0, resources=ResourceRequest(
            fpga=True, fpga_seconds=0.25))
        placement = engine.run().placements[f.task_id]
        assert placement.duration \
            == pytest.approx(0.25 * SRIOV_OVERHEAD)

    def test_cpu_task_pays_no_sriov_overhead(self):
        node = Node("acc0", fpgas=[alveo_u55c()])
        engine = RuntimeEngine(Cluster([node]))
        f = engine.submit(lambda: 0, resources=ResourceRequest(
            cpu_flops=4e9, cores=2))
        placement = engine.run().placements[f.task_id]
        assert placement.duration \
            == pytest.approx(node.cpu_seconds(4e9, 2))


class TestCluster:
    def test_fpga_nodes_counted_over_alive_nodes(self):
        cluster = Cluster([Node("cpu0", fpgas=[])] + [
            Node(f"acc{i}", fpgas=[alveo_u55c()]) for i in range(3)])
        assert sum(n.has_fpga for n in cluster.alive_nodes()) == 3
        cluster.fail_node("acc1")
        assert sum(n.has_fpga for n in cluster.alive_nodes()) == 2
        cluster.fail_node("cpu0")
        assert [n.name for n in cluster.alive_nodes()] == ["acc0", "acc2"]


class TestTaskGraph:
    def test_functional_results(self):
        engine = RuntimeEngine(default_cluster(2))
        d = _diamond_graph(engine)
        engine.run()
        assert d.result() == (1 + 1) + (1 * 2)

    def test_result_before_compute_rejected(self):
        engine = RuntimeEngine(default_cluster(1))
        future = engine.submit(lambda: 1)
        with pytest.raises(RuntimeSchedulingError, match=r"engine\.run\(\)"):
            future.result()

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_future_of_another_engine_is_refused(self, policy):
        """A ``Future`` names its task by id only, so one from another
        engine used to bind to whichever task here has the same id: 13
        (3 + 10) instead of 15, or a false cycle under HEFT."""
        a = RuntimeEngine(default_cluster(1), policy=policy)
        a.submit(lambda: 0)
        five = a.submit(lambda: 5)
        c = RuntimeEngine(default_cluster(1), policy=policy)
        c.submit(lambda: 0)
        c.submit(lambda: 3)
        with pytest.raises(RuntimeSchedulingError,
                           match="argument 0 is a Future of another"):
            c.submit(lambda x: x + 10, five)
        with pytest.raises(RuntimeSchedulingError, match="argument 'x'"):
            c.submit(lambda x=0: x + 10, 1, x=five)
        assert len(c.graph.tasks) == 2
        a.run()
        assert c.submit(lambda x: x + 10, five.result()) is not None
        c.run()
        assert [c.graph.results[i] for i in sorted(c.graph.results)] \
            == [0, 3, 15]

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_keyword_future_is_a_dependency(self, policy):
        """A ``Future`` passed by keyword is waited for and resolved like
        a positional one; it used to reach the task body as the
        ``Future`` itself, from a task that could start first."""
        engine = RuntimeEngine(default_cluster(2), policy=policy)
        first = engine.submit(lambda: 5,
                              resources=ResourceRequest(cpu_flops=4e9))
        second = engine.submit(lambda scale, x=0: scale * x, 3, x=first)
        assert engine.graph.tasks[second.task_id].deps == [first.task_id]
        schedule = engine.run()
        assert second.result() == 15
        assert schedule.placements[second.task_id].start \
            >= schedule.placements[first.task_id].finish

    def test_cycle_detection(self):
        engine = RuntimeEngine(default_cluster(1))
        a = engine.submit(lambda x: x, 1)
        engine.graph.tasks[a.task_id].deps.append(a.task_id)
        with pytest.raises(RuntimeSchedulingError):
            engine.run()


class TestScheduling:
    def test_dependencies_respected_in_time(self):
        engine = RuntimeEngine(default_cluster(3))
        _diamond_graph(engine)
        schedule = engine.run()
        placements = schedule.placements
        tasks = engine.graph.tasks
        for task in tasks.values():
            for dep in task.deps:
                assert placements[dep].finish \
                    <= placements[task.task_id].start + 1e-12

    def test_fpga_task_placed_on_fpga_node(self):
        cluster = Cluster([Node("cpu0", fpgas=[]),
                           Node("acc0", fpgas=[alveo_u55c()])])
        engine = RuntimeEngine(cluster)
        f = engine.submit(lambda: 0,
                          resources=ResourceRequest(fpga=True,
                                                    fpga_seconds=1e-3))
        schedule = engine.run()
        assert schedule.placements[f.task_id].node == "acc0"

    def test_fpga_without_node_rejected(self):
        cluster = Cluster([Node("cpu0", fpgas=[])])
        engine = RuntimeEngine(cluster)
        engine.submit(lambda: 0, resources=ResourceRequest(fpga=True))
        with pytest.raises(RuntimeSchedulingError):
            engine.run()

    def test_heft_not_worse_than_round_robin(self):
        def makespan(policy):
            engine = RuntimeEngine(default_cluster(4), policy=policy)
            rng = np.random.default_rng(0)
            layer = [engine.submit(
                lambda i=i: i, name=f"src{i}",
                resources=ResourceRequest(
                    cpu_flops=float(rng.uniform(1e9, 4e10)),
                    cores=int(rng.integers(1, 8))))
                for i in range(16)]
            for i in range(8):
                engine.submit(lambda x, y: 0, layer[2 * i],
                              layer[2 * i + 1],
                              resources=ResourceRequest(cpu_flops=2e10))
            return engine.run().makespan

        assert makespan("heft") <= makespan("round-robin") * 1.05

    def test_core_capacity_never_exceeded(self):
        cluster = default_cluster(2)
        engine = RuntimeEngine(cluster)
        for i in range(20):
            engine.submit(lambda: 0, name=f"t{i}",
                          resources=ResourceRequest(cores=16,
                                                    cpu_flops=1e10))
        schedule = engine.run()
        for node_name, node in cluster.nodes.items():
            events = [p for p in schedule.placements.values()
                      if p.node == node_name]
            times = sorted({p.start for p in events})
            for t in times:
                used = sum(p.cores for p in events
                           if p.start <= t < p.finish)
                assert used <= node.cores


class TestFailureRecovery:
    def test_lost_tasks_rescheduled_off_failed_node(self):
        """The engine's in-loop repair (§VI-A duty 4): a node failure
        injected mid-run re-places the lost work on the survivors."""
        unfailed = RuntimeEngine(default_cluster(3))
        _diamond_graph(unfailed)
        schedule = unfailed.run()
        victim = schedule.placements[0].node
        fail_time = schedule.makespan * 0.25

        cluster = default_cluster(3)
        engine = RuntimeEngine(cluster)
        final = _diamond_graph(engine)
        engine.fail_node_at(fail_time, victim)
        repaired = engine.run()
        assert repaired.rescheduled_tasks > 0
        for placement in repaired.placements.values():
            if placement.node == victim:
                assert placement.finish <= fail_time
        assert repaired.makespan >= schedule.makespan * 0.5
        assert final.result() == 4  # (1 + 1) + (1 * 2), reruns included
        # The failure is a real event, not a what-if: the node stays
        # down until the operator restores it.
        assert not cluster.node(victim).alive
        cluster.restore_node(victim)
        assert cluster.node(victim).alive


class TestMonitor:
    def test_dead_node_detection(self):
        """A node's liveness is its ``alive`` flag: two nodes taken down by
        side effect in one callback are both detected, the survivor
        reruns their lost work, and nothing on either finishes later."""
        unfailed = RuntimeEngine(default_cluster(3))
        _diamond_graph(unfailed)
        baseline = unfailed.run()
        first = baseline.placements[0].node
        survivor = next(name for name in ("node0", "node1", "node2")
                        if name != first)
        victims = sorted({"node0", "node1", "node2"} - {survivor},
                         reverse=True)
        fail_time = baseline.makespan * 0.25

        cluster = default_cluster(3)
        engine = RuntimeEngine(cluster)
        final = _diamond_graph(engine)
        engine.call_at(fail_time, lambda: [
            cluster.fail_node(name) for name in victims])
        schedule = engine.run()
        assert schedule.rescheduled_tasks > 0
        for placement in schedule.placements.values():
            if placement.node != survivor:
                assert placement.finish <= fail_time
        assert final.result() == 4
        assert [name for name, node in cluster.nodes.items()
                if not node.alive] == sorted(victims)

    def test_utilization_normalized_by_cores(self):
        cluster = default_cluster(2)
        engine = RuntimeEngine(cluster)
        engine.submit(lambda: 0,
                      resources=ResourceRequest(cores=32, cpu_flops=1e10))
        schedule = engine.run()
        report = schedule.utilization(cluster)
        assert max(report.utilization.values()) <= 1.0 + 1e-9

    def test_utilization_of_a_fixed_schedule(self):
        """The utilization report read off a schedule: core-seconds per
        node (idle nodes included) over makespan x cores, and max/mean
        busy as the imbalance."""
        cluster = Cluster([Node("a", cores=4, fpgas=[]),
                           Node("b", cores=8, fpgas=[]),
                           Node("idle", cores=2, fpgas=[])])
        schedule = ScheduleResult(placements={
            0: Placement(0, "b", 0.0, 2.0, cores=4),
            1: Placement(1, "a", 1.0, 4.0, cores=2),
            2: Placement(2, "b", 2.0, 3.0, cores=8),
        })
        report = schedule.utilization(cluster)
        assert report.makespan == 4.0
        assert report.busy == {"b": 16.0, "a": 6.0, "idle": 0.0}
        assert list(report.busy) == ["b", "a", "idle"]
        assert report.utilization == {"b": 0.5, "a": 0.375, "idle": 0.0}
        assert report.imbalance == 16.0 / (22.0 / 3)
        empty = ScheduleResult().utilization(cluster)
        assert empty.busy == {"a": 0.0, "b": 0.0, "idle": 0.0}
        assert empty.imbalance == 1.0
