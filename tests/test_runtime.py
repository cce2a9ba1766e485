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
    Cluster,
    EverestClient,
    Node,
    Placement,
    ResourceRequest,
    ScheduleResult,
    default_cluster,
)
from repro.runtime.cluster import SRIOV_OVERHEAD


def _diamond_graph(client):
    a = client.submit(lambda: 1, name="a",
                      resources=ResourceRequest(cpu_flops=1e9))
    b = client.submit(lambda x: x + 1, a, name="b",
                      resources=ResourceRequest(cpu_flops=4e9))
    c = client.submit(lambda x: x * 2, a, name="c",
                      resources=ResourceRequest(cpu_flops=4e9))
    d = client.submit(lambda x, y: x + y, b, c, name="d",
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
        client = EverestClient(default_cluster(1))
        with pytest.raises(RuntimeSchedulingError, match="output_bytes"):
            client.submit(lambda: 0, output_bytes=value)
        assert client.graph.tasks == {}

    def test_zero_costs_are_legal(self):
        client = EverestClient(default_cluster(1))
        future = client.submit(
            lambda: 7, output_bytes=0,
            resources=ResourceRequest(cpu_flops=0.0, fpga_seconds=0.0))
        assert client.gather([future]) == [7]

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
        client = EverestClient(cluster)
        f = client.submit(lambda: 0, resources=ResourceRequest(
            fpga=True, fpga_seconds=0.25))
        placement = client.compute().placements[f.task_id]
        assert placement.duration \
            == pytest.approx(0.25 * SRIOV_OVERHEAD)

    def test_cpu_task_pays_no_sriov_overhead(self):
        node = Node("acc0", fpgas=[alveo_u55c()])
        client = EverestClient(Cluster([node]))
        f = client.submit(lambda: 0, resources=ResourceRequest(
            cpu_flops=4e9, cores=2))
        placement = client.compute().placements[f.task_id]
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
        client = EverestClient(default_cluster(2))
        d = _diamond_graph(client)
        client.compute()
        assert d.result() == (1 + 1) + (1 * 2)

    def test_result_before_compute_rejected(self):
        client = EverestClient(default_cluster(1))
        future = client.submit(lambda: 1)
        with pytest.raises(RuntimeSchedulingError):
            future.result()

    def test_cycle_detection(self):
        client = EverestClient(default_cluster(1))
        a = client.submit(lambda x: x, 1)
        client.graph.tasks[a.task_id].deps.append(a.task_id)
        with pytest.raises(RuntimeSchedulingError):
            client.compute()


class TestScheduling:
    def test_dependencies_respected_in_time(self):
        client = EverestClient(default_cluster(3))
        _diamond_graph(client)
        schedule = client.compute()
        placements = schedule.placements
        tasks = client.graph.tasks
        for task in tasks.values():
            for dep in task.deps:
                assert placements[dep].finish \
                    <= placements[task.task_id].start + 1e-12

    def test_fpga_task_placed_on_fpga_node(self):
        cluster = Cluster([Node("cpu0", fpgas=[]),
                           Node("acc0", fpgas=[alveo_u55c()])])
        client = EverestClient(cluster)
        f = client.submit(lambda: 0,
                          resources=ResourceRequest(fpga=True,
                                                    fpga_seconds=1e-3))
        schedule = client.compute()
        assert schedule.placements[f.task_id].node == "acc0"

    def test_fpga_without_node_rejected(self):
        cluster = Cluster([Node("cpu0", fpgas=[])])
        client = EverestClient(cluster)
        client.submit(lambda: 0, resources=ResourceRequest(fpga=True))
        with pytest.raises(RuntimeSchedulingError):
            client.compute()

    def test_heft_not_worse_than_round_robin(self):
        def makespan(policy):
            client = EverestClient(default_cluster(4), scheduler=policy)
            rng = np.random.default_rng(0)
            layer = [client.submit(
                lambda i=i: i, name=f"src{i}",
                resources=ResourceRequest(
                    cpu_flops=float(rng.uniform(1e9, 4e10)),
                    cores=int(rng.integers(1, 8))))
                for i in range(16)]
            for i in range(8):
                client.submit(lambda x, y: 0, layer[2 * i],
                              layer[2 * i + 1],
                              resources=ResourceRequest(cpu_flops=2e10))
            return client.compute().makespan

        assert makespan("heft") <= makespan("round-robin") * 1.05

    def test_core_capacity_never_exceeded(self):
        cluster = default_cluster(2)
        client = EverestClient(cluster)
        for i in range(20):
            client.submit(lambda: 0, name=f"t{i}",
                          resources=ResourceRequest(cores=16,
                                                    cpu_flops=1e10))
        schedule = client.compute()
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
        baseline_client = EverestClient(default_cluster(3))
        _diamond_graph(baseline_client)
        schedule = baseline_client.compute()
        victim = schedule.placements[0].node
        fail_time = schedule.makespan * 0.25

        cluster = default_cluster(3)
        client = EverestClient(cluster)
        final = _diamond_graph(client)
        client.engine.fail_node_at(fail_time, victim)
        repaired = client.compute()
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
        baseline_client = EverestClient(default_cluster(3))
        _diamond_graph(baseline_client)
        baseline = baseline_client.compute()
        first = baseline.placements[0].node
        survivor = next(name for name in ("node0", "node1", "node2")
                        if name != first)
        victims = sorted({"node0", "node1", "node2"} - {survivor},
                         reverse=True)
        fail_time = baseline.makespan * 0.25

        cluster = default_cluster(3)
        client = EverestClient(cluster)
        final = _diamond_graph(client)
        client.engine.call_at(fail_time, lambda: [
            cluster.fail_node(name) for name in victims])
        schedule = client.compute()
        assert schedule.rescheduled_tasks > 0
        for placement in schedule.placements.values():
            if placement.node != survivor:
                assert placement.finish <= fail_time
        assert final.result() == 4
        assert [name for name, node in cluster.nodes.items()
                if not node.alive] == sorted(victims)

    def test_utilization_normalized_by_cores(self):
        cluster = default_cluster(2)
        client = EverestClient(cluster)
        client.submit(lambda: 0,
                      resources=ResourceRequest(cores=32, cpu_flops=1e10))
        schedule = client.compute()
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
