"""Tests for the virtualized runtime: scheduling, failures, SR-IOV."""

import numpy as np
import pytest

from repro.errors import RuntimeSchedulingError, VirtualizationError
from repro.platforms import alveo_u55c
from repro.runtime import (
    Cluster,
    ClusterMonitor,
    EverestClient,
    Node,
    Placement,
    ResourceRequest,
    ScheduleResult,
    default_cluster,
)
from repro.runtime.virtualization import (
    EMULATED_OVERHEAD,
    SRIOV_OVERHEAD,
    Hypervisor,
    LibvirtDaemon,
    PhysicalFunction,
    VFManager,
)


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
    def test_utilization_normalized_by_cores(self):
        cluster = default_cluster(2)
        client = EverestClient(cluster)
        client.submit(lambda: 0,
                      resources=ResourceRequest(cores=32, cpu_flops=1e10))
        schedule = client.compute()
        report = schedule.utilization(cluster)
        assert max(report.utilization.values()) <= 1.0 + 1e-9

    def test_utilization_of_a_fixed_schedule(self):
        """The numbers ``ClusterMonitor(cluster).utilization(schedule)``
        gave before the report moved onto the schedule: core-seconds per
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

    def test_dead_node_detection(self):
        cluster = default_cluster(2)
        monitor = ClusterMonitor(cluster)
        monitor.record_heartbeat("node0", 100.0)
        monitor.record_heartbeat("node1", 10.0)
        assert monitor.dead_nodes(now=100.0) == ["node1"]
        cluster.fail_node("node0")
        assert "node0" in monitor.dead_nodes(now=100.0)


class TestSRIOV:
    def test_vf_assignment_exclusive(self):
        pf = PhysicalFunction(alveo_u55c(), max_vfs=2)
        manager = VFManager()
        manager.plug(pf.vf(0), "vm0")
        with pytest.raises(VirtualizationError):
            manager.plug(pf.vf(0), "vm1")

    def test_rebalance_satisfies_demands(self):
        pfs = [PhysicalFunction(alveo_u55c(), max_vfs=4)]
        manager = VFManager()
        manager.rebalance(pfs, {"vm0": 2, "vm1": 1})
        held = {}
        for vf in pfs[0].vfs:
            if vf.assigned_vm:
                held[vf.assigned_vm] = held.get(vf.assigned_vm, 0) + 1
        assert held == {"vm0": 2, "vm1": 1}
        # Shrink vm0, grow vm1: dynamic plug/unplug.
        events = manager.rebalance(pfs, {"vm0": 0, "vm1": 3})
        assert any(e.action == "unplug" for e in events)
        assert any(e.action == "plug" for e in events)

    def test_overdemand_rejected(self):
        pfs = [PhysicalFunction(alveo_u55c(), max_vfs=2)]
        with pytest.raises(VirtualizationError):
            VFManager().rebalance(pfs, {"vm0": 5})

    def test_overheads_ordered(self):
        assert 1.0 < SRIOV_OVERHEAD < 1.1 < EMULATED_OVERHEAD


class TestHypervisorAndLibvirt:
    def _daemon(self):
        pf = PhysicalFunction(alveo_u55c(), max_vfs=2)
        hv = Hypervisor("node0", cores=32, memory_mb=65536, pfs=[pf])
        return LibvirtDaemon(hv)

    def test_vm_lifecycle(self):
        daemon = self._daemon()
        daemon.defineXML("vm0", vcpus=8, memory_mb=8192)
        daemon.create("vm0")
        assert daemon.getInfo().running_vms == 1
        daemon.shutdown("vm0")
        daemon.undefine("vm0")
        assert daemon.listAllDomains() == []

    def test_attach_detach_device(self):
        daemon = self._daemon()
        daemon.defineXML("vm0", vcpus=4, memory_mb=4096)
        daemon.create("vm0")
        vf = daemon.attachDevice("vm0")
        assert daemon.lookupByName("vm0").has_accelerator()
        assert daemon.getInfo().free_vfs == 1
        daemon.detachDevice("vm0", vf)
        assert daemon.getInfo().free_vfs == 2

    def test_shutdown_with_vfs_rejected(self):
        daemon = self._daemon()
        daemon.defineXML("vm0", vcpus=4, memory_mb=4096)
        daemon.create("vm0")
        daemon.attachDevice("vm0")
        with pytest.raises(VirtualizationError):
            daemon.shutdown("vm0")

    def test_memory_overcommit_rejected(self):
        daemon = self._daemon()
        daemon.defineXML("vm0", vcpus=4, memory_mb=60000)
        with pytest.raises(VirtualizationError):
            daemon.defineXML("vm1", vcpus=4, memory_mb=60000)

    def test_io_mode_overheads(self):
        daemon = self._daemon()
        sriov = daemon.defineXML("vm0", 2, 2048, io_mode="sriov")
        emulated = daemon.defineXML("vm1", 2, 2048, io_mode="emulated")
        assert sriov.accelerator_overhead() \
            < emulated.accelerator_overhead()
