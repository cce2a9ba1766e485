"""Tests for the event-driven runtime engine and its pluggable policies.

Covers the timeline index (including the seed overcommit regression),
the policy protocol, streaming submission, in-loop monitoring, and the
failure-handling edge cases of §VI-A duty 4.
"""

import os
import random
import sys
import threading

import pytest

from repro.errors import RuntimeSchedulingError
from repro.platforms import alveo_u55c
from repro.platforms.network import LinkModel
from repro.runtime import (
    POLICIES,
    Cluster,
    EverestClient,
    HEFTScheduler,
    MinLoadPolicy,
    Node,
    NodeTimeline,
    ResourceRequest,
    RoundRobinScheduler,
    RuntimeEngine,
    default_cluster,
    resolve_policy,
    synthetic_workflow,
)
from repro.runtime.placement import CandidateIndex
from repro.runtime.taskgraph import TaskGraph

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)

from oracles import (  # noqa: E402
    ScanHEFT,
    ScanTimeline,
    dependency_respecting_walk,
    fresh_timelines,
    topological_order_dfs,
)
from workloadfuzz import engine_plan_op  # noqa: E402


def _assert_capacity_respected(schedule, cluster):
    for node_name, node in cluster.nodes.items():
        events = [p for p in schedule.placements.values()
                  if p.node == node_name]
        for t in sorted({p.start for p in events}):
            used = sum(p.cores for p in events if p.start <= t < p.finish)
            assert used <= node.cores, (node_name, t, used)


def _assert_dependencies_respected(schedule, graph):
    for task in graph.tasks.values():
        for dep in task.deps:
            assert schedule.placements[dep].finish \
                <= schedule.placements[task.task_id].start + 1e-12


class TestNodeTimeline:
    def _node(self, cores=4):
        return Node("n0", cores=cores, fpgas=[])

    def test_empty_timeline_starts_at_ready(self):
        timeline = NodeTimeline(self._node())
        assert timeline.earliest_start(3.0, 1.0, 2) == 3.0

    def test_packs_into_free_capacity(self):
        timeline = NodeTimeline(self._node(cores=4))
        timeline.commit(0.0, 10.0, 2)
        # Two cores remain free for the whole window.
        assert timeline.earliest_start(0.0, 5.0, 2) == 0.0
        timeline.commit(0.0, 10.0, 2)
        # Now the node is full until t=10.
        assert timeline.earliest_start(0.0, 5.0, 1) == 10.0

    def test_search_extends_past_last_interval_end(self):
        """Regression for the seed ``candidates[-1]`` fallback: when no
        gap fits, the answer is *after* the last busy interval — never an
        overcommitted start inside it."""
        timeline = NodeTimeline(self._node(cores=2))
        timeline.commit(0.0, 4.0, 2)
        timeline.commit(4.0, 4.0, 1)
        # One core free in [4, 8), full before; a 2-core task must wait
        # until t=8 even though its ready time is 0.
        start = timeline.earliest_start(0.0, 3.0, 2)
        assert start == 8.0
        timeline.commit(start, 3.0, 2)
        assert timeline.peak_usage(0.0, 11.0) <= 2

    def test_window_spanning_gap_is_rejected(self):
        timeline = NodeTimeline(self._node(cores=2))
        timeline.commit(0.0, 2.0, 2)
        timeline.commit(5.0, 2.0, 1)
        # One core stays free over [5, 7), so a 1-core window fits at 2;
        # a 2-core window spanning the gap must wait until t=7.
        assert timeline.earliest_start(0.0, 4.0, 1) == 2.0
        assert timeline.earliest_start(0.0, 4.0, 2) == 7.0

    def test_request_wider_than_node_rejected(self):
        """The seed scan silently overcommitted the node instead."""
        timeline = NodeTimeline(self._node(cores=2))
        with pytest.raises(RuntimeSchedulingError):
            timeline.earliest_start(0.0, 1.0, 3)

    def test_release_restores_capacity(self):
        timeline = NodeTimeline(self._node(cores=2))
        timeline.commit(0.0, 10.0, 2)
        assert timeline.earliest_start(0.0, 1.0, 1) == 10.0
        timeline.release(0.0, 10.0, 2)
        assert timeline.earliest_start(0.0, 1.0, 1) == 0.0
        with pytest.raises(RuntimeSchedulingError):
            timeline.release(0.0, 10.0, 2)

    def test_release_of_an_interval_never_committed_names_the_node(self):
        timeline = NodeTimeline(self._node(cores=2))
        timeline.commit(0.0, 5.0, 1)
        with pytest.raises(RuntimeSchedulingError, match="'n0'"):
            timeline.release(0.0, 5.0, 2)  # same window, other width
        assert timeline.intervals == [(0.0, 5.0, 1)]
        assert timeline.earliest_start(0.0, 1.0, 2) == 5.0

    def test_matches_brute_force_on_random_trace(self):
        import random

        rng = random.Random(7)
        node = self._node(cores=8)
        timeline = NodeTimeline(node)
        committed = []
        for _ in range(200):
            ready = rng.uniform(0, 50)
            duration = rng.uniform(0.1, 5.0)
            cores = rng.randint(1, 8)
            start = timeline.earliest_start(ready, duration, cores)
            assert start >= ready
            # Brute-force check: the window fits, and no earlier
            # committed-interval boundary >= ready would.
            def peak(t0, t1):
                points = {t0} | {s for s, e, c in committed
                                 if t0 < s < t1}
                return max((sum(c for s, e, c in committed
                                if s <= p < e) for p in points),
                           default=0)

            assert peak(start, start + duration) + cores <= node.cores
            earlier = {b for b in
                       ({ready} | {e for _, e, _ in committed
                                   if ready < e < start})
                       if b < start}
            for boundary in sorted(earlier):
                assert peak(boundary, boundary + duration) + cores \
                    > node.cores
            timeline.commit(start, duration, cores)
            committed.append((start, start + duration, cores))


class TestSchedulerOvercommitRegression:
    def test_task_wider_than_every_node_rejected(self):
        cluster = Cluster([Node("small0", cores=2, fpgas=[]),
                           Node("small1", cores=2, fpgas=[])])
        client = EverestClient(cluster)
        client.submit(lambda: 0, resources=ResourceRequest(cores=4))
        with pytest.raises(RuntimeSchedulingError):
            client.compute()

    @pytest.mark.parametrize("scheduler_cls",
                             [HEFTScheduler, RoundRobinScheduler])
    def test_wide_task_placed_only_on_capable_node(self, scheduler_cls):
        cluster = Cluster([Node("small", cores=2, fpgas=[]),
                           Node("big", cores=8, fpgas=[])])
        client = EverestClient(cluster, scheduler=scheduler_cls())
        for i in range(6):
            client.submit(lambda: 0, name=f"wide{i}",
                          resources=ResourceRequest(cores=4,
                                                    cpu_flops=1e9))
        schedule = client.compute()
        assert {p.node for p in schedule.placements.values()} == {"big"}
        _assert_capacity_respected(schedule, cluster)


class TestPolicyProtocol:
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_registry_policies_satisfy_protocol(self, name):
        policy = resolve_policy(name)
        assert policy.name == name
        assert isinstance(policy.online, bool)
        # One method per policy, by kind.
        assert hasattr(policy, "place") == policy.online
        assert hasattr(policy, "schedule") != policy.online

    def test_resolve_rejects_unknown_name(self):
        with pytest.raises(RuntimeSchedulingError):
            resolve_policy("not-a-policy")

    def test_resolve_rejects_non_policy(self):
        with pytest.raises(RuntimeSchedulingError):
            resolve_policy(object())

    def test_resolve_passes_instances_through(self):
        policy = MinLoadPolicy()
        assert resolve_policy(policy) is policy

    def test_legacy_signature_policy_is_refused_at_its_first_dispatch(self):
        """A scheduler that cannot take the engine's timelines would
        plan against empty capacity; the engine passes all four
        arguments, so Python refuses the call before anything is
        placed."""

        class LegacyScheduler:
            name = "legacy"
            online = False

            def schedule(self, graph, cluster, ready_overrides=None):
                raise AssertionError("never called")

        engine = RuntimeEngine(default_cluster(2), policy=LegacyScheduler())
        engine.submit(lambda: 0)
        with pytest.raises(TypeError, match="positional argument"):
            engine.run()
        assert engine.placements == {}
        assert engine.graph.results == {}

    def test_online_policy_with_only_place_resolves_and_runs(self):
        class FirstNode:
            name = "first-node"
            online = True

            def place(self, task, graph, cluster, timelines, placements,
                      now):
                return MinLoadPolicy().place(
                    task, graph, Cluster([cluster.alive_nodes()[0]]),
                    timelines, placements, now)

        policy = FirstNode()
        assert resolve_policy(policy) is policy
        engine = RuntimeEngine(default_cluster(3), policy=policy)
        finals = synthetic_workflow(engine, n_tasks=24, seed=1)
        schedule = engine.run()
        assert {p.node for p in schedule.placements.values()} == {"node0"}
        assert all(f.task_id in engine.graph.results for f in finals)
        _assert_capacity_respected(schedule, engine.cluster)
        _assert_dependencies_respected(schedule, engine.graph)

    def test_resolve_asks_for_the_method_of_the_policy_kind(self):
        class OnlineWithoutPlace:
            online = True

            def schedule(self, graph, cluster, ready, timelines):
                raise AssertionError("never called")

        with pytest.raises(RuntimeSchedulingError, match=r"place\(\)"):
            resolve_policy(OnlineWithoutPlace())

    def test_min_load_balances_identical_tasks(self):
        cluster = default_cluster(2)
        policy = MinLoadPolicy()
        client = EverestClient(cluster, scheduler=policy)
        for i in range(8):
            client.submit(lambda: 0, name=f"t{i}",
                          resources=ResourceRequest(cores=32,
                                                    cpu_flops=1e10))
        schedule = client.compute()
        busy = schedule.utilization(cluster).busy
        # Eight node-filling tasks over two nodes: a 50/50 split.
        assert len(busy) == 2
        values = sorted(busy.values())
        assert values[0] == pytest.approx(values[1])


class TestEngineExecution:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_diamond_results_per_policy(self, policy):
        engine = RuntimeEngine(default_cluster(2), policy=policy)
        a = engine.submit(lambda: 1, name="a")
        b = engine.submit(lambda x: x + 1, a, name="b")
        c = engine.submit(lambda x: x * 2, a, name="c")
        d = engine.submit(lambda x, y: x + y, b, c, name="d")
        schedule = engine.run()
        assert d.result() == (1 + 1) + (1 * 2)
        _assert_capacity_respected(schedule, engine.cluster)
        _assert_dependencies_respected(schedule, engine.graph)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_wide_workflow_valid_per_policy(self, policy):
        engine = RuntimeEngine(default_cluster(3), policy=policy)
        finals = synthetic_workflow(engine, n_tasks=48, seed=3)
        schedule = engine.run()
        assert len(schedule.placements) == 48
        assert all(f.task_id in engine.graph.results for f in finals)
        _assert_capacity_respected(schedule, engine.cluster)
        _assert_dependencies_respected(schedule, engine.graph)

    def test_failed_plan_leaves_timelines_untouched(self):
        """A plan that raises partway (unplaceable FPGA task) must not
        leak half-committed reservations into the live timelines."""
        cluster = Cluster([Node("cpu0", fpgas=[])])
        engine = RuntimeEngine(cluster)
        engine.submit(lambda: 1, name="ok")
        engine.submit(lambda: 2, name="offload",
                      resources=ResourceRequest(fpga=True))
        with pytest.raises(RuntimeSchedulingError):
            engine.run()
        assert engine.timelines["cpu0"].intervals == []
        assert engine.placements == {}

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_bodies_run_on_the_calling_thread_in_simulated_start_order(
            self, policy):
        engine = RuntimeEngine(default_cluster(3), policy=policy)
        ran = []

        def body(*args, i):
            ran.append((i, threading.get_ident()))
            return i

        rng = random.Random(5)
        futures = []
        for i in range(40):
            deps = rng.sample(futures, min(len(futures), rng.randrange(3)))
            futures.append(engine.submit(
                body, *deps, i=i,
                resources=ResourceRequest(cores=rng.randint(1, 20),
                                          cpu_flops=rng.uniform(1e9, 5e10))))
        schedule = engine.run()
        assert {thread for _, thread in ran} == {threading.get_ident()}
        assert sorted(i for i, _ in ran) == list(range(40))
        starts = [schedule.placements[i].start for i, _ in ran]
        assert starts == sorted(starts)
        assert engine.graph.results == {i: i for i in range(40)}

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_a_raising_body_stops_the_engine_naming_the_task(self, policy):
        """It used to escape bare, leave the task RUNNING, and make the
        next run() die with a KeyError (offline policies) or blame a
        dependency cycle (min-load)."""
        engine = RuntimeEngine(default_cluster(2), policy=policy)

        def broken(x):
            raise ValueError(f"no square root of {x}")

        first = engine.submit(lambda: -4, name="first")
        bad = engine.submit(broken, first, name="root")
        after = engine.submit(lambda x: x, bad, name="after")
        with pytest.raises(RuntimeSchedulingError, match="'root'") as raised:
            engine.run()
        assert isinstance(raised.value.__cause__, ValueError)
        assert "no square root of -4" in str(raised.value)
        assert first.result() == -4
        assert bad.task_id not in engine.graph.results
        assert after.task_id not in engine.graph.results
        for _ in range(2):
            with pytest.raises(RuntimeSchedulingError) as again:
                engine.run()
            assert again.value is raised.value

    def test_policy_that_does_not_commit_its_placements_is_refused(self):
        """The plan's scratch timelines become the live ones, so a
        policy that places without committing would hand every later
        plan capacity that is already taken."""

        class Forgetful:
            name = "forgetful"
            online = False

            def schedule(self, graph, cluster, ready, timelines):
                elsewhere = {name: timeline.clone()
                             for name, timeline in timelines.items()}
                return HEFTScheduler().schedule(graph, cluster, ready,
                                                elsewhere)

        engine = RuntimeEngine(default_cluster(2), policy=Forgetful())
        synthetic_workflow(engine, n_tasks=12, seed=2)
        with pytest.raises(RuntimeSchedulingError, match="policy Forgetful"):
            engine.run()
        assert engine.placements == {}
        assert all(timeline.intervals == []
                   for timeline in engine.timelines.values())

    @pytest.mark.parametrize("online", [False, True])
    def test_a_placement_before_the_clock_is_refused_naming_the_policy(
            self, online):
        """Its start event would run the clock backwards.  The run used
        to stop when that event came up, with "simulated clock cannot run
        backwards" and no policy named."""

        class Early:
            name = "early"

            def __init__(self):
                self.online = online

            def schedule(self, graph, cluster, ready, timelines):
                plan = HEFTScheduler().schedule(graph, cluster, ready,
                                                timelines)
                for placement in plan.placements.values():
                    placement.start -= 1.0
                return plan

            def place(self, task, graph, cluster, timelines, placements,
                      now):
                placement, comm = MinLoadPolicy().place(
                    task, graph, cluster, timelines, placements, now)
                placement.start -= 1.0
                return placement, comm

        engine = RuntimeEngine(default_cluster(2), policy=Early())
        ran = []
        engine.submit(lambda: ran.append(1), name="first")
        with pytest.raises(RuntimeSchedulingError,
                           match="policy Early placed task 0 on 'node0'"):
            engine.run()
        assert ran == [] and engine.placements == {}
        assert all(timeline.intervals == []
                   for timeline in engine.timelines.values())

    def test_unsatisfiable_dependency_rejected(self):
        engine = RuntimeEngine(default_cluster(1), policy="min-load")
        future = engine.submit(lambda x: x, 1)
        engine.graph.tasks[future.task_id].deps.append(future.task_id)
        with pytest.raises(RuntimeSchedulingError):
            engine.run()


class TestStreamingSubmission:
    def test_two_jobs_interleave_on_one_cluster(self):
        # Measure job A alone to find a mid-flight submission time.
        probe = RuntimeEngine(default_cluster(2))
        synthetic_workflow(probe, n_tasks=30, seed=2)
        alone = probe.run().makespan

        engine = RuntimeEngine(default_cluster(2))
        synthetic_workflow(engine, n_tasks=30, seed=2, label="a")
        engine.call_at(alone * 0.4, lambda: synthetic_workflow(
            engine, n_tasks=30, seed=3, label="b"))
        schedule = engine.run()

        ids = {"a": set(), "b": set()}
        for task in engine.graph.tasks.values():
            ids[task.name[0]].add(task.task_id)
        assert len(schedule.placements) == 60
        a_last_finish = max(schedule.placements[t].finish
                            for t in ids["a"])
        b_first_start = min(schedule.placements[t].start
                            for t in ids["b"])
        # Job B starts while job A is still running...
        assert b_first_start < a_last_finish
        # ...and no task of B is placed before its submission time.
        assert b_first_start >= alone * 0.4 - 1e-12
        # Both jobs completed functionally, sharing capacity correctly.
        assert all(t in engine.graph.results for t in ids["a"] | ids["b"])
        _assert_capacity_respected(schedule, engine.cluster)

    def test_client_gather_redispatches_new_tasks(self):
        """Regression for the seed stale-schedule bug: tasks submitted
        after ``compute()`` were silently ignored by ``gather()``."""
        client = EverestClient(default_cluster(2))
        first = client.submit(lambda: 10)
        client.compute()
        second = client.submit(lambda x: x + 5, first)
        third = client.submit(lambda: 100)
        assert client.gather([first, second, third]) == [10, 15, 100]
        # The late tasks were really scheduled, not just executed.
        schedule = client.last_schedule
        assert second.task_id in schedule.placements
        assert third.task_id in schedule.placements
        # And they run no earlier than the first batch's timeline.
        assert schedule.placements[second.task_id].start \
            >= schedule.placements[first.task_id].finish

    def test_submit_at_streams_tasks_in(self):
        engine = RuntimeEngine(default_cluster(1), policy="min-load")
        first = engine.submit(lambda: 2,
                              resources=ResourceRequest(cpu_flops=1e10))
        engine.submit_at(0.5, lambda: 3, name="late")
        schedule = engine.run()
        late = next(t for t in engine.graph.tasks.values()
                    if t.name == "late")
        assert schedule.placements[late.task_id].start >= 0.5
        assert first.result() == 2
        assert engine.graph.results[late.task_id] == 3

    @pytest.mark.parametrize("when", [-1.0, 2.5, float("nan")])
    def test_an_event_in_the_past_is_refused_at_the_call(self, when):
        """It used to be queued and to stop the run at "simulated clock
        cannot run backwards", with part of the workflow executed."""
        engine = RuntimeEngine(default_cluster(2))
        engine.submit(lambda: 0, resources=ResourceRequest(cpu_flops=1e10))
        engine.run()  # the clock now stands at 4.0
        for call in (lambda: engine.call_at(when, lambda: None),
                     lambda: engine.submit_at(when, lambda: 1),
                     lambda: engine.fail_node_at(when, "node1")):
            with pytest.raises(RuntimeSchedulingError,
                               match="time=.* is earlier than"):
                call()
        engine.call_at(engine.clock.now, lambda: None)  # now is not past
        engine.run()
        assert len(engine.graph.tasks) == 1
        assert engine.cluster.node("node1").alive

    def test_failing_an_unknown_node_is_refused_at_the_call(self):
        engine = RuntimeEngine(default_cluster(2))
        with pytest.raises(RuntimeSchedulingError, match="name='node9'"):
            engine.fail_node_at(1.0, "node9")


class TestFailureHandling:
    def _loaded_engine(self, policy="heft", nodes=3, tasks=60, seed=1):
        engine = RuntimeEngine(default_cluster(nodes), policy=policy)
        finals = synthetic_workflow(engine, n_tasks=tasks, seed=seed)
        return engine, finals

    def _makespan(self, **kwargs):
        engine, _ = self._loaded_engine(**kwargs)
        return engine.run().makespan

    @pytest.mark.parametrize("policy", ["heft", "min-load"])
    def test_mid_run_failure_rescheduled_automatically(self, policy):
        baseline = self._makespan(policy=policy)
        engine, finals = self._loaded_engine(policy=policy)
        fail_time = baseline * 0.3
        engine.fail_node_at(fail_time, "node0")
        schedule = engine.run()
        assert schedule.rescheduled_tasks > 0
        for placement in schedule.placements.values():
            if placement.node == "node0":
                assert placement.finish <= fail_time + 1e-9
        assert all(f.task_id in engine.graph.results for f in finals)
        _assert_capacity_respected(schedule, engine.cluster)
        _assert_dependencies_respected(schedule, engine.graph)

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_lost_running_task_runs_again_and_republishes(self, policy):
        """The outcome of a body whose node died under it is discarded:
        the replacement calls the function again and only that result
        is published."""
        engine = RuntimeEngine(default_cluster(2), policy=policy)
        calls = []

        def body():
            calls.append(engine.clock.now)
            return len(calls)

        future = engine.submit(
            body, resources=ResourceRequest(cpu_flops=1e11))  # 40 s
        seen = []
        engine.call_at(9.0, lambda: seen.append(dict(engine.graph.results)))
        engine.fail_node_at(10.0, "node0")
        schedule = engine.run()
        assert calls == [0.0, 10.0]
        assert seen == [{}]
        assert future.result() == 2
        assert schedule.placements[future.task_id].node == "node1"
        assert schedule.rescheduled_tasks == 1

    def test_offline_policy_plans_in_the_engine_id_space(self):
        """Every plan is handed exactly the pending tasks under their
        engine ids, with dependencies trimmed to that set, and its
        placements are committed as they are."""
        plans = []

        class Recording(HEFTScheduler):
            def schedule(self, graph, cluster, ready, timelines):
                plan = super().schedule(graph, cluster, ready, timelines)
                plans.append((set(engine._pending), graph, plan))
                return plan

        engine = RuntimeEngine(default_cluster(3), policy=Recording())
        synthetic_workflow(engine, n_tasks=60, seed=1)
        engine.fail_node_at(self._makespan() * 0.3, "node0")
        schedule = engine.run()
        first, repair = plans
        assert first[0] == set(engine.graph.tasks)
        assert repair[0] and repair[0] < first[0]
        trimmed = 0
        for pending, graph, plan in plans:
            assert set(graph.tasks) == set(plan.placements) == pending
            for tid, task in graph.tasks.items():
                full = engine.graph.tasks[tid].deps
                assert task.deps == [d for d in full if d in pending]
                trimmed += len(full) - len(task.deps)
                assert plan.placements[tid].task_id == tid
        assert trimmed > 0
        for tid in repair[0]:
            assert schedule.placements[tid] is repair[2].placements[tid]

    def test_node_fails_before_any_task_starts(self):
        engine, finals = self._loaded_engine()
        engine.fail_node_at(0.0, "node1")
        schedule = engine.run()
        # Nothing may run on the node that died at t=0...
        assert all(p.node != "node1"
                   for p in schedule.placements.values())
        # ...yet everything still completes on the survivors.
        assert len(schedule.placements) == 60
        assert all(f.task_id in engine.graph.results for f in finals)

    def test_last_fpga_node_fails_with_fpga_task_pending(self):
        cluster = Cluster([Node("cpu0", fpgas=[]),
                           Node("acc0", fpgas=[alveo_u55c()])])
        engine = RuntimeEngine(cluster)
        gate = engine.submit(lambda: 1, name="gate",
                             resources=ResourceRequest(cpu_flops=5e10))
        engine.submit(lambda x: x, gate, name="offload",
                      resources=ResourceRequest(fpga=True,
                                                fpga_seconds=1e-3))
        engine.fail_node_at(1.0, "acc0")  # before the FPGA task can run
        with pytest.raises(RuntimeSchedulingError):
            engine.run()

    def test_two_sequential_failures(self):
        baseline = self._makespan()
        engine, finals = self._loaded_engine()
        t1, t2 = baseline * 0.2, baseline * 0.5
        engine.fail_node_at(t1, "node0")
        engine.fail_node_at(t2, "node1")
        schedule = engine.run()
        assert schedule.rescheduled_tasks > 0
        for placement in schedule.placements.values():
            if placement.node == "node0":
                assert placement.finish <= t1 + 1e-9
            if placement.node == "node1":
                assert placement.finish <= t2 + 1e-9
        assert all(f.task_id in engine.graph.results for f in finals)
        _assert_capacity_respected(schedule, engine.cluster)

    def test_failure_after_restore_is_handled_again(self):
        """A node that fails, is restored, and fails a second time must
        be re-detected — the handled-failure set resets on recovery."""
        baseline = self._makespan()
        engine, finals = self._loaded_engine()
        t1, t2 = baseline * 0.2, baseline * 0.8
        engine.fail_node_at(t1, "node0")
        engine.call_at(baseline * 0.4,
                       lambda: engine.cluster.restore_node("node0"))
        # Stream fresh work in after the restore so the revived node0
        # picks up placements again...
        engine.call_at(baseline * 0.5, lambda: synthetic_workflow(
            engine, n_tasks=30, seed=9, label="wave2"))
        counts = {}
        engine.call_at(t2 * 0.999,
                       lambda: counts.update(
                           before=engine.rescheduled_tasks))
        # ...then kill it a second time.
        engine.fail_node_at(t2, "node0")
        schedule = engine.run()
        # The second failure really rescheduled work — it was not
        # swallowed by the already-handled set.
        assert schedule.rescheduled_tasks > counts["before"]
        for placement in schedule.placements.values():
            if placement.node == "node0":
                assert placement.finish <= t2 + 1e-9
        assert all(f.task_id in engine.graph.results for f in finals)
        assert len(engine.graph.results) == 90

    def test_monitor_detects_externally_failed_node(self):
        """Failure injected by side effect (not fail_node_at): the
        engine reads the node's alive flag after the callback and
        recovery still runs."""
        baseline = self._makespan()
        engine, finals = self._loaded_engine()
        engine.call_at(baseline * 0.3,
                       lambda: engine.cluster.fail_node("node0"))
        schedule = engine.run()
        assert schedule.rescheduled_tasks > 0
        assert all(f.task_id in engine.graph.results for f in finals)


class TestTimelineCoalescing:
    """Regression: commit/release churn must not leave stale breakpoints
    (they skewed ``load_after`` and bloated every later query)."""

    def _snapshot(self, timeline):
        return (list(timeline._times), list(timeline._levels))

    def test_release_cycles_return_to_pristine_index(self):
        node = Node(name="n", cores=8, fpgas=[])
        timeline = NodeTimeline(node)
        timeline.commit(0.0, 10.0, 2)
        pristine = self._snapshot(timeline)
        for i in range(50):
            start = 1.0 + (i % 7)
            timeline.commit(start, 3.0, 3)
            timeline.commit(start + 0.5, 1.0, 2)
            timeline.release(start + 0.5, 1.0, 2)
            timeline.release(start, 3.0, 3)
        assert self._snapshot(timeline) == pristine
        assert timeline.load_after(0.0) == pytest.approx(20.0)

    def test_interleaved_churn_matches_fresh_rebuild(self):
        import random

        rng = random.Random(5)
        node = Node(name="n", cores=16, fpgas=[])
        timeline = NodeTimeline(node)
        live = []
        for _ in range(300):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.randrange(len(live)))
                timeline.release(*victim)
            else:
                interval = (round(rng.uniform(0, 50), 2),
                            round(rng.uniform(0.1, 9), 2),
                            rng.randint(1, 6))
                timeline.commit(*interval)
                live.append(interval)
        rebuilt = NodeTimeline(node)
        for interval in live:
            rebuilt.commit(*interval)
        assert timeline._times == rebuilt._times
        assert timeline._levels == rebuilt._levels
        assert timeline.load_after(10.0) \
            == pytest.approx(rebuilt.load_after(10.0))


class TestEventDeterminism:
    """Identical timestamps must resolve deterministically (push order
    within a kind, kind priority across kinds)."""

    def test_kinds_at_one_time_run_finish_failure_callback_start(self):
        """At t = 4.0 a task finishes, an idle node fails, a callback runs
        and the next task starts; the callback was queued before the
        failure, and still runs after it."""
        engine = RuntimeEngine(default_cluster(2))
        seen = []
        a = engine.submit(lambda: seen.append("a") or 1, name="a",
                          resources=ResourceRequest(cpu_flops=1e10))
        engine.submit(lambda x: seen.append(("b", engine.clock.now)),
                      a, name="b")
        engine.call_at(4.0, lambda: seen.append(
            ("callback", a.task_id in engine.graph.results,
             engine.cluster.node("node1").alive, len(seen))))
        engine.fail_node_at(4.0, "node1")
        schedule = engine.run()
        assert schedule.placements[a.task_id].finish == 4.0
        assert seen == ["a", ("callback", True, False, 1), ("b", 4.0)]

    def test_mixed_kinds_at_one_time_run_by_kind_then_push_order(self):
        """Callbacks and node failures pushed alternately at one time:
        every failure runs first, then every callback in push order."""
        engine = RuntimeEngine(default_cluster(4))
        seen = []
        for i in range(1, 4):
            engine.call_at(2.0, lambda i=i: seen.append(
                (i, len(engine.cluster.alive_nodes()))))
            engine.fail_node_at(2.0, f"node{i}")
        for i in range(4, 20):
            engine.call_at(2.0, lambda i=i: seen.append((i, None)))
        engine.run()
        assert [i for i, _ in seen] == list(range(1, 20))
        assert [alive for _, alive in seen[:3]] == [1, 1, 1]
        assert engine.clock.now == 2.0

    def test_submit_at_identical_timestamps_run_in_submission_order(self):
        engine = RuntimeEngine(default_cluster(1), policy="min-load")
        seen = []
        for i in range(8):
            engine.submit_at(1.0, lambda i=i: seen.append(i))
        engine.run()
        assert seen == list(range(8))
        # Replay gives the identical schedule.
        again = RuntimeEngine(default_cluster(1), policy="min-load")
        replay = []
        for i in range(8):
            again.submit_at(1.0, lambda i=i: replay.append(i))
        second = again.run()
        assert replay == seen
        first = engine.schedule_result()
        assert {t: (p.node, p.start, p.finish)
                for t, p in first.placements.items()} \
            == {t: (p.node, p.start, p.finish)
                for t, p in second.placements.items()}


class TestPolicyEdgeCases:
    def test_empty_graph_runs_to_empty_schedule(self):
        for policy in sorted(POLICIES):
            engine = RuntimeEngine(default_cluster(2), policy=policy)
            schedule = engine.run()
            assert schedule.placements == {}
            assert schedule.makespan == 0.0

    def test_single_node_cluster_serializes_wide_tasks(self):
        cluster = Cluster([Node(name="only", cores=4, fpgas=[])])
        for policy in sorted(POLICIES):
            engine = RuntimeEngine(cluster, policy=policy)
            futs = [engine.submit(lambda i=i: i,
                                  resources=ResourceRequest(cores=4))
                    for i in range(3)]
            schedule = engine.run()
            assert len(engine.graph.results) == 3
            starts = sorted((schedule.placements[f.task_id].start,
                             schedule.placements[f.task_id].finish)
                            for f in futs)
            for (s0, f0), (s1, f1) in zip(starts, starts[1:]):
                assert s1 >= f0 - 1e-9  # 4-core tasks cannot overlap

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_all_nodes_failed_mid_run_raises(self, policy):
        engine = RuntimeEngine(default_cluster(2), policy=policy)
        synthetic_workflow(engine, n_tasks=40, seed=3)
        horizon = engine.run(until=0.0).makespan or 1.0
        engine.fail_node_at(horizon * 0.1, "node0")
        engine.fail_node_at(horizon * 0.1, "node1")
        with pytest.raises(RuntimeSchedulingError):
            engine.run()

    def test_task_requesting_exactly_node_cores(self):
        node = Node(name="full", cores=32, fpgas=[])
        cluster = Cluster([node])
        for policy in sorted(POLICIES):
            engine = RuntimeEngine(cluster, policy=policy)
            a = engine.submit(lambda: 1,
                              resources=ResourceRequest(cores=32))
            b = engine.submit(lambda x: x + 1, a,
                              resources=ResourceRequest(cores=32))
            schedule = engine.run()
            assert engine.graph.results[b.task_id] == 2
            pa, pb = (schedule.placements[a.task_id],
                      schedule.placements[b.task_id])
            assert pb.start >= pa.finish - 1e-9

    def test_resolve_policy_accepts_a_class(self):
        assert isinstance(resolve_policy(HEFTScheduler), HEFTScheduler)
        assert isinstance(resolve_policy(MinLoadPolicy), MinLoadPolicy)
        engine = RuntimeEngine(default_cluster(1), policy=MinLoadPolicy)
        engine.submit(lambda: 7)
        engine.run()
        assert list(engine.graph.results.values()) == [7]


class TestTaskGraphScale:
    def test_deep_chain_toposort_is_iterative(self):
        """A 5,000-task chain must not hit the recursion limit."""
        import sys

        from repro.runtime.taskgraph import TaskGraph

        graph = TaskGraph()
        prev = []
        for i in range(5000):
            prev = [graph.add(lambda: None, tuple(prev), {}, None, 0,
                              None)]
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(120)
            order = graph.topological_order()
        finally:
            sys.setrecursionlimit(limit)
        ids = [t.task_id for t in order]
        assert ids == sorted(ids)  # chain: dependency order == id order

    def test_toposort_cycle_detected(self):
        from repro.runtime.taskgraph import TaskGraph

        graph = TaskGraph()
        a = graph.add(lambda: None, (), {}, None, 0, None)
        b = graph.add(lambda: None, (a,), {}, None, 0, None)
        graph.tasks[a.task_id].deps.append(b.task_id)
        with pytest.raises(RuntimeSchedulingError, match="cycle"):
            graph.topological_order()


def _random_dag(seed):
    """A task graph whose ids need not follow its dependencies: deps
    point backwards along a random permutation of the ids, which is what
    editing ``deps`` after submission can produce."""
    from repro.runtime.taskgraph import TaskGraph

    rng = random.Random(seed)
    graph = TaskGraph()
    n = rng.randrange(1, 40)
    for _ in range(n):
        graph.add(lambda: None, (), {}, None, 0, None)
    ids = list(range(n))
    if seed % 2:
        rng.shuffle(ids)  # half the graphs have forward-pointing deps
    for position, tid in enumerate(ids):
        graph.tasks[tid].deps.extend(
            rng.sample(ids[:position], min(position, rng.randrange(4))))
    return graph, rng


class TestOrderingShortcuts:
    """``topological_order`` emits a root whose deps are already out and
    ``_dependency_respecting`` returns an order that already respects
    deps; both must give what their plain walks give."""

    @pytest.mark.parametrize("seed", range(200))
    def test_match_the_plain_walks(self, seed):
        graph, rng = _random_dag(seed)
        order = graph.topological_order()
        assert [t.task_id for t in order] \
            == [t.task_id for t in topological_order_dfs(graph)]
        ranked = sorted(order, key=lambda t: rng.randrange(4))
        for candidate in (order, ranked):
            assert HEFTScheduler._dependency_respecting(candidate) \
                == dependency_respecting_walk(candidate)

    @pytest.mark.parametrize("seed", range(0, 200, 10))
    def test_a_cycle_still_raises(self, seed):
        graph, _ = _random_dag(seed)
        order = graph.topological_order()
        first, last = order[0], order[-1]  # one task: a self-loop
        first.deps.append(last.task_id)
        last.deps.append(first.task_id)
        for walk in (graph.topological_order,
                     lambda: topological_order_dfs(graph),
                     lambda: HEFTScheduler._dependency_respecting(order),
                     lambda: dependency_respecting_walk(order)):
            with pytest.raises(RuntimeSchedulingError, match="cycle"):
                walk()


class TestIncrementalHEFTEquivalence:
    """The pruned placement index must reproduce the exhaustive scan
    bitwise (tools/workloadfuzz.py checks this generatively; these are
    the readable anchors), and the event-sweep timeline under it the
    interval-scanning one."""

    def _assert_same(self, left, right):
        assert set(left.placements) == set(right.placements)
        for tid, p in left.placements.items():
            q = right.placements[tid]
            assert (p.node, p.start, p.finish, p.cores) \
                == (q.node, q.start, q.finish, q.cores)
        assert left.transfers_seconds \
            == pytest.approx(right.transfers_seconds, abs=1e-9)

    def _graph(self, n_tasks, seed, fpga_fraction=0.0):
        class _Builder:
            def __init__(self):
                from repro.runtime.taskgraph import TaskGraph

                self.graph = TaskGraph()

            def submit(self, fn, *args, resources=None, output_bytes=8192,
                       name=None, **kwargs):
                return self.graph.add(fn, args, kwargs, resources,
                                      output_bytes, name)

        builder = _Builder()
        synthetic_workflow(builder, n_tasks=n_tasks, seed=seed,
                           fpga_fraction=fpga_fraction)
        return builder.graph

    @staticmethod
    def _plan(policy, graph, cluster, timeline=NodeTimeline):
        """The policy called as the engine calls it, on empty nodes."""
        return policy().schedule(graph, cluster, {},
                                 fresh_timelines(cluster, timeline))

    def test_identical_on_homogeneous_cluster(self):
        graph = self._graph(400, seed=2)
        cluster = default_cluster(24)
        self._assert_same(self._plan(HEFTScheduler, graph, cluster),
                          self._plan(ScanHEFT, graph, cluster))

    def test_identical_on_heterogeneous_cluster_with_fpga_tasks(self):
        nodes = [Node(name=f"n{i}", cores=[4, 8, 16, 32][i % 4],
                      core_gflops=[1.5, 2.5][i % 2],
                      fpgas=[alveo_u55c()] if i % 3 == 0 else [])
                 for i in range(12)]
        cluster = Cluster(nodes)
        graph = self._graph(300, seed=4, fpga_fraction=0.3)
        self._assert_same(self._plan(HEFTScheduler, graph, cluster),
                          self._plan(ScanHEFT, graph, cluster))

    def test_identical_with_ready_overrides_and_warm_timelines(self):
        graph = self._graph(120, seed=6)
        cluster = default_cluster(6)
        ready = {tid: (tid % 5) * 0.75 for tid in graph.tasks}

        def warm():
            timelines = fresh_timelines(cluster)
            timelines["node0"].commit(0.0, 2.5, 20)
            timelines["node3"].commit(1.0, 4.0, 32)
            return timelines

        self._assert_same(
            HEFTScheduler().schedule(graph, cluster, ready, warm()),
            ScanHEFT().schedule(graph, cluster, ready, warm()),
        )

    @staticmethod
    def _chain(*requests, output_bytes=8192):
        """One task per resource request, each depending on the last."""
        graph = TaskGraph()
        previous = ()
        for i, request in enumerate(requests):
            previous = (graph.add(lambda *a: None, previous, {}, request,
                                  output_bytes, f"t{i}"),)
        return graph

    @staticmethod
    def _count_searches(monkeypatch):
        """How many times placement opens the candidate stream."""
        calls = []
        search = CandidateIndex.candidates

        def counting(self, *args):
            calls.append(args)
            return search(self, *args)

        monkeypatch.setattr(CandidateIndex, "candidates", counting)
        return calls

    def test_a_winning_dependency_host_skips_the_search(self, monkeypatch):
        # Every transfer is remote elsewhere, so each successor finishes
        # strictly first on its predecessor's node.
        graph = self._chain(*[ResourceRequest() for _ in range(5)])
        cluster = default_cluster(4)
        searches = self._count_searches(monkeypatch)
        heft = self._plan(HEFTScheduler, graph, cluster)
        assert len(searches) == 1  # the root only: it has no host
        self._assert_same(heft, self._plan(ScanHEFT, graph, cluster))
        assert {p.node for p in heft.placements.values()} == {"node0"}

    def test_a_tie_with_a_lower_indexed_node_still_searches(self,
                                                             monkeypatch):
        # Zero-byte outputs on a free network: a non-host node is ready
        # exactly when the host is.  n0 is busy until the root would
        # finish, so the root runs on n1 and its successor finishes at
        # the same time on both nodes: the lower index, n0, wins.
        cluster = Cluster([Node(name=f"n{i}", cores=1, fpgas=[])
                           for i in range(2)],
                          LinkModel(latency_us=0.0,
                                    per_packet_overhead_bytes=0))
        graph = self._chain(ResourceRequest(), ResourceRequest(),
                            output_bytes=0)
        root_id, successor_id = sorted(graph.tasks)
        runtime = graph.tasks[root_id].runtime_on_cpu(cluster.node("n0"))

        def warm():
            timelines = fresh_timelines(cluster)
            timelines["n0"].commit(0.0, runtime, 1)
            return timelines

        searches = self._count_searches(monkeypatch)
        heft = HEFTScheduler().schedule(graph, cluster, {}, warm())
        assert len(searches) == 2
        root = heft.placements[root_id]
        successor = heft.placements[successor_id]
        assert root.node == "n1"
        assert (successor.node, successor.finish) \
            == ("n0", root.finish + runtime)
        self._assert_same(heft, ScanHEFT().schedule(graph, cluster, {},
                                                    warm()))

    @pytest.mark.parametrize("successor, host", [
        (ResourceRequest(fpga=True, fpga_seconds=0.01),
         Node(name="host", fpgas=[])),
        (ResourceRequest(cores=8), Node(name="host", cores=4, fpgas=[])),
    ], ids=["fpga-task-on-a-host-without-fpga", "host-with-too-few-cores"])
    def test_a_dependency_host_that_cannot_run_the_task_searches(
            self, monkeypatch, successor, host):
        cluster = Cluster([host, Node(name="other",
                                      fpgas=[alveo_u55c()])])
        graph = self._chain(ResourceRequest(), successor)
        searches = self._count_searches(monkeypatch)
        heft = self._plan(HEFTScheduler, graph, cluster)
        assert len(searches) == 2
        root, placed = (heft.placements[tid] for tid in sorted(graph.tasks))
        assert (root.node, placed.node) == ("host", "other")
        self._assert_same(heft, self._plan(ScanHEFT, graph, cluster))

    @pytest.mark.parametrize("workflow", range(8))
    def test_identical_on_the_engine_plan_workflows(self, workflow):
        """The benchmark's op, failure repair included, through the
        engine with either placer."""
        engine, heft = engine_plan_op(workflow, HEFTScheduler())
        scan_engine, scan = engine_plan_op(workflow, ScanHEFT())
        self._assert_same(heft, scan)
        assert heft.rescheduled_tasks == scan.rescheduled_tasks > 0
        for name, timeline in engine.timelines.items():
            assert timeline.intervals \
                == scan_engine.timelines[name].intervals, name

    def test_timeline_index_places_like_the_interval_scan(self):
        graph = self._graph(60, seed=3)
        # Two 8-core nodes: most of the 60 tasks wait for cores, so the
        # answer depends on the committed intervals.
        cluster = Cluster([Node(name=f"n{i}", cores=8, fpgas=[])
                           for i in range(2)])
        self._assert_same(
            self._plan(RoundRobinScheduler, graph, cluster),
            self._plan(RoundRobinScheduler, graph, cluster, ScanTimeline))
