"""Tests for ConDRust: parsing, ownership, dfg lowering, execution, Fig. 4."""

import random

import pytest

from repro.errors import FrontendError, OwnershipError
from repro.frontends.condrust import (
    FIG4_MAP_MATCHING,
    DataflowExecutor,
    check_ownership,
    lower_program_to_dfg,
    parse_program,
)
from repro.ir import verify


class TestParsing:
    def test_fig4_parses_verbatim(self):
        program = parse_program(FIG4_MAP_MATCHING)
        fn = program.function("match_one")
        assert [p.name for p in fn.params] == ["gv", "mapcell"]
        assert fn.return_type == "RoadSpeedVector"
        assert [s.name for s in fn.body] == ["cv", "t", "rsvbb"]

    def test_fig4_kernel_attribute(self):
        fn = parse_program(FIG4_MAP_MATCHING).function("match_one")
        attr = fn.body[0].attr
        assert attr is not None
        assert attr.offloaded is True
        assert attr.params["multiplicity"] == [1, 1, 1, 1]
        assert attr.params["path"] == "projection.cpp"

    def test_tail_expression_required(self):
        with pytest.raises(OwnershipError):
            lower_program_to_dfg(parse_program(
                "fn f(a: T) -> T { let b: T = g(a); }"
            ))

    def test_attribute_must_precede_let(self):
        with pytest.raises(FrontendError):
            parse_program(
                "fn f(a: T) -> T { #[kernel(offloaded = true)] g(a) }"
            )

    def test_literals_and_tuples(self):
        program = parse_program(
            'fn f(a: T) -> T { let x: U = g(a, 1, 2.5, true, "s"); h(x) }'
        )
        assert program.function("f").body[0].value.callee == "g"


class TestOwnership:
    def test_single_assignment_enforced(self):
        with pytest.raises(OwnershipError):
            check_ownership(parse_program(
                "fn f(a: T) -> T { let b: T = g(a); let b: T = g(a); b }"
            ))

    def test_undefined_use_rejected(self):
        with pytest.raises(OwnershipError):
            check_ownership(parse_program(
                "fn f(a: T) -> T { let b: T = g(missing); b }"
            ))

    def test_immutable_values_shared_freely(self):
        check_ownership(parse_program(
            "fn f(a: T) -> T { let b: T = g(a, a); let c: T = h(a, b); c }"
        ))

    def test_mutable_value_single_consumer(self):
        with pytest.raises(OwnershipError) as err:
            check_ownership(parse_program(
                "fn f(a: T) -> T { let mut m: T = g(a); "
                "let x: T = h(m); let y: T = h(m); y }"
            ))
        assert "unique borrow" in str(err.value)

    def test_fig4_is_well_formed(self):
        check_ownership(parse_program(FIG4_MAP_MATCHING))


def _fig4_executor(engine=None):
    module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
    return DataflowExecutor(module, engine).register_all({
        "projection": lambda gv, mc: gv,
        "build_trellis": lambda gv, cv, mc: gv,
        "viterbi": lambda t, cv: t,
        "interpolate": lambda rsv, mc: rsv,
    })


class TestLoweringAndExecution:
    def test_fig4_lowers_to_verified_dfg(self):
        module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
        verify(module)
        graph = module.lookup("match_one")
        nodes = [op for op in graph.regions[0].entry
                 if op.name == "dfg.node"]
        assert [n.attr("callee") for n in nodes] == [
            "projection", "build_trellis", "viterbi", "interpolate"
        ]
        assert nodes[0].attr("offloaded") is True

    def test_execution_is_deterministic(self):
        module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
        impls = {
            "projection": lambda gv, mc: [g * 2 for g in gv],
            "build_trellis": lambda gv, cv, mc: list(zip(gv, cv)),
            "viterbi": lambda t, cv: [a + b for a, b in t],
            "interpolate": lambda rsv, mc: sum(rsv),
        }
        results = set()
        for _ in range(5):
            executor = DataflowExecutor(module).register_all(impls)
            results.add(executor.run("match_one", [1.0, 2.0], {}))
        assert len(results) == 1

    def test_fig4_projection_is_placed_as_the_fpga_task(self):
        from repro.runtime import RuntimeEngine, default_cluster

        engine = RuntimeEngine(default_cluster(2))
        executor = _fig4_executor(engine)
        executor.run("match_one", [1.0], {})
        tasks = engine.graph.tasks
        assert [(r.callee, r.binding, r.offloaded) for r in executor.trace] \
            == [("projection", "cv", True), ("build_trellis", "t", False),
                ("viterbi", "rsvbb", False), ("interpolate", "", False)]
        assert [(tasks[r.task_id].name, tasks[r.task_id].resources.fpga)
                for r in executor.trace] == [
            ("cv", True), ("t", False), ("rsvbb", False),
            ("interpolate", False)]
        cv = executor.schedule.placements[executor.trace[0].task_id]
        assert engine.cluster.node(cv.node).has_fpga
        # Priced through the virtualised access path, like any FPGA task.
        from repro.runtime.virtualization import SRIOV_OVERHEAD
        assert cv.duration == pytest.approx(1e-3 * SRIOV_OVERHEAD)

    def test_registered_resources_are_the_node_cost(self):
        from repro.runtime import ResourceRequest
        from repro.runtime.virtualization import SRIOV_OVERHEAD

        executor = _fig4_executor()
        executor.register("projection", lambda gv, mc: gv,
                          resources=ResourceRequest(fpga_seconds=0.5))
        executor.register("viterbi", lambda t, cv: t,
                          resources=ResourceRequest(cpu_flops=5e9))
        executor.run("match_one", [1.0], {})
        durations = {r.callee: executor.schedule.placements[r.task_id].duration
                     for r in executor.trace}
        assert durations["projection"] == pytest.approx(0.5 * SRIOV_OVERHEAD)
        assert durations["viterbi"] == pytest.approx(2.0)  # 2.5 GFLOP/s

    def test_cluster_without_fpga_refuses_the_offloaded_node(self):
        from repro.errors import RuntimeSchedulingError
        from repro.runtime import RuntimeEngine, default_cluster

        engine = RuntimeEngine(default_cluster(2, fpgas_per_node=0))
        with pytest.raises(RuntimeSchedulingError,
                           match="'cv' requires an FPGA"):
            _fig4_executor(engine).run("match_one", [1.0], {})

    def test_raising_implementation_names_the_binding(self):
        from repro.errors import RuntimeSchedulingError

        def boom(t, cv):
            raise ValueError("no path")

        executor = _fig4_executor().register("viterbi", boom)
        with pytest.raises(RuntimeSchedulingError,
                           match="'rsvbb' raised ValueError: no path"):
            executor.run("match_one", [1.0], {})

    def test_two_graphs_share_one_engines_timelines(self):
        from repro.runtime import Cluster, Node, ResourceRequest, RuntimeEngine

        module = lower_program_to_dfg(parse_program(
            "fn f(a: T) -> T { g(a) } fn h(a: T) -> T { g(a) }"))
        engine = RuntimeEngine(Cluster([Node("solo", cores=2)]))
        whole_node = ResourceRequest(cores=2)
        tenant = engine.submit(lambda: 0, resources=whole_node)
        executor = DataflowExecutor(module, engine).register(
            "g", lambda a: a + 1, resources=whole_node)
        assert executor.run("f", 1) == 2
        placements = executor.schedule.placements
        first = placements[executor.trace[0].task_id]
        # The graph queued behind work it did not submit ...
        assert first.start >= placements[tenant.task_id].finish > 0
        assert executor.run("h", 2) == 3
        second = executor.schedule.placements[executor.trace[0].task_id]
        # ... and the second graph behind the first, in one index.
        assert second.start >= first.finish
        assert engine.timelines["solo"].committed == 3

    def test_missing_implementation_submits_nothing(self):
        from repro.errors import RuntimeSchedulingError
        from repro.runtime import RuntimeEngine, default_cluster

        module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
        engine = RuntimeEngine(default_cluster(1))
        executor = DataflowExecutor(module, engine).register(
            "projection", lambda gv, mc: gv)
        with pytest.raises(RuntimeSchedulingError, match="'build_trellis'"):
            executor.run("match_one", [1.0], {})
        assert not engine.graph.tasks

    def test_traced_run_records_one_task_span_per_node(self):
        from repro.telemetry.trace import disable, enable

        tracer = enable()
        try:
            _fig4_executor().run("match_one", [1.0], {})
        finally:
            disable()
        assert sorted(s.name for s in tracer.spans()
                      if s.name.startswith("task:")) \
            == ["task:cv", "task:interpolate", "task:rsvbb", "task:t"]

    def test_waves_expose_parallelism(self):
        program = parse_program("""
        fn f(a: T) -> T {
            let x: T = g(a);
            let y: T = h(a);
            join(x, y)
        }
        """)
        module = lower_program_to_dfg(program)
        executor = DataflowExecutor(module).register_all({
            "g": lambda a: a, "h": lambda a: a, "join": lambda x, y: x,
        })
        executor.run("f", 1)
        waves = executor.waves()
        assert waves[0] == ["g", "h"]  # independent nodes share a wave
        assert waves[1] == ["join"]

    def test_missing_implementation_reported(self):
        from repro.errors import RuntimeSchedulingError

        module = lower_program_to_dfg(parse_program(FIG4_MAP_MATCHING))
        with pytest.raises(RuntimeSchedulingError):
            DataflowExecutor(module).run("match_one", [1.0], {})


# -- the engine keeps ConDRust's contract -------------------------------------

def _random_program(seed):
    """A single-assignment program as ``(text, nodes, params)``: 2-12
    calls of random arity reading parameters, literals and earlier
    bindings, about 30 % of them ``#[kernel(offloaded = true)]``; the
    last call is the tail.  ``nodes`` is the spec the text was printed
    from, ``(binding, offloaded, operands)`` per call."""
    rng = random.Random(seed)
    params = [f"p{i}" for i in range(rng.randint(1, 3))]
    names, nodes, lines = list(params), [], []
    for i in range(rng.randint(2, 12)):
        operands = [rng.choice(names) if rng.random() < 0.85
                    else rng.randint(0, 9)
                    for _ in range(rng.randint(1, 4))]
        nodes.append((f"v{i}", rng.random() < 0.3, operands))
        names.append(f"v{i}")
    for i, (binding, offloaded, operands) in enumerate(nodes):
        call = f"f{i}({', '.join(map(str, operands))})"
        if i == len(nodes) - 1:
            lines.append(call)  # a tail call carries no attribute
            nodes[i] = (binding, False, operands)
            continue
        if offloaded:
            lines.append("#[kernel(offloaded = true)]")
        lines.append(f"let {binding}: T = {call};")
    signature = ", ".join(f"{p}: T" for p in params)
    text = f"fn main({signature}) -> T {{ {' '.join(lines)} }}"
    return text, nodes, params


def _implementation(i):
    # Sensitive to operand order and to which node computed what.
    return lambda *a: (7919 * (i + 1) + sum(
        (k + 2) * x for k, x in enumerate(a))) % 1_000_003


def _sequential_reading(nodes, params, args):
    env = dict(zip(params, args))
    for i, (binding, _, operands) in enumerate(nodes):
        env[binding] = _implementation(i)(
            *[env[o] if isinstance(o, str) else o for o in operands])
    return env[nodes[-1][0]]


def _clusters():
    from repro.platforms import alveo_u55c
    from repro.runtime import Cluster, Node, default_cluster

    return [default_cluster(1),
            Cluster([Node("n0", cores=4), Node("n2", cores=8),
                     Node("n1", cores=2, fpgas=[alveo_u55c()])])]


@pytest.mark.parametrize("policy", ["heft", "round-robin", "min-load"])
def test_engine_run_equals_the_sequential_reading(policy):
    from repro.runtime import RuntimeEngine

    clusters = _clusters()
    for seed in range(200):
        text, nodes, params = _random_program(seed)
        module = lower_program_to_dfg(parse_program(text))
        args = [seed + 11 * i for i in range(len(params))]
        expected = _sequential_reading(nodes, params, args)
        for cluster in clusters:
            runs = []
            for _ in range(2):
                engine = RuntimeEngine(cluster, policy=policy)
                executor = DataflowExecutor(module, engine)
                for i in range(len(nodes)):
                    executor.register(f"f{i}", _implementation(i))
                assert executor.run("main", *args) == expected, text
                placements = executor.schedule.placements
                assert len(executor.trace) == len(nodes) == len(placements)
                for record, (_, offloaded, _) in zip(executor.trace, nodes):
                    placement = placements[record.task_id]
                    for dep in engine.graph.tasks[record.task_id].deps:
                        assert placement.start >= placements[dep].finish, text
                    assert record.offloaded == offloaded
                    if offloaded:
                        assert cluster.node(placement.node).has_fpga, text
                runs.append([(p.node, p.start, p.finish)
                             for p in placements.values()])
            assert runs[0] == runs[1], text
