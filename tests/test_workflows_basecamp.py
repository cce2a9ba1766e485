"""Tests for workflows and the basecamp CLI."""

import numpy as np
import pytest

from repro.basecamp.cli import main
from repro.errors import WorkflowError
from repro.frontends.condrust import FIG4_MAP_MATCHING
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.runtime import default_cluster
from repro.workflows import LexisPlatform, WorkflowSpec, WorkflowTask


class TestLexis:
    def _spec(self):
        spec = WorkflowSpec("forecast")
        spec.add(WorkflowTask("ingest", lambda: 10))
        spec.add(WorkflowTask("simulate", lambda x: x * 2,
                              after=["ingest"]))
        spec.add(WorkflowTask("predict", lambda x: x + 1,
                              after=["simulate"]))
        return spec

    def test_deploy_and_results(self):
        platform = LexisPlatform(default_cluster(2))
        platform.deploy(self._spec()).run()
        results = platform.results("forecast")
        assert results["predict"] == 21

    def test_fpga_marking_changes_placement(self):
        spec = self._spec()
        spec.mark_for_fpga("simulate", fpga_seconds=1e-3)
        assert spec.task("simulate").location == "fpga"
        platform = LexisPlatform(default_cluster(2))
        engine = platform.deploy(spec)
        schedule = engine.run()
        task = next(t for t in engine.graph.tasks.values()
                    if t.name == "simulate")
        node = schedule.placements[task.task_id].node
        assert engine.cluster.node(node).has_fpga

    def test_deploy_with_policy_selection(self):
        platform = LexisPlatform(default_cluster(2), policy="min-load")
        engine = platform.deploy(self._spec())
        assert engine.policy.name == "min-load"
        engine.run()
        assert platform.results("forecast")["predict"] == 21
        # Every deployment runs under the platform's policy.
        assert platform.deploy(self._spec()).policy.name == "min-load"

    def test_cyclic_workflow_rejected(self):
        spec = WorkflowSpec("bad")
        spec.add(WorkflowTask("a", lambda: 0, after=["b"]))
        spec.add(WorkflowTask("b", lambda: 0, after=["a"]))
        with pytest.raises(WorkflowError):
            LexisPlatform(default_cluster(1)).deploy(spec)

    def test_duplicate_task_rejected(self):
        spec = WorkflowSpec("dup")
        spec.add(WorkflowTask("a", lambda: 0))
        with pytest.raises(WorkflowError):
            spec.add(WorkflowTask("a", lambda: 0))


class TestLexisDeployOrder:
    @staticmethod
    def _chain(length):
        """A chain listed last step first."""
        spec = WorkflowSpec(f"chain{length}")
        spec.add(WorkflowTask("t0", lambda: 0))
        for i in range(1, length):
            spec.add(WorkflowTask(f"t{i}", lambda x: x + 1,
                                  after=[f"t{i - 1}"]))
        spec.tasks.reverse()
        return spec

    @staticmethod
    def _calls(fn):
        import sys

        calls = [0]

        def hook(frame, event, arg):
            if event in ("call", "c_call"):
                calls[0] += 1

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            fn()
        finally:
            sys.setprofile(previous)
        return calls[0]

    def test_reverse_listed_chain_deploys_in_linear_time(self):
        """``deploy`` rescanned the not-yet-submitted tasks after every
        sweep: 1,000 -> 2,000 reverse-listed tasks cost 4x the calls
        (0.33 s -> 1.23 s), on a route with no limit on ``tasks``."""
        platform = LexisPlatform(default_cluster(1))
        small, large = self._chain(1000), self._chain(2000)
        cost = {len(spec.tasks): self._calls(lambda: platform.deploy(spec))
                for spec in (small, large)}
        assert cost[2000] < 2.2 * cost[1000], cost
        platform.deploy(self._chain(50)).run()
        assert platform.results("chain50")["t49"] == 49

    def test_adding_tasks_costs_linear_calls(self):
        """``add`` scanned every task for a duplicate name: 2,500 ->
        5,000 -> 10,000 adds cost 0.12 -> 0.47 -> 1.92 s, two seconds of
        a daemon worker slot at ``MAX_RUNTIME_TASKS`` before the planner
        starts."""
        cost = {length: self._calls(lambda: self._chain(length))
                for length in (1000, 2000)}
        assert cost[2000] < 2.2 * cost[1000], cost
        spec = self._chain(50)
        assert spec.task("t7").after == ["t6"]
        with pytest.raises(WorkflowError, match="unknown task 'ghost'"):
            spec.task("ghost")

    def test_listed_order_is_submission_order(self):
        spec = WorkflowSpec("diamond")
        spec.add(WorkflowTask("a", lambda: 1))
        spec.add(WorkflowTask("b", lambda x: x + 1, after=["a"]))
        spec.add(WorkflowTask("c", lambda x: x * 3, after=["a"]))
        spec.add(WorkflowTask("d", lambda x, y: x + y, after=["b", "c"]))
        engine = LexisPlatform(default_cluster(2)).deploy(spec)
        assert [t.name for t in engine.graph.tasks.values()] \
            == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("after, stuck", [
        ({"b": ["ghost"], "c": ["b"]}, "['b', 'c']"),       # unknown name
        ({"b": ["c"], "c": ["b"], "d": ["a"]}, "['b', 'c']"),  # a cycle
        ({"b": ["b"]}, "['b']"),
    ])
    def test_unsatisfiable_dependencies_name_the_stuck_tasks(self, after,
                                                             stuck):
        spec = WorkflowSpec("stuck")
        for name in "abcd":
            spec.add(WorkflowTask(name, lambda *deps: name,
                                  after=after.get(name, [])))
        with pytest.raises(WorkflowError) as error:
            LexisPlatform(default_cluster(1)).deploy(spec)
        assert f"unsatisfiable dependencies: {stuck}" in str(error.value)


class TestBasecampCLI(object):
    def test_compile_report(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(FIG3_MAJOR_ABSORBER)
        assert main(["compile", str(source)]) == 0
        out = capsys.readouterr().out
        assert "kernel tau_major" in out

    def test_synthesize_with_format(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(FIG3_MAJOR_ABSORBER)
        assert main(["synthesize", str(source), "--format",
                     "fixed<8.8>"]) == 0
        assert "fixed" in capsys.readouterr().out

    def test_olympus_dse(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(FIG3_MAJOR_ABSORBER)
        assert main(["olympus", str(source)]) == 0
        out = capsys.readouterr().out
        assert "design space" in out and "selected:" in out

    SMALL_KERNEL = """
    kernel small {
      index i: 4
      input a[i]: f64
      output y
      y = a * 2.0
    }
    """

    def test_run_with_npy_inputs(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(self.SMALL_KERNEL)
        data = tmp_path / "a.npy"
        np.save(data, np.arange(4.0))
        assert main(["run", str(source), "--input", f"a={data}"]) == 0
        out = capsys.readouterr().out
        assert "backend=compiled" in out
        assert "y: shape=(4,)" in out
        assert "0." in out and "6." in out  # [0, 2, 4, 6]

    def test_run_with_random_inputs_and_time(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(FIG3_MAJOR_ABSORBER)
        assert main(["run", str(source), "--random-seed", "0",
                     "--time"]) == 0
        out = capsys.readouterr().out
        assert "tau_abs" in out
        assert "run time" in out and "x" in out

    def test_run_interpreter_backend(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(self.SMALL_KERNEL)
        assert main(["run", str(source), "--random-seed", "3",
                     "--backend", "interpreter"]) == 0
        assert "backend=interpreter" in capsys.readouterr().out

    def test_run_missing_input_is_an_error(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(self.SMALL_KERNEL)
        assert main(["run", str(source)]) == 1
        assert "missing input" in capsys.readouterr().err

    def test_run_unknown_input_name_rejected(self, tmp_path, capsys):
        source = tmp_path / "k.ekl"
        source.write_text(self.SMALL_KERNEL)
        data = tmp_path / "b.npy"
        np.save(data, np.arange(4.0))
        assert main(["run", str(source), "--random-seed", "0",
                     "--input", f"b={data}"]) == 1
        assert "unknown --input" in capsys.readouterr().err

    def test_dialects_graph(self, capsys):
        # Every Fig. 5 edge is printed, and none as [--] (no lowering).
        from repro.dialects import DIALECT_GRAPH

        assert main(["dialects"]) == 0
        edges = [line for line in capsys.readouterr().out.splitlines()
                 if " -> " in line]
        assert "  [ok] ekl -> esn" in edges
        assert edges == [f"  [ok] {source} -> {target}"
                         for source, target in DIALECT_GRAPH]

    def test_fig5_graph_is_exactly_the_registered_lowerings(self):
        from repro.dialects import DIALECT_GRAPH, registered_edges

        drawn, registered = set(DIALECT_GRAPH), set(registered_edges())
        assert drawn - registered == set(), "edges with no lowering"
        assert registered - drawn == set(), "lowerings Fig. 5 does not draw"

    def test_lowering_for_resolves_drawn_edges_only(self):
        from repro.dialects import DIALECT_GRAPH, lowering_for
        from repro.errors import LoweringError

        assert all(callable(lowering_for(*edge)) for edge in DIALECT_GRAPH)
        with pytest.raises(LoweringError, match="affine -> hw"):
            lowering_for("affine", "hw")

    def test_registry_is_exactly_the_dialects_the_sdk_builds(self):
        # A dialect is registered only if a lowering enters or leaves it
        # or the executors run it; a declared-only dialect fails here.
        from repro.dialects import DIALECT_GRAPH
        from repro.ir import REGISTRY

        on_edges = {name for edge in DIALECT_GRAPH for name in edge
                    if not name.endswith("-frontend")}
        core = {"builtin", "func", "arith", "math", "memref", "affine"}
        assert set(REGISTRY.names()) == on_edges | core

    def test_condrust(self, tmp_path, capsys):
        source = tmp_path / "m.rs"
        source.write_text(FIG4_MAP_MATCHING)
        assert main(["condrust", str(source)]) == 0
        assert "dfg.graph" in capsys.readouterr().out

    def test_detect(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = np.concatenate([rng.normal(0, 1, (120, 2)),
                               rng.normal(8, 0.5, (6, 2))])
        path = tmp_path / "d.csv"
        np.savetxt(path, data, delimiter=",")
        out = tmp_path / "report.json"
        assert main(["detect", str(path), "--output", str(out),
                     "--trials", "8"]) == 0
        assert out.exists()

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "alveo-u55c" in capsys.readouterr().out

    def test_runtime_all_policies(self, capsys):
        assert main(["runtime", "--tasks", "24", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        for policy in ("heft", "round-robin", "min-load"):
            assert policy in out
        assert "makespan" in out

    def test_runtime_single_policy_with_failure(self, capsys):
        assert main(["runtime", "--policy", "heft", "--tasks", "24",
                     "--nodes", "3", "--fail", "node1@2.0"]) == 0
        out = capsys.readouterr().out
        assert "failing node1" in out
        assert "rescheduled=" in out

    def test_runtime_bad_policy_rejected(self, capsys):
        assert main(["runtime", "--policy", "bogus"]) == 1
        assert "unknown scheduling policy" in capsys.readouterr().err

    def test_serve_verbose_is_a_usage_error(self, capsys):
        """Per-request access lines are ``--log-level debug``; the
        ``--verbose`` alias for them is gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--verbose"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        ("--tasks -1", "argument --tasks: must be at least 0"),
        ("--nodes 0", "argument --nodes: must be at least 1"),
        ("--fpga-fraction 2", "argument --fpga-fraction: must be in"),
        ("--fpga-fraction -0.1", "argument --fpga-fraction: must be in"),
        ("--fpga-fraction nan", "argument --fpga-fraction: must be in"),
        ("--fail node1@inf", "argument --fail: time must be finite"),
        ("--fail node1@nan", "argument --fail: time must be finite"),
        ("--fail node1@-1", "argument --fail: time must be finite"),
        ("--fail node1", "argument --fail: wants NODE@SIM_SECONDS"),
        ("--fail node1@fast", "argument --fail: wants NODE@SIM_SECONDS"),
        ("--fail @2.0", "argument --fail: wants NODE@SIM_SECONDS"),
    ])
    def test_runtime_bad_argument_is_a_usage_error(self, capsys, argv,
                                                   message):
        """A usage error (exit 2) naming the flag, before the banner.
        ``--tasks -1`` used to print makespan=0.000s, ``--fpga-fraction
        2`` and ``node1@inf`` (no failure at all) ran, and ``node1@nan``
        was refused as "earlier than clock.now"."""
        with pytest.raises(SystemExit) as exit_info:
            main(["runtime", *argv.split()])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("level", ["0", "1"])
    @pytest.mark.parametrize("command", ["compile", "pipeline", "run"])
    def test_opt_level_is_a_usage_error(self, capsys, tmp_path, command,
                                        level):
        """Every compile canonicalizes and fuses: there is no level to
        choose, not even the two the flag once accepted."""
        source = tmp_path / "k.ekl"
        source.write_text(FIG3_MAJOR_ABSORBER)
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(source), "--opt-level", level])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: --opt-level {level}" \
            in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("spec, reason", [
        ("node9@1.0", "name='node9': unknown node"),
    ])
    def test_runtime_impossible_failure_rejected_before_the_run(
            self, capsys, spec, reason):
        """It used to surface mid-run, after part of the workflow had
        executed."""
        assert main(["runtime", "--policy", "heft", "--nodes", "2",
                     "--fail", spec]) == 1
        captured = capsys.readouterr()
        assert reason in captured.err
        assert "makespan=" not in captured.out

    def test_error_reported_cleanly(self, capsys):
        assert main(["compile", "/nonexistent.ekl"]) == 1
        assert capsys.readouterr().err.startswith("basecamp: error: ")
