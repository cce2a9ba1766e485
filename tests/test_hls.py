"""Tests for the HLS engine: scheduling, II analysis, reports, backends."""

import random
import sys
from pathlib import Path

import pytest

from repro.errors import HLSError
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.hls import HLSEngine, cost_of, synthesize_kernel
from repro.hls import synth
from repro.hls.resources import OpCost
from repro.hls.scheduling import (BodyDFG, DFGNode, asap, build_dfg,
                                  list_schedule)
from repro.ir import Module, types as T
from repro.numerics import make_format
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT, ROOT / "tools"):  # the ``bench`` corpus, the oracles
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from oracles import list_schedule_scan  # noqa: E402


def _affine_module(source):
    kernel = parse_kernel(source)
    return kernel, lower_teil_to_affine(
        lower_esn_to_teil(lower_ekl_to_esn(lower_kernel_to_ekl(kernel)))
    )


SIMPLE = """
kernel simple {
  index i: 32
  input a[i]: f64
  input b[i]: f64
  output c
  c = a * b + a
}
"""

REDUCTION = """
kernel dotp {
  index i: 64
  input a[i]: f64
  input b[i]: f64
  output s
  s = sum[i](a * b)
}
"""


class TestCostModel:
    def test_relative_op_costs(self):
        assert cost_of("arith.divf", T.f64).latency \
            > cost_of("arith.mulf", T.f64).latency \
            > cost_of("arith.addi", T.i64).latency

    def test_precision_reduces_cost(self):
        assert cost_of("arith.mulf", T.f32).dsp \
            < cost_of("arith.mulf", T.f64).dsp

    def test_fixed_point_cheapest(self):
        fixed = cost_of("arith.mulf", T.FixedPointType(8, 8))
        assert fixed.latency <= cost_of("arith.mulf", T.f32).latency

    def test_posit_between_fixed_and_float(self):
        posit = cost_of("arith.addf", T.PositType(16, 1))
        assert posit.lut < cost_of("arith.addf", T.f64).lut


class TestScheduling:
    def test_asap_respects_dependencies(self):
        _, module = _affine_module(SIMPLE)
        func = module.lookup("simple")
        loops = [op for op in func.walk() if op.name == "affine.for"]
        body = [op for op in loops[-1].regions[0].entry
                if op.name != "affine.yield"]
        engine = HLSEngine()
        dfg = build_dfg(body, engine._element_of)
        start = asap(dfg)
        for node in dfg.nodes:
            for pred in node.preds:
                assert start[node.index] >= start[pred] \
                    + dfg.nodes[pred].cost.latency

    def test_memory_port_limit_raises_ii(self):
        _, module = _affine_module(SIMPLE)
        one_port = HLSEngine(mem_ports=1).synthesize(module, "simple")
        two_ports = HLSEngine(mem_ports=2).synthesize(module, "simple")
        assert one_port.total_cycles >= two_ports.total_cycles


def _random_dfg(seed):
    """A random body DFG: zero-latency nodes, repeated operands (an edge
    listed twice) and load/store recurrences between memory nodes."""
    rng = random.Random(seed)
    latencies = (0, 0, 1, 2, 7, 36) if seed % 2 else (1, 2, 7, 36)
    nodes = []
    for index in range(rng.randrange(1, 40)):
        node = DFGNode(index, None, OpCost(rng.choice(latencies), 1, 1),
                       rng.choice(("mem", "mem", "mem", "add", "mul", "div",
                                   "math", "cmp", "misc")))
        for _ in range(rng.randrange(4) if index else 0):
            pred = rng.randrange(max(0, index - 6), index)
            for _ in range(rng.choice((1, 1, 1, 2))):
                node.preds.append(pred)
                nodes[pred].succs.append(index)
        nodes.append(node)
    mem = [node.index for node in nodes if node.family == "mem"]
    recurrences = [(load, store) for load in mem for store in mem
                   if load < store and rng.random() < 0.2]
    return BodyDFG(nodes, recurrences)


class TestListScheduleOracle:
    """The event-driven list scheduler gives the per-cycle rescan's
    ``Schedule``, field for field."""

    @pytest.mark.parametrize("ports", [1, 2])
    def test_random_dfgs(self, ports):
        shapes = set()
        for seed in range(200):
            dfg = _random_dfg(seed)
            limits = {"mem": ports}
            if seed % 3 == 0:
                limits["mul"] = 1 + seed % 2
            assert list_schedule(dfg, limits) \
                == list_schedule_scan(dfg, limits), f"seed {seed}"
            shapes.add((any(n.cost.latency == 0 for n in dfg.nodes),
                        bool(dfg.recurrences)))
        assert shapes == {(False, False), (False, True), (True, False),
                          (True, True)}

    def test_every_nest_of_fig3_and_the_corpus(self, monkeypatch):
        from bench import gen

        nests = []

        def both(dfg, unit_limits=None):
            schedule = list_schedule(dfg, unit_limits)
            assert schedule == list_schedule_scan(dfg, unit_limits)
            nests.append(dfg.size)
            return schedule

        monkeypatch.setattr(synth, "list_schedule", both)
        sources = [FIG3_MAJOR_ABSORBER] + [
            gen.render(shape, f"shape{index}", random.Random(index))
            for index, shape in enumerate(gen.SHAPES)]
        for source in sources:
            kernel, module = _affine_module(source)
            for ports in (1, 2):
                for fmt in (None, "f32"):
                    HLSEngine(mem_ports=ports, number_format=fmt and
                              make_format(fmt)).synthesize(module,
                                                           kernel.name)
        assert len(nests) >= 4 * len(sources)


class TestUnitCounts:
    """A port or unit count that is not an integer >= 1 is refused before
    anything is scheduled."""

    @pytest.mark.parametrize("count", [0, -1, 1.5])
    def test_engine_refuses_mem_ports(self, count):
        with pytest.raises(HLSError, match=rf"mem_ports .*{count}"):
            HLSEngine(mem_ports=count)

    @pytest.mark.parametrize("count", [0, -1, 1.5])
    def test_list_schedule_refuses_unit_limits(self, count):
        _, module = _affine_module(SIMPLE)
        loops = [op for op in module.lookup("simple").walk()
                 if op.name == "affine.for"]
        body = [op for op in loops[-1].regions[0].entry
                if op.name != "affine.yield"]
        dfg = build_dfg(body, HLSEngine()._element_of)
        with pytest.raises(HLSError,
                           match=rf"unit_limits\['mem'\] .*{count}"):
            list_schedule(dfg, {"mem": count})


class TestSynthesis:
    def test_report_structure(self):
        _, module = _affine_module(SIMPLE)
        report = synthesize_kernel(module, "simple")
        assert report.total_cycles > 0
        assert report.resources.lut > 0
        assert report.bytes_in == 2 * 32 * 8
        assert report.bytes_out == 32 * 8
        assert "kernel simple" in report.summary()

    def test_reduction_carries_recurrence(self):
        _, module = _affine_module(REDUCTION)
        report = synthesize_kernel(module, "dotp")
        # The accumulation nest must be recurrence-bound (f64 add > 1).
        assert any(nest.rec_mii > 1 for nest in report.nests)

    def test_format_sweep_monotone(self):
        _, module = _affine_module(FIG3_MAJOR_ABSORBER)
        f64 = synthesize_kernel(module, "tau_major")
        f32 = synthesize_kernel(module, "tau_major",
                                number_format=make_format("f32"))
        fixed = synthesize_kernel(module, "tau_major",
                                  number_format=make_format("fixed<8.8>"))
        assert f32.total_cycles < f64.total_cycles
        assert fixed.total_cycles < f64.total_cycles
        assert f32.resources.dsp < f64.resources.dsp

    def test_non_affine_function_rejected(self):
        module = Module()
        from repro.ir import build_func

        _, _, fb = build_func(module, "plain", [], [])
        fb.create("func.return", [])
        with pytest.raises(HLSError):
            synthesize_kernel(module, "plain")

    def test_latency_seconds_scales_with_clock(self):
        _, module = _affine_module(SIMPLE)
        slow = HLSEngine(clock_mhz=150).synthesize(module, "simple")
        fast = HLSEngine(clock_mhz=300).synthesize(module, "simple")
        assert slow.latency_seconds == pytest.approx(
            2 * fast.latency_seconds
        )


class TestExecutorCrossCheck:
    def test_flop_counts_agree_on_simple_kernel(self):
        from repro.tensorpipe.codegen import count_flops

        _, module = _affine_module(SIMPLE)
        report = synthesize_kernel(module, "simple")
        assert report.flops == count_flops(module.lookup("simple"))
        assert report.flops == 32 * 2  # one mul nest + one add nest

    def test_flop_counts_agree_on_reduction(self):
        from repro.tensorpipe.codegen import count_flops

        _, module = _affine_module(REDUCTION)
        report = synthesize_kernel(module, "dotp")
        assert report.flops == count_flops(module.lookup("dotp"))

    def test_flop_counts_agree_on_fig3(self):
        from repro.tensorpipe.codegen import count_flops

        _, module = _affine_module(FIG3_MAJOR_ABSORBER)
        report = synthesize_kernel(module, "tau_major")
        assert report.flops > 0
        assert report.flops == count_flops(module.lookup("tau_major"))
