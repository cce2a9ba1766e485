"""Tests for the elementwise buffer-fusion pass (repro.ir.fusion).

The pass merges producer nests into their single consumer so the
compiled executor emits one fused expression per region.  Its contract:
fusing never changes a single bit of any output (float64), never fuses
a buffer with more than one reader, never crosses a reduction store,
and never moves a read past an interfering write.
"""

import ast
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import Builder, CanonicalizePass, FusionPass, verify
from repro.ir import types as T
from repro.ir.core import Block, Module, Operation, Region
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import run_affine
from repro.tensorpipe.codegen import compile_affine

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "..",
                                "tools"))
from irfuzz import check_executor, generate_ekl_case  # noqa: E402


def lower_raw(source):
    kernel = parse_kernel(source)
    module = lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                             canonicalize=False),
            canonicalize=False,
        ),
        canonicalize=False,
    )
    verify(module)
    return kernel.name, module


def fuse(module):
    """Run :class:`FusionPass` once; returns the number of fused buffers."""
    fusion = FusionPass()
    fusion.run(module)
    return fusion.fused


def fuse_and_check(source, inputs):
    """Run fusion after canonicalization; assert bitwise-identical
    results through the interpreter AND the compiled backend.  Returns
    the number of fused buffers."""
    name, module = lower_raw(source)
    CanonicalizePass().run(module)
    before = run_affine(module, name, inputs)
    fused_module = module.clone()
    fused = fuse(fused_module)
    verify(fused_module)
    after = run_affine(fused_module, name, inputs)
    compiled = compile_affine(fused_module, name)
    ran = compiled.run(inputs)
    assert set(after) == set(before)
    for key in before:
        np.testing.assert_array_equal(after[key], before[key])
        np.testing.assert_array_equal(ran[key], before[key])
    return fused


def count_allocs(module):
    count = 0

    def walk(op):
        nonlocal count
        if op.name == "memref.alloc":
            count += 1
        for region in op.regions:
            for block in region.blocks:
                for inner in block.operations:
                    walk(inner)

    for op in module.body.operations:
        walk(op)
    return count


CHAIN = """
kernel chain {
  index i: 11
  input a[i]: f64
  input b[i]: f64
  output out
  t0 = a * b + a
  t1 = t0 * t0 - b
  out = t1 + 1.0
}
"""

MULTI_USE = """
kernel multi {
  index i: 9
  input a[i]: f64
  output out
  t0 = a * a + 1.0
  out = t0 * t0 + t0
}
"""

REDUCTION_PRODUCER = """
kernel red {
  index i: 6
  input a[i]: f64
  output out
  s = sum[i](a * a)
  out = a + s
}
"""

INTO_REDUCTION = """
kernel intored {
  index i: 8, j: 5
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t = a * b - a
  out = sum[j](t * b)
}
"""

DAG = """
kernel dag {
  index i: 7
  input a[i]: f64
  input b[i]: f64
  output out
  u = a + b
  v = a - b
  out = u * v
}
"""


class TestFuses:
    def test_elementwise_chain_fuses(self):
        rng = np.random.default_rng(0)
        inputs = {"a": rng.normal(size=11), "b": rng.normal(size=11)}
        assert fuse_and_check(CHAIN, inputs) >= 1

    def test_dag_of_single_use_intermediates_fuses(self):
        rng = np.random.default_rng(1)
        inputs = {"a": rng.normal(size=7), "b": rng.normal(size=7)}
        assert fuse_and_check(DAG, inputs) >= 2

    def test_elementwise_into_reduction_fuses(self):
        rng = np.random.default_rng(2)
        inputs = {"a": rng.normal(size=(8, 5)), "b": rng.normal(size=(8, 5))}
        assert fuse_and_check(INTO_REDUCTION, inputs) >= 1

    def test_fusion_removes_intermediate_allocs(self):
        name, module = lower_raw(CHAIN)
        CanonicalizePass().run(module)
        before = count_allocs(module)
        fused = fuse(module)
        verify(module)
        assert fused > 0
        assert count_allocs(module) == before - fused

    def test_pass_reports_count(self):
        _, module = lower_raw(CHAIN)
        CanonicalizePass().run(module)
        fusion = FusionPass()
        fusion.run(module)
        assert fusion.fused > 0
        assert fusion.name == "fuse-elementwise"

    def test_fixpoint_second_run_is_noop(self):
        _, module = lower_raw(CHAIN)
        CanonicalizePass().run(module)
        assert fuse(module) > 0
        assert fuse(module) == 0


def alloc_footprint(module):
    """``(count, bytes)`` of the module's ``memref.alloc`` buffers."""
    types = [op.results[0].type for op in module.walk()
             if op.name == "memref.alloc"]
    return len(types), sum(
        ty.num_elements() * T.bitwidth(ty.element) // 8 for ty in types)


def _bench_chain():
    """``CHAIN`` of benchmarks/bench_affine_exec.py, read from its source
    (importing it needs the benchmarks' conftest)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" \
        / "bench_affine_exec.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and \
                [getattr(t, "id", None) for t in node.targets] == ["CHAIN"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CHAIN in {path}")


class TestExactCounts:
    """What fusion does to a chain, counted: buffers fused and the
    ``memref.alloc`` bytes before and after.  The wall-clock gate of
    ``make bench-exec`` measures what these save; these pin that it is
    saved, on every run."""

    @pytest.mark.parametrize("source, fused, before, after", [
        (CHAIN, 3, (5, 440), (2, 176)),
        (_bench_chain(), 5, (11, 97_200_000), (6, 49_200_000)),
    ], ids=["test-chain", "bench-chain-150000x8"])
    def test_buffers_and_bytes(self, source, fused, before, after):
        _, module = lower_raw(source)
        CanonicalizePass().run(module)
        assert alloc_footprint(module) == before
        fusion = FusionPass()
        fusion.run(module)
        verify(module)
        assert fusion.fused == fused
        assert alloc_footprint(module) == after


class TestDoesNotFuse:
    def test_multi_use_intermediate_not_fused(self):
        # t0 feeds two loads; duplicating its computation would be legal
        # but is not this pass's job — it must refuse.
        rng = np.random.default_rng(3)
        inputs = {"a": rng.normal(size=9)}
        name, module = lower_raw(MULTI_USE)
        CanonicalizePass().run(module)
        before = count_allocs(module)
        fuse(module)
        verify(module)
        # The chain around t0*t0+t0 still fuses its single-use pieces,
        # but the t0 buffer itself (3 uses: 1 store + 2 loads) survives.
        assert count_allocs(module) >= 1
        out = run_affine(module, name, inputs)["out"]
        t0 = inputs["a"] * inputs["a"] + 1.0
        np.testing.assert_allclose(out, t0 * t0 + t0, rtol=1e-12)
        assert before > count_allocs(module) >= 1

    def test_reduction_producer_not_fused(self):
        # A sum buffer is written by two nests (zero-fill + accumulate);
        # the accumulate store does not cover the nest IVs.  Fusing it
        # into its consumer would replay the whole reduction per element.
        rng = np.random.default_rng(4)
        inputs = {"a": rng.normal(size=6)}
        name, module = lower_raw(REDUCTION_PRODUCER)
        CanonicalizePass().run(module)
        before = run_affine(module, name, inputs)
        fuse(module)
        verify(module)
        after = run_affine(module, name, inputs)
        np.testing.assert_array_equal(after["out"], before["out"])
        # The reduction accumulator alloc must survive.
        assert count_allocs(module) >= 1

    def test_interfering_write_blocks_fusion(self):
        # Hand-built: src is a scratch copy of a (kernels never write
        # their inputs); nest 1 computes buf = src * 2; nest 2 overwrites
        # src; nest 3 reads buf.  Moving nest 1's read of `src` into
        # nest 3 would observe the overwrite — fusion must refuse.
        module = Module()
        ref = T.MemRefType((4,), T.f64)
        entry = Block([ref, ref])
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": "hazard",
             "function_type": T.FunctionType((ref, ref), ()),
             "kernel_lang": "affine", "arg_names": ["a", "y"],
             "num_outputs": 1},
            [Region([entry])],
        )
        module.append(func)
        builder = Builder.at_end(entry)
        a_arg, y_arg = entry.args
        src = builder.create("memref.alloc", [], [ref]).result
        builder.create("memref.copy", [a_arg, src], [])
        buf = builder.create("memref.alloc", [], [ref]).result

        def nest(emit):
            body = Block([T.index])
            builder.create("affine.for", [], [],
                           {"lower": 0, "upper": 4, "step": 1},
                           [Region([body])])
            emit(Builder.at_end(body), body.args[0])

        def produce(inner, iv):
            loaded = inner.create("memref.load", [src, iv], [T.f64]).result
            two = inner.create("arith.constant", [], [T.f64],
                               {"value": 2.0}).result
            scaled = inner.create("arith.mulf", [loaded, two],
                                  [T.f64]).result
            inner.create("memref.store", [scaled, buf, iv], [])
            inner.create("affine.yield", [], [])

        def clobber(inner, iv):
            zero = inner.create("arith.constant", [], [T.f64],
                                {"value": 0.0}).result
            inner.create("memref.store", [zero, src, iv], [])
            inner.create("affine.yield", [], [])

        def consume(inner, iv):
            loaded = inner.create("memref.load", [buf, iv], [T.f64]).result
            inner.create("memref.store", [loaded, y_arg, iv], [])
            inner.create("affine.yield", [], [])

        nest(produce)
        nest(clobber)
        nest(consume)
        builder.create("func.return", [], [])
        verify(module)

        values = np.array([1.0, 2.0, 3.0, 4.0])
        before = run_affine(module, "hazard", {"a": values})["y"]
        np.testing.assert_array_equal(before, values * 2.0)
        assert fuse(module) == 0
        verify(module)
        after = run_affine(module, "hazard", {"a": values})["y"]
        np.testing.assert_array_equal(after, before)


class TestDtypeEdges:
    def _cast_chain_module(self):
        """Producer stores f32 (truncf), consumer widens back to f64 —
        fusion must keep the rounding through the narrow type."""
        module = Module()
        in_ref = T.MemRefType((6,), T.f64)
        mid_ref = T.MemRefType((6,), T.f32)
        out_ref = T.MemRefType((6,), T.f64)
        module_entry = Block([in_ref, out_ref])
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": "cast_chain",
             "function_type": T.FunctionType((in_ref, out_ref), ()),
             "kernel_lang": "affine", "arg_names": ["a", "y"],
             "num_outputs": 1},
            [Region([module_entry])],
        )
        module.append(func)
        builder = Builder.at_end(module_entry)
        a_arg, y_arg = module_entry.args
        mid = builder.create("memref.alloc", [], [mid_ref]).result

        body1 = Block([T.index])
        builder.create("affine.for", [], [],
                       {"lower": 0, "upper": 6, "step": 1},
                       [Region([body1])])
        inner = Builder.at_end(body1)
        loaded = inner.create("memref.load", [a_arg, body1.args[0]],
                              [T.f64]).result
        third = inner.create("arith.constant", [], [T.f64],
                             {"value": 1.0 / 3.0}).result
        scaled = inner.create("arith.mulf", [loaded, third], [T.f64]).result
        narrowed = inner.create("arith.truncf", [scaled], [T.f32]).result
        inner.create("memref.store", [narrowed, mid, body1.args[0]], [])
        inner.create("affine.yield", [], [])

        body2 = Block([T.index])
        builder.create("affine.for", [], [],
                       {"lower": 0, "upper": 6, "step": 1},
                       [Region([body2])])
        inner = Builder.at_end(body2)
        got = inner.create("memref.load", [mid, body2.args[0]],
                           [T.f32]).result
        widened = inner.create("arith.extf", [got], [T.f64]).result
        inner.create("memref.store", [widened, y_arg, body2.args[0]], [])
        inner.create("affine.yield", [], [])
        builder.create("func.return", [], [])
        verify(module)
        return module

    def test_dtype_change_chain_fuses_and_keeps_rounding(self):
        module = self._cast_chain_module()
        values = np.array([1.1, -2.7, 1e-9, 1234.56789, 0.0, -0.5])
        before = run_affine(module, "cast_chain", {"a": values})["y"]
        fused = fuse(module)
        verify(module)
        assert fused == 1
        after = run_affine(module, "cast_chain", {"a": values})["y"]
        np.testing.assert_array_equal(after, before)
        # The f32 rounding is observable: fusion must not have widened
        # the intermediate into pure-f64 arithmetic.
        pure = values * (1.0 / 3.0)
        assert not np.array_equal(after, pure)
        compiled = compile_affine(module, "cast_chain")
        np.testing.assert_array_equal(
            compiled.run({"a": values})["y"], before)


class TestPipelineIntegration:
    def test_session_reports_fusion_event(self, tracer):
        from repro.pipeline.session import PipelineSession

        session = PipelineSession()
        session.lower(CHAIN, opt_level=1)
        fuse, = [span for span in tracer.spans()
                 if span.name == "canonicalize/fuse"]
        assert fuse.category == "pass"
        assert fuse.attrs["detail"].endswith("buffer(s)")

    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_session_execute_matches_interpreter(self, opt_level):
        from repro.pipeline.session import PipelineSession

        rng = np.random.default_rng(6)
        inputs = {"a": rng.normal(size=11), "b": rng.normal(size=11)}
        session = PipelineSession()
        got = session.execute(CHAIN, inputs, backend="compiled",
                              opt_level=opt_level)
        ref = session.execute(CHAIN, inputs, backend="interpreter",
                              opt_level=opt_level)
        np.testing.assert_array_equal(got.outputs["out"],
                                      ref.outputs["out"])


def _scalar_filled_allocs(module):
    """Buffers whose every store sits in a loop nest and writes a value
    defined outside it (next to the alloc), other than an output's
    source: the fill nest of a scalar broadcast."""
    found = []
    for op in module.walk():
        if op.name != "memref.alloc":
            continue
        uses = op.results[0].uses
        if any(user.name == "memref.copy" for user, _ in uses):
            continue
        stores = [user for user, idx in uses
                  if user.name == "memref.store" and idx == 1]
        if stores and all(
                store.parent is not op.parent and
                getattr(store.operands[0].owner_op(), "parent", None)
                is op.parent for store in stores):
            found.append(op)
    return found


class TestScalarBroadcast:
    """A broadcast of a scalar lowers to the scalar itself: no buffer and
    no fill nest for fusion to delete afterwards."""

    @pytest.mark.parametrize("seed", range(0, 400, 4))
    def test_raw_lowering_fills_no_buffer_with_a_scalar(self, seed):
        source, _ = generate_ekl_case(seed)
        _, module = lower_raw(source)
        assert _scalar_filled_allocs(module) == []

    def test_fig3_raw_lowering_fills_no_buffer_with_a_scalar(self):
        _, module = lower_raw(FIG3_MAJOR_ABSORBER)
        assert _scalar_filled_allocs(module) == []

    def test_a_returned_scalar_broadcast_keeps_its_buffer(self):
        source = """
kernel k {
  index i: 4, j: 3
  input a[i, j]: f64
  output out
  out = select(a <= 1.0, 2.0, 2.0)
}
"""
        from repro.pipeline import PipelineSession

        inputs = {"a": np.arange(12.0).reshape(4, 3)}
        for opt_level in (0, 1):
            for backend in ("interpreter", "compiled", "cbackend"):
                got = PipelineSession().execute(
                    source, inputs, backend=backend, opt_level=opt_level)
                np.testing.assert_array_equal(got.outputs["out"],
                                              np.full((4, 3), 2.0))

    def test_fig3_is_smaller_and_bitwise_unchanged(self, rrtmg_inputs):
        """172 ops and a 3,728-byte C arena while a scalar broadcast
        still built a buffer; its fill nest now never exists."""
        from repro.pipeline import PipelineSession

        session = PipelineSession()
        module = session.lower(FIG3_MAJOR_ABSORBER).module
        assert sum(1 for _ in module.walk()) == 165
        expected = session.execute(FIG3_MAJOR_ABSORBER, rrtmg_inputs,
                                   backend="interpreter").outputs
        for backend in ("compiled", "cbackend"):
            result = session.execute(FIG3_MAJOR_ABSORBER, rrtmg_inputs,
                                     backend=backend)
            for name, value in expected.items():
                np.testing.assert_array_equal(result.outputs[name], value)
        kernel = result.kernel
        if kernel.backend == "cbackend":
            assert kernel.arena_bytes == 3600

    @pytest.mark.parametrize("seed, ops, arena_bytes", [
        (103, 25, 80),    # 31 ops and 120 bytes with the broadcast buffer
        (386, 22, 960),   # 32 ops and 1,920 bytes
    ])
    def test_fuzz_kernels_that_read_a_broadcast_twice(self, seed, ops,
                                                      arena_bytes):
        """Two loads read the broadcast, so fusion could not remove its
        buffer; the lowering no longer builds one."""
        from repro.pipeline import PipelineSession

        source, _ = generate_ekl_case(seed)
        result = PipelineSession().compile(source)
        assert sum(1 for _ in result.module.walk()) == ops
        assert result.report.planned_arena_bytes == arena_bytes
        for backend in ("compiled", "cbackend"):
            check_executor(seed, backend=backend)
