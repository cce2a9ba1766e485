"""Tests for the compiled affine executor (codegen -> vectorized numpy).

The central contract: :func:`repro.tensorpipe.codegen.compile_affine`
produces a kernel whose float64 results are *bit-for-bit* identical to
:class:`repro.tensorpipe.affine_interp.AffineInterpreter` — on the golden
kernels, on hand-built precision-cast modules and on 200 fuzz-generated
kernels, at optimization levels 0, 1 and 2.
"""

import os
import sys

import numpy as np
import pytest

from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import Builder, CanonicalizePass, verify
from repro.ir import types as T
from repro.ir.core import Block, Module, Operation, Region
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import run_affine
from repro.tensorpipe.codegen import compile_affine, count_flops

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))
from irfuzz import check_executor, generate_ekl_case  # noqa: E402


def compile_raw(source):
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
    return kernel, module


def optimized(module, opt_level):
    if opt_level == 0:
        return module
    clone = module.clone()
    CanonicalizePass().run(clone)
    return clone


def assert_bitwise_match(module, name, inputs):
    expected = run_affine(module, name, inputs)
    compiled = compile_affine(module, name)
    got = compiled.run(inputs)
    assert set(got) == set(expected)
    for key in expected:
        np.testing.assert_array_equal(
            got[key], expected[key],
            err_msg=f"compiled executor diverges on {key!r}")
    return compiled


ELEMENTWISE = """
kernel k {
  index i: 5
  input a[i]: f64
  input b[i]: f64
  output c
  c = a * b + 2.0
}
"""

CONTRACTION = """
kernel k {
  index i: 4, j: 5
  input A[i, j]: f64
  input x[j]: f64
  output y
  y = sum[j](A * x)
}
"""

GATHER = """
kernel k {
  index i: 4
  input idx[i]: i64
  input table[9]: f64
  output c
  c = table[idx]
}
"""

FULL_REDUCTION = """
kernel k {
  index i: 7
  input a[i]: f64
  output s
  s = sum[i](a * a)
}
"""


class TestCompiledExecutor:
    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_elementwise_bitwise(self, opt_level):
        _, module = compile_raw(ELEMENTWISE)
        module = optimized(module, opt_level)
        compiled = assert_bitwise_match(
            module, "k", {"a": np.arange(5.0), "b": np.ones(5) * 3})
        assert compiled.backend == "compiled"
        assert compiled.vectorized_nests > 0

    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_contraction_bitwise(self, opt_level):
        rng = np.random.default_rng(0)
        _, module = compile_raw(CONTRACTION)
        module = optimized(module, opt_level)
        assert_bitwise_match(module, "k", {"A": rng.normal(size=(4, 5)),
                                           "x": rng.normal(size=5)})

    def test_reduction_order_is_sequential_not_pairwise(self):
        # The sequential left-fold the interpreter performs is NOT what
        # np.sum computes (pairwise); bit-equality therefore demonstrates
        # the vectorizer kept reduction dimensions sequential.
        rng = np.random.default_rng(7)
        values = rng.normal(size=7) * 1e8 + rng.normal(size=7)
        _, module = compile_raw(FULL_REDUCTION)
        expected = run_affine(module, "k", {"a": values})["s"]
        got = compile_affine(module, "k").run({"a": values})["s"]
        np.testing.assert_array_equal(got, expected)
        sequential = np.float64(0.0)
        for v in np.asarray(values, dtype=np.float64):
            sequential = sequential + v * v
        np.testing.assert_array_equal(got, sequential)

    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_gather_advanced_indexing(self, opt_level):
        _, module = compile_raw(GATHER)
        module = optimized(module, opt_level)
        compiled = assert_bitwise_match(
            module, "k",
            {"idx": np.array([0, 8, 3, 3]), "table": np.arange(9.0)})
        assert compiled.backend == "compiled"

    @pytest.mark.parametrize("opt_level", [0, 1])
    def test_fig3_bitwise(self, opt_level, rrtmg_inputs):
        _, module = compile_raw(FIG3_MAJOR_ABSORBER)
        module = optimized(module, opt_level)
        compiled = assert_bitwise_match(module, "tau_major", rrtmg_inputs)
        assert compiled.backend == "compiled"
        assert compiled.scalar_nests == 0, \
            "every Fig. 3 nest should vectorize"

    def test_sum_result_reused_in_broadcast(self):
        # Regression: esn.reduce keeps reduction *positions* in its axes
        # attribute; broadcasting a sum result used to read them as axis
        # labels and miscompile (found by the executor fuzzer, seed 3).
        source = """
        kernel k {
          index i: 6
          input a[i]: f64
          output y
          s = sum[i](a)
          y = a * s
        }
        """
        kernel, module = compile_raw(source)
        rng = np.random.default_rng(5)
        inputs = {"a": rng.uniform(-1, 1, 6)}
        from repro.frontends.ekl import Interpreter

        expected = Interpreter(kernel).run(inputs)["y"]
        got = run_affine(module, "k", inputs)["y"]
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        assert_bitwise_match(module, "k", inputs)


class TestPrecisionCasts:
    def _cast_module(self):
        """f64 -> truncf f32 -> arith -> extf f64 round-trip function."""
        module = Module()
        in_ref = T.MemRefType((4,), T.f64)
        out_ref = T.MemRefType((4,), T.f64)
        entry = Block([in_ref, out_ref])
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": "cast", "function_type":
             T.FunctionType((in_ref, out_ref), ()),
             "kernel_lang": "affine", "arg_names": ["a", "y"],
             "num_outputs": 1},
            [Region([entry])],
        )
        module.append(func)
        builder = Builder.at_end(entry)
        body = Block([T.index])
        builder.create("affine.for", [], [],
                       {"lower": 0, "upper": 4, "step": 1},
                       [Region([body])])
        inner = Builder.at_end(body)
        loaded = inner.create("memref.load", [entry.args[0], body.args[0]],
                              [T.f64]).result
        narrowed = inner.create("arith.truncf", [loaded], [T.f32]).result
        third = inner.create("arith.constant", [], [T.f32],
                             {"value": 1.0 / 3.0}).result
        scaled = inner.create("arith.mulf", [narrowed, third],
                              [T.f32]).result
        widened = inner.create("arith.extf", [scaled], [T.f64]).result
        inner.create("memref.store",
                     [widened, entry.args[1], body.args[0]], [])
        inner.create("affine.yield", [], [])
        builder.create("func.return", [], [])
        verify(module)
        return module

    def test_truncf_rounds_through_f32(self):
        module = self._cast_module()
        values = np.array([1.1, -2.7, 1e-9, 1234.56789])
        out = run_affine(module, "cast", {"a": values})["y"]
        expected = (values.astype(np.float32)
                    * np.float32(1.0 / 3.0)).astype(np.float64)
        np.testing.assert_array_equal(out, expected)
        # A pure-f64 evaluation differs: the cast is not a no-op.
        assert not np.array_equal(out, values * (1.0 / 3.0))

    def test_compiled_matches_interpreter_on_casts(self):
        module = self._cast_module()
        values = np.array([1.1, -2.7, 1e-9, 1234.56789])
        compiled = assert_bitwise_match(module, "cast", {"a": values})
        assert compiled.backend == "compiled"


class TestCompilerMechanics:
    def test_source_has_no_python_loops_for_elementwise(self):
        _, module = compile_raw(ELEMENTWISE)
        compiled = compile_affine(module, "k")
        assert compiled.backend == "compiled"
        assert "for " not in compiled.source

    def test_reduction_keeps_sequential_loop(self):
        _, module = compile_raw(CONTRACTION)
        compiled = compile_affine(module, "k")
        assert "for " in compiled.source  # the reduced axis stays a loop

    def test_direct_compile_builds_a_new_kernel_every_time(self):
        # The session's stage cache is the only place a kernel is kept.
        _, module = compile_raw(ELEMENTWISE)
        first = compile_affine(module, "k")
        second = compile_affine(module, "k")
        assert first is not second
        assert first.source == second.source
        inputs = {"a": np.linspace(-2.0, 3.0, 5), "b": np.arange(5.0)}
        one, two = first.run(inputs), second.run(inputs)
        assert one.keys() == two.keys()
        for name in one:
            assert one[name].tobytes() == two[name].tobytes()

    def test_unsupported_op_falls_back_to_interpreter(self):
        module = Module()
        ref = T.MemRefType((2,), T.f64)
        entry = Block([ref])
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": "odd", "function_type": T.FunctionType((ref,), ()),
             "kernel_lang": "affine", "arg_names": ["y"], "num_outputs": 1},
            [Region([entry])],
        )
        module.append(func)
        builder = Builder.at_end(entry)
        builder.create("exotic.op", [], [])
        builder.create("func.return", [], [])
        compiled = compile_affine(module, "odd")
        assert compiled.backend == "interpreter"
        assert compiled.source == ""

    def test_flop_count_matches_loop_structure(self):
        _, module = compile_raw(ELEMENTWISE)
        func = module.lookup("k")
        # One mul nest and one add nest over 5 elements; broadcast/copy
        # traffic contributes no FLOPs.
        assert count_flops(func) == 5 * 2

    def test_negative_step_loop_still_executes(self):
        # count_flops rejects negative steps (no static model), but that
        # must degrade gracefully — never leak UnsupportedAffineOp.
        module = Module()
        ref = T.MemRefType((4,), T.f64)
        entry = Block([ref])
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": "countdown",
             "function_type": T.FunctionType((ref,), ()),
             "kernel_lang": "affine", "arg_names": ["y"],
             "num_outputs": 1},
            [Region([entry])],
        )
        module.append(func)
        builder = Builder.at_end(entry)
        body = Block([T.index])
        builder.create("affine.for", [], [],
                       {"lower": 3, "upper": -1, "step": -1},
                       [Region([body])])
        inner = Builder.at_end(body)
        cast = inner.create("arith.index_cast", [body.args[0]],
                            [T.f64]).result
        inner.create("memref.store", [cast, entry.args[0], body.args[0]],
                     [])
        inner.create("affine.yield", [], [])
        builder.create("func.return", [], [])
        verify(module)
        compiled = compile_affine(module, "countdown")
        assert compiled.flops == 0
        got = compiled.run({})["y"]
        expected = run_affine(module, "countdown", {})["y"]
        np.testing.assert_array_equal(got, expected)

    def test_compiled_kernel_str(self):
        _, module = compile_raw(ELEMENTWISE)
        compiled = compile_affine(module, "k")
        text = str(compiled)
        assert "backend=compiled" in text and "k" in text

    def test_missing_input_raises(self):
        from repro.errors import EverestError

        _, module = compile_raw(ELEMENTWISE)
        compiled = compile_affine(module, "k")
        with pytest.raises(EverestError):
            compiled.run({"a": np.arange(5.0)})


class TestExecutorFuzz:
    """The 200-seed differential campaign (ISSUE 4 acceptance)."""

    @pytest.mark.parametrize("seed", range(200))
    def test_compiled_matches_interpreter(self, seed):
        check_executor(seed)

    def test_generated_kernels_are_diverse(self):
        sources = [generate_ekl_case(seed)[0] for seed in range(50)]
        assert len(set(sources)) == len(sources)
        joined = "\n".join(sources)
        for construct in ("sum[", "select(", "table[idx", "exp(", "/"):
            assert construct in joined, f"fuzz never generates {construct}"
