"""Integration tests of the tensor compilation pipeline.

The central invariant: for every kernel, the compiled affine loops must
produce the same numbers as the EKL interpreter (the language semantics).
"""

import numpy as np
import pytest

from repro.errors import LoweringError
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, Interpreter, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import Module, build_func, types as T, verify
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import run_affine
from repro.tensorpipe.codegen import compile_affine


def compile_to_affine(source):
    kernel = parse_kernel(source)
    m_ekl = lower_kernel_to_ekl(kernel)
    verify(m_ekl)
    m_esn = lower_ekl_to_esn(m_ekl)
    verify(m_esn)
    m_teil = lower_esn_to_teil(m_esn)
    verify(m_teil)
    m_affine = lower_teil_to_affine(m_teil)
    verify(m_affine)
    return kernel, m_affine


def assert_compiled_matches_interpreted(source, inputs):
    kernel, module = compile_to_affine(source)
    expected = Interpreter(kernel).run(inputs)
    got = run_affine(module, kernel.name, inputs)
    assert set(got) == set(expected)
    for name in expected:
        np.testing.assert_allclose(got[name], expected[name], rtol=1e-12,
                                   atol=1e-12)
    # The codegen backend must reproduce the interpreter bit-for-bit.
    executed = compile_affine(module, kernel.name).run(inputs)
    for name in expected:
        np.testing.assert_array_equal(executed[name], got[name])


class TestCrossValidation:
    def test_elementwise(self):
        assert_compiled_matches_interpreted("""
        kernel k {
          index i: 5
          input a[i]: f64
          input b[i]: f64
          output c
          c = a * b + 2.0
        }
        """, {"a": np.arange(5.0), "b": np.ones(5) * 3})

    def test_broadcast_product(self):
        assert_compiled_matches_interpreted("""
        kernel k {
          index i: 3, j: 4
          input a[i]: f64
          input b[j]: f64
          output c
          c = a * b
        }
        """, {"a": np.arange(3.0), "b": np.arange(4.0)})

    def test_einsum_contraction(self):
        rng = np.random.default_rng(0)
        assert_compiled_matches_interpreted("""
        kernel k {
          index i: 4, j: 5
          input A[i, j]: f64
          input x[j]: f64
          output y
          y = sum[j](A * x)
        }
        """, {"A": rng.normal(size=(4, 5)), "x": rng.normal(size=5)})

    def test_gather(self):
        assert_compiled_matches_interpreted("""
        kernel k {
          index i: 4
          input idx[i]: i64
          input table[9]: f64
          output c
          c = table[idx]
        }
        """, {"idx": np.array([0, 8, 3, 3]), "table": np.arange(9.0)})

    def test_select_and_compare(self):
        assert_compiled_matches_interpreted("""
        kernel k {
          index i: 6
          input a[i]: f64
          output c
          c = select(a <= 2.0, a * 10.0, a)
        }
        """, {"a": np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])})

    def test_stack_rebind(self):
        assert_compiled_matches_interpreted("""
        kernel k {
          index i: 3, t: 2
          input a[i]: i64
          input table[8]: f64
          output c
          s = [a, a + 1]
          c = table[s[i, t]]
        }
        """, {"a": np.array([0, 2, 4]), "table": np.arange(8.0)})

    def test_fig3_full_pipeline(self):
        rng = np.random.default_rng(42)
        inputs = dict(
            press=rng.uniform(0.1, 1.0, 16),
            strato=np.asarray(0.4),
            bnd=np.asarray(3),
            bnd_to_flav=rng.integers(0, 14, (2, 14)),
            j_T=rng.integers(0, 7, 16),
            j_p=rng.integers(0, 6, 16),
            j_eta=rng.integers(0, 3, (14, 16, 2)),
            r_mix=rng.uniform(0.5, 1.5, (14, 16, 2)),
            f_major=rng.uniform(0.0, 1.0, (14, 16, 2, 2, 2)),
            k_major=rng.uniform(0.0, 2.0, (8, 8, 4, 16)),
        )
        kernel, module = compile_to_affine(FIG3_MAJOR_ABSORBER)
        expected = Interpreter(kernel).run(inputs)["tau_abs"]
        got = run_affine(module, "tau_major", inputs)["tau_abs"]
        np.testing.assert_allclose(got, expected, rtol=1e-10)


class TestLoweringStructure:
    def test_affine_functions_are_loop_nests(self):
        _, module = compile_to_affine("""
        kernel k {
          index i: 3
          input a[i]: f64
          output c
          c = a + 1.0
        }
        """)
        func = module.lookup("k")
        loops = [op for op in func.walk() if op.name == "affine.for"]
        assert loops, "expected at least one loop nest"
        for loop in loops:
            body = loop.regions[0].entry
            assert body.operations[-1].name == "affine.yield"

    def test_einsum_spec_generated(self):
        kernel = parse_kernel("""
        kernel k {
          index i: 2, j: 2
          input A[i, j]: f64
          input B[i, j]: f64
          output y
          y = sum[j](A * B)
        }
        """)
        m_esn = lower_ekl_to_esn(lower_kernel_to_ekl(kernel))
        einsums = [op for op in m_esn.walk() if op.name == "esn.einsum"]
        assert len(einsums) == 1
        assert einsums[0].attr("spec") == "ab,ab->a"

    def test_einsum_that_reorders_its_output_is_refused(self):
        """EKL emits every einsum's output letters in first-use order;
        one that permutes them has no lowering and says so."""
        module = Module()
        _, _, b = build_func(module, "k", [], [])
        a = b.create("ekl.arg", [], [T.tensor_of(T.f64, 2, 3)],
                     {"axes": ["i", "j"], "name": "a"}).result
        out = b.create("esn.einsum", [a], [T.tensor_of(T.f64, 3, 2)],
                       {"axes": ["j", "i"], "spec": "ab->ba"}).result
        b.create("func.return", [out], [], {"names": ["out"]})
        with pytest.raises(LoweringError, match="'ab->ba'"):
            lower_esn_to_teil(module, canonicalize=False)
