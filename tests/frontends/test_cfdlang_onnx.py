"""Tests for the CFDlang frontend: interpreter and compiled path."""

import numpy as np
import pytest

from repro.errors import FrontendError, TypeCheckError
from repro.frontends.cfdlang import (
    lower_cfdlang_to_teil,
    lower_program_to_cfdlang,
    parse_program,
    run_program,
)
from repro.ir import verify, verify_typed
from repro.tensorpipe import lower_teil_to_affine
from repro.tensorpipe.affine_interp import run_affine
from repro.tensorpipe.backends import resolve_backend


class TestCFDlangInterp:
    def test_matrix_vector_contraction(self):
        program = parse_program("""
        var input A : [4 5]
        var input x : [5]
        var output y : [4]
        y = (A # x) . [[2 3]]
        """)
        rng = np.random.default_rng(0)
        A, x = rng.normal(size=(4, 5)), rng.normal(size=5)
        out = run_program(program, {"A": A, "x": x})
        np.testing.assert_allclose(out["y"], A @ x)

    def test_elementwise_ops(self):
        program = parse_program("""
        var input a : [3]
        var input b : [3]
        var output c : [3]
        c = a * b + a
        """)
        out = run_program(program, {"a": [1, 2, 3], "b": [4, 5, 6]})
        np.testing.assert_allclose(out["c"], [5, 12, 21])

    def test_trace(self):
        program = parse_program("""
        var input M : [3 3]
        var output t : []
        t = M . [[1 2]]
        """)
        M = np.arange(9.0).reshape(3, 3)
        out = run_program(program, {"M": M})
        assert out["t"] == np.trace(M)

    def test_shape_mismatch_rejected(self):
        program = parse_program("""
        var input a : [3]
        var output c : [4]
        c = a
        """)
        with pytest.raises(TypeCheckError):
            run_program(program, {"a": [1, 2, 3]})

    def test_contraction_unequal_extents_rejected(self):
        program = parse_program("""
        var input A : [3 4]
        var output t : []
        t = A . [[1 2]]
        """)
        with pytest.raises(TypeCheckError):
            run_program(program, {"A": np.zeros((3, 4))})


class TestCFDlangRefusals:
    """Bad CFDlang text is a :class:`FrontendError` at the offending
    token: extents and contraction pairs are integers, and a declared
    name is an identifier."""

    @pytest.mark.parametrize("source, message", [
        ("var input a : [2.5]", "1:16: expected 'int', found '2.5'"),
        ("var input a : [2 2]\nvar output b : []\nb = a . [[x 1]]",
         "3:11: expected 'int', found 'x'"),
        ("var input 3 : [2]", "1:11: expected 'ident', found '3'"),
        ("var input a : [2]\nvar output b : [2]\nb = a $ a",
         "3:7: unexpected character '$'"),
    ], ids=["float-extent", "name-in-contraction", "numeric-name",
            "bad-character"])
    def test_refusal_names_line_and_column(self, source, message):
        with pytest.raises(FrontendError) as err:
            parse_program(source)
        assert str(err.value) == message


class TestCFDlangCompiled:
    def test_compiled_path_matches_interpreter(self):
        source = """
        var input A : [4 5]
        var input x : [5]
        var output y : [4]
        y = (A # x) . [[2 3]]
        """
        program = parse_program(source)
        rng = np.random.default_rng(1)
        inputs = {"A": rng.normal(size=(4, 5)), "x": rng.normal(size=5)}
        expected = run_program(program, inputs)["y"]
        m1 = lower_program_to_cfdlang(program, "mv")
        verify(m1)
        m2 = lower_cfdlang_to_teil(m1)
        verify(m2)
        m3 = lower_teil_to_affine(m2)
        verify(m3)
        got = run_affine(m3, "mv", inputs)["y"]
        np.testing.assert_allclose(got, expected)
        # The compiled executor must agree with the interpreter
        # bit-for-bit (including the diagonal loads contractions emit).
        from repro.tensorpipe.codegen import compile_affine

        compiled = compile_affine(m3, "mv")
        assert compiled.backend == "compiled"
        np.testing.assert_array_equal(compiled.run(inputs)["y"], got)

    def test_elementwise_operators_typed_and_bitwise(self):
        # All four binary operators, nested, over a rank-2 shape.
        program = parse_program("""
        var input A : [3 4]
        var input B : [3 4]
        var input C : [3 4]
        var output y : [3 4]
        y = (A + B) * C - A / (B + C)
        """)
        rng = np.random.default_rng(2)
        inputs = {name: rng.uniform(0.5, 2.0, size=(3, 4))
                  for name in "ABC"}
        expected = run_program(program, inputs)["y"]
        cfd = lower_program_to_cfdlang(program, "ew")
        verify_typed(cfd)
        teil = lower_cfdlang_to_teil(cfd)
        verify_typed(teil)
        affine = lower_teil_to_affine(teil)
        verify_typed(affine)
        for backend in ("interpreter", "compiled", "cbackend"):
            kernel = resolve_backend(backend).compile(affine, "ew")
            np.testing.assert_array_equal(kernel.run(inputs)["y"], expected,
                                          err_msg=backend)
