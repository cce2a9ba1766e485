"""Unit tests for the canonicalization engine: fold hooks, dialect
patterns, constant materialization and the composed CanonicalizePass."""

import os
import sys

import pytest

from repro.frontends.ekl import parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import (
    Builder,
    CanonicalizePass,
    DeadCodeElimination,
    Module,
    build_func,
    canonicalize_module,
    constant_value,
    print_module,
    types as T,
    verify,
)
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)

from irfuzz import generate_ekl_case, generate_module  # noqa: E402

N_SEEDS = 200


def _func(arg_types=(T.f64,)):
    m = Module()
    func, entry, fb = build_func(m, "f", list(arg_types), [T.f64])
    return m, entry, fb


def _canon(m):
    CanonicalizePass().run(m)
    verify(m)
    return m


class TestArithFolds:
    def test_constant_folding_chain(self):
        m, entry, fb = _func()
        a = fb.create("arith.constant", [], [T.f64], {"value": 4.0}).result
        b = fb.create("arith.constant", [], [T.f64], {"value": 2.0}).result
        s = fb.create("arith.addf", [a, b], [T.f64]).result
        p = fb.create("arith.mulf", [s, b], [T.f64]).result
        fb.create("func.return", [p])
        _canon(m)
        ops = list(m.body.operations[0].regions[0].entry)
        assert [op.name for op in ops] == ["arith.constant", "func.return"]
        assert ops[0].attr("value") == 12.0

    def test_float_identities(self):
        m, entry, fb = _func()
        zero = fb.create("arith.constant", [], [T.f64], {"value": 0.0}).result
        one = fb.create("arith.constant", [], [T.f64], {"value": 1.0}).result
        v = fb.create("arith.addf", [entry.args[0], zero], [T.f64]).result
        v = fb.create("arith.mulf", [one, v], [T.f64]).result
        v = fb.create("arith.subf", [v, zero], [T.f64]).result
        v = fb.create("arith.divf", [v, one], [T.f64]).result
        ret = fb.create("func.return", [v])
        _canon(m)
        assert ret.operands[0] is entry.args[0]

    def test_mul_by_zero_not_folded_for_floats(self):
        # x * 0.0 is NaN/Inf-sensitive; it must survive canonicalization.
        m, entry, fb = _func()
        zero = fb.create("arith.constant", [], [T.f64], {"value": 0.0}).result
        v = fb.create("arith.mulf", [entry.args[0], zero], [T.f64]).result
        fb.create("func.return", [v])
        _canon(m)
        names = [op.name for op in m.body.operations[0].regions[0].entry]
        assert "arith.mulf" in names

    def test_integer_folds_match_python_semantics(self):
        m = Module()
        func, entry, fb = build_func(m, "f", [], [T.i64])
        a = fb.create("arith.constant", [], [T.i64], {"value": -7}).result
        b = fb.create("arith.constant", [], [T.i64], {"value": 2}).result
        q = fb.create("arith.divsi", [a, b], [T.i64]).result
        r = fb.create("arith.remsi", [a, b], [T.i64]).result
        s = fb.create("arith.addi", [q, r], [T.i64]).result
        fb.create("func.return", [s])
        _canon(m)
        const = m.body.operations[0].regions[0].entry.operations[0]
        # Python floor semantics (matching the affine interpreter):
        # -7 // 2 == -4, -7 % 2 == 1.
        assert const.attr("value") == -3

    def test_division_by_zero_not_folded(self):
        m = Module()
        func, entry, fb = build_func(m, "f", [], [T.i64])
        a = fb.create("arith.constant", [], [T.i64], {"value": 3}).result
        z = fb.create("arith.constant", [], [T.i64], {"value": 0}).result
        q = fb.create("arith.divsi", [a, z], [T.i64]).result
        fb.create("func.return", [q])
        _canon(m)
        names = [op.name for op in m.body.operations[0].regions[0].entry]
        assert "arith.divsi" in names

    def test_cmp_and_select_fold(self):
        m, entry, fb = _func()
        a = fb.create("arith.constant", [], [T.f64], {"value": 1.0}).result
        b = fb.create("arith.constant", [], [T.f64], {"value": 2.0}).result
        cond = fb.create("arith.cmpf", [a, b], [T.i1],
                         {"predicate": "lt"}).result
        chosen = fb.create("arith.select", [cond, entry.args[0], a],
                           [T.f64]).result
        ret = fb.create("func.return", [chosen])
        _canon(m)
        assert ret.operands[0] is entry.args[0]

    def test_select_with_equal_arms(self):
        m, entry, fb = _func((T.i1, T.f64))
        chosen = fb.create("arith.select",
                           [entry.args[0], entry.args[1], entry.args[1]],
                           [T.f64]).result
        ret = fb.create("func.return", [chosen])
        _canon(m)
        assert ret.operands[0] is entry.args[1]

    def test_double_negation(self):
        m, entry, fb = _func()
        n1 = fb.create("arith.negf", [entry.args[0]], [T.f64]).result
        n2 = fb.create("arith.negf", [n1], [T.f64]).result
        ret = fb.create("func.return", [n2])
        _canon(m)
        assert ret.operands[0] is entry.args[0]

    def test_math_fold_matches_interpreter(self):
        import math

        m, entry, fb = _func()
        c = fb.create("arith.constant", [], [T.f64], {"value": 2.0}).result
        e = fb.create("math.exp", [c], [T.f64]).result
        fb.create("func.return", [e])
        _canon(m)
        const = m.body.operations[0].regions[0].entry.operations[0]
        assert const.attr("value") == math.exp(2.0)

    def test_math_domain_error_not_folded(self):
        m, entry, fb = _func()
        c = fb.create("arith.constant", [], [T.f64], {"value": -1.0}).result
        s = fb.create("math.sqrt", [c], [T.f64]).result
        fb.create("func.return", [s])
        _canon(m)
        names = [op.name for op in m.body.operations[0].regions[0].entry]
        assert "math.sqrt" in names


class TestTensorPatterns:
    def test_identity_transpose_folds(self):
        ty = T.tensor_of(T.f64, 3, 4)
        m = Module()
        func, entry, fb = build_func(m, "f", [ty], [ty])
        t = fb.create("teil.transpose", [entry.args[0]], [ty],
                      {"perm": [0, 1]}).result
        ret = fb.create("func.return", [t])
        _canon(m)
        assert ret.operands[0] is entry.args[0]

    def test_transpose_pair_collapses_to_identity(self):
        ty = T.tensor_of(T.f64, 3, 4)
        ty_t = T.tensor_of(T.f64, 4, 3)
        m = Module()
        func, entry, fb = build_func(m, "f", [ty], [ty])
        t1 = fb.create("teil.transpose", [entry.args[0]], [ty_t],
                       {"perm": [1, 0]}).result
        t2 = fb.create("teil.transpose", [t1], [ty],
                       {"perm": [1, 0]}).result
        ret = fb.create("func.return", [t2])
        _canon(m)
        assert ret.operands[0] is entry.args[0]

    def test_transpose_chain_merges(self):
        ty = T.tensor_of(T.f64, 2, 3, 4)
        m = Module()
        func, entry, fb = build_func(m, "f", [ty], [ty])
        a = fb.create("teil.transpose", [entry.args[0]],
                      [T.tensor_of(T.f64, 3, 4, 2)],
                      {"perm": [1, 2, 0]}).result
        b = fb.create("teil.transpose", [a],
                      [T.tensor_of(T.f64, 4, 2, 3)],
                      {"perm": [1, 2, 0]}).result
        ret = fb.create("func.return", [b])
        _canon(m)
        entry_ops = list(m.body.operations[0].regions[0].entry)
        transposes = [op for op in entry_ops if op.name == "teil.transpose"]
        assert len(transposes) == 1
        assert transposes[0].attr("perm") == [2, 0, 1]
        assert transposes[0].operands[0] is entry.args[0]

    def test_reshape_collapse(self):
        src = T.tensor_of(T.f64, 12)
        mid = T.tensor_of(T.f64, 3, 4)
        out = T.tensor_of(T.f64, 2, 6)
        m = Module()
        func, entry, fb = build_func(m, "f", [src], [out])
        r1 = fb.create("teil.reshape", [entry.args[0]], [mid]).result
        r2 = fb.create("teil.reshape", [r1], [out]).result
        ret = fb.create("func.return", [r2])
        _canon(m)
        entry_ops = list(m.body.operations[0].regions[0].entry)
        reshapes = [op for op in entry_ops if op.name == "teil.reshape"]
        assert len(reshapes) == 1
        assert reshapes[0].operands[0] is entry.args[0]

    def test_identity_reshape_and_broadcast_fold(self):
        ty = T.tensor_of(T.f64, 5)
        m = Module()
        func, entry, fb = build_func(m, "f", [ty], [ty])
        r = fb.create("teil.reshape", [entry.args[0]], [ty]).result
        bc = fb.create("teil.broadcast", [r], [ty],
                       {"in_axes": ["i"], "axes": ["i"]}).result
        ret = fb.create("func.return", [bc])
        _canon(m)
        assert ret.operands[0] is entry.args[0]


class TestSystemFolds:
    def test_identity_base2_cast_folds(self):
        ty = T.FixedPointType(8, 8)
        m = Module()
        func, entry, fb = build_func(m, "f", [ty], [ty])
        c = fb.create("base2.cast", [entry.args[0]], [ty]).result
        ret = fb.create("func.return", [c])
        _canon(m)
        assert ret.operands[0] is entry.args[0]

    def test_narrowing_cast_survives(self):
        wide, narrow = T.FixedPointType(8, 8), T.FixedPointType(2, 2)
        m = Module()
        func, entry, fb = build_func(m, "f", [wide], [narrow])
        c = fb.create("base2.cast", [entry.args[0]], [narrow]).result
        fb.create("func.return", [c])
        _canon(m)
        names = [op.name for op in m.body.operations[0].regions[0].entry]
        assert "base2.cast" in names

    def test_nested_wrap_folds(self):
        m = Module()
        func, entry, fb = build_func(m, "f", [T.i32], [T.i32])
        w1 = fb.create("cyclic.wrap", [entry.args[0]], [T.i32],
                       {"modulus": 16}).result
        w2 = fb.create("cyclic.wrap", [w1], [T.i32], {"modulus": 16}).result
        ret = fb.create("func.return", [w2])
        _canon(m)
        assert ret.operands[0] is w1

    def test_redundant_stage_folds(self):
        ref = T.memref_of(T.f64, 8)
        m = Module()
        func, entry, fb = build_func(m, "f", [ref], [])
        s1 = fb.create("buffer.stage", [entry.args[0]], [ref],
                       {"space": "plm"}).result
        s2 = fb.create("buffer.stage", [s1], [ref], {"space": "plm"}).result
        fb.create("test.use", [s2], [])
        canonicalize_module(m)
        stages = [op for op in m.body.operations[0].regions[0].entry
                  if op.name == "buffer.stage"]
        assert len(stages) == 1


class TestPassComposition:
    def test_interface_ops_survive_dce(self):
        m = Module()
        func, entry, fb = build_func(m, "k", [], [])
        fb.create("ekl.arg", [], [T.tensor_of(T.f64, 4)],
                  {"name": "unused", "axes": ["i"]})
        fb.create("func.return", [])
        DeadCodeElimination().run(m)
        _canon(m)
        names = [op.name for op in m.body.operations[0].regions[0].entry]
        assert "ekl.arg" in names

    def test_cse_composes_with_folding(self):
        m, entry, fb = _func()
        a1 = fb.create("arith.addf", [entry.args[0], entry.args[0]],
                       [T.f64]).result
        a2 = fb.create("arith.addf", [entry.args[0], entry.args[0]],
                       [T.f64]).result
        s = fb.create("arith.mulf", [a1, a2], [T.f64]).result
        fb.create("func.return", [s])
        _canon(m)
        entry_ops = list(m.body.operations[0].regions[0].entry)
        adds = [op for op in entry_ops if op.name == "arith.addf"]
        assert len(adds) == 1

    def test_idempotent(self):
        m, entry, fb = _func()
        zero = fb.create("arith.constant", [], [T.f64], {"value": 0.0}).result
        v = fb.create("arith.addf", [entry.args[0], zero], [T.f64]).result
        fb.create("func.return", [v])
        _canon(m)
        once = print_module(m)
        _canon(m)
        assert print_module(m) == once

    def test_constant_value_helper(self):
        m, entry, fb = _func()
        c = fb.create("arith.constant", [], [T.f64], {"value": 7.5})
        assert constant_value(c.result) == 7.5
        assert constant_value(entry.args[0]) is None

    def test_timings_recorded(self):
        m, entry, fb = _func()
        fb.create("func.return", [entry.args[0]])
        canonicalizer = CanonicalizePass()
        canonicalizer.run(m)
        names = {name for name, _ in canonicalizer.timings}
        assert names == {"patterns", "cse"}


class TestCanonicalLeavesNoDeadOp:
    """``CanonicalizePass`` runs no dead-code sweep of its own: the
    worklist's ``EraseTriviallyDead`` has to get every dead op.  A pattern
    that strands one fails here."""

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_ekl_kernel_through_the_lowering_chain(self, seed):
        source, _ = generate_ekl_case(seed)
        for canonicalize in (True, False):
            esn = lower_ekl_to_esn(lower_kernel_to_ekl(parse_kernel(source)),
                                   canonicalize=canonicalize)
            teil = lower_esn_to_teil(esn, canonicalize=canonicalize)
            affine = lower_teil_to_affine(teil, canonicalize=False)
            CanonicalizePass().run(affine)
            # The raw chain canonicalizes nothing on the way.
            for module in (esn, teil, affine) if canonicalize else (affine,):
                assert DeadCodeElimination().run(module) is False, \
                    (canonicalize, source)

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_generic_module(self, seed):
        module = generate_module(seed)
        CanonicalizePass().run(module)
        assert DeadCodeElimination().run(module) is False
