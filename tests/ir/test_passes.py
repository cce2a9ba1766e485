"""Tests for dead-op erasure, CSE and the rewrite drivers."""

import os
import sys

import numpy as np
import pytest

from repro.ir import (
    Builder,
    CanonicalizePass,
    CommonSubexpressionElimination,
    EraseTriviallyDead,
    Module,
    PatternRewriter,
    RewritePattern,
    apply_patterns_worklist,
    build_func,
    types as T,
    verify_typed,
)
from repro.ir.attributes import FloatAttr
from repro.tensorpipe.affine_interp import run_affine

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)

from oracles import apply_patterns_sweep  # noqa: E402


def _func_with_body(op_count=0):
    m = Module()
    func, entry, fb = build_func(m, "f", [T.f64], [T.f64])
    return m, entry, fb


class TestDCE:
    """``CanonicalizePass`` erases dead ops through the worklist's
    ``EraseTriviallyDead``."""

    def test_removes_unused_pure_op(self):
        m, entry, fb = _func_with_body()
        dead = fb.create("arith.mulf", [entry.args[0], entry.args[0]],
                         [T.f64])
        live = fb.create("arith.addf", [entry.args[0], entry.args[0]],
                         [T.f64])
        fb.create("func.return", [live.result])
        CanonicalizePass().run(m)
        names = [op.name for op in entry]
        assert "arith.mulf" not in names
        assert "arith.addf" in names

    def test_removes_transitively(self):
        m, entry, fb = _func_with_body()
        a = fb.create("arith.addf", [entry.args[0], entry.args[0]], [T.f64])
        b = fb.create("arith.mulf", [a.result, a.result], [T.f64])
        fb.create("func.return", [entry.args[0]])
        CanonicalizePass().run(m)
        assert len(entry) == 1  # only the return remains

    def test_keeps_impure_ops(self):
        m = Module()
        b = Builder.at_end(m.body)
        b.create("memref.alloc", [], [T.memref_of(T.f64, 4)])
        CanonicalizePass().run(m)
        assert len(m.body) == 1


class TestCSE:
    def test_deduplicates_identical_pure_ops(self):
        m, entry, fb = _func_with_body()
        a = fb.create("arith.addf", [entry.args[0], entry.args[0]], [T.f64])
        b = fb.create("arith.addf", [entry.args[0], entry.args[0]], [T.f64])
        total = fb.create("arith.mulf", [a.result, b.result], [T.f64])
        fb.create("func.return", [total.result])
        CommonSubexpressionElimination().run(m)
        adds = [op for op in entry if op.name == "arith.addf"]
        assert len(adds) == 1
        assert total.operands[0] is total.operands[1]

    def test_distinguishes_by_attributes(self):
        m = Module()
        b = Builder.at_end(m.body)
        c1 = b.create("arith.constant", [], [T.f64], {"value": 1.0})
        c2 = b.create("arith.constant", [], [T.f64], {"value": 2.0})
        b.create("test.keep", [c1.result, c2.result], [])
        CommonSubexpressionElimination().run(m)
        consts = [op for op in m.body if op.name == "arith.constant"]
        assert len(consts) == 2


def _quotients_kernel(*divisors):
    """``out[k] = x[0] / divisors[k]``: one ``arith.constant`` (built from
    the given attribute, typed by it) and one ``divf`` per divisor."""
    buffers = [T.memref_of(T.f64, 1), T.memref_of(T.f64, len(divisors))]
    m = Module()
    func, entry, fb = build_func(m, "k", buffers, [])
    func.set_attr("kernel_lang", "affine")
    func.set_attr("arg_names", ["x", "out"])
    func.set_attr("num_outputs", 1)
    x, out = entry.args
    zero = fb.create("arith.constant", [], [T.index], {"value": 0}).result
    numerator = fb.create("memref.load", [x, zero], [T.f64]).result
    for k, divisor in enumerate(divisors):
        const = fb.create("arith.constant", [], [divisor.type],
                          {"value": divisor}).result
        if divisor.type != T.f64:
            const = fb.create("arith.extf", [const], [T.f64]).result
        quotient = fb.create("arith.divf", [numerator, const], [T.f64])
        slot = fb.create("arith.constant", [], [T.index], {"value": k})
        fb.create("memref.store", [quotient.result, out, slot.result], [])
    fb.create("func.return", [], [])
    verify_typed(m)
    return m


def _float_constants(m):
    return [op.attributes["value"] for op in m.walk()
            if op.name == "arith.constant"
            and isinstance(op.attributes["value"], FloatAttr)]


def _assert_same_bits(reference, optimized):
    inputs = {"x": np.array([1.0])}
    with np.errstate(divide="ignore"):
        expected = run_affine(reference, "k", inputs)["out"]
        got = run_affine(optimized, "k", inputs)["out"]
    assert got.tobytes() == expected.tobytes()
    return got


class TestCSEKeepsDistinctConstantsApart:
    """``FloatAttr(0.0) == FloatAttr(-0.0)`` (equal hashes too), so a CSE
    key built on attribute equality would merge them."""

    def test_signed_zeros_are_two_constants(self):
        assert FloatAttr(0.0) == FloatAttr(-0.0)
        reference = _quotients_kernel(FloatAttr(0.0), FloatAttr(-0.0))
        optimized = reference.clone()
        assert CommonSubexpressionElimination().run(optimized)  # the indices
        CanonicalizePass().run(optimized)
        verify_typed(optimized)
        assert sorted(str(c) for c in _float_constants(optimized)) == \
            ["-0.0 : f64", "0.0 : f64"]
        got = _assert_same_bits(reference, optimized)
        assert got[0] == np.inf and got[1] == -np.inf

    def test_equal_value_different_element_type(self):
        reference = _quotients_kernel(FloatAttr(3.0, T.f32),
                                      FloatAttr(3.0, T.f64))
        optimized = reference.clone()
        CommonSubexpressionElimination().run(optimized)
        CanonicalizePass().run(optimized)
        verify_typed(optimized)
        assert sorted(str(c) for c in _float_constants(optimized)) == \
            ["3.0 : f32", "3.0 : f64"]
        _assert_same_bits(reference, optimized)

    def test_attribute_type_alone_separates_constants(self):
        m = Module()
        b = Builder.at_end(m.body)
        narrow = b.create("arith.constant", [], [T.f64],
                          {"value": FloatAttr(1.0, T.f32)})
        wide = b.create("arith.constant", [], [T.f64],
                        {"value": FloatAttr(1.0, T.f64)})
        again = b.create("arith.constant", [], [T.f64],
                         {"value": FloatAttr(1.0, T.f64)})
        keep = b.create("test.keep",
                        [narrow.result, wide.result, again.result], [])
        assert CommonSubexpressionElimination().run(m)
        assert keep.operands[0] is not keep.operands[1]
        assert keep.operands[1] is keep.operands[2]

    def test_signed_zeros_inside_arrays_and_dicts(self):
        vec = T.tensor_of(T.f64, 1)
        m = Module()
        b = Builder.at_end(m.body)
        values = [[0.0], [-0.0], [0.0],
                  {"v": 0.0}, {"v": -0.0}, {"v": 0.0}]
        consts = [b.create("arith.constant", [], [vec], {"value": value})
                  for value in values]
        keep = b.create("test.keep", [c.result for c in consts], [])
        assert CommonSubexpressionElimination().run(m)
        kept = keep.operands
        assert kept[0] is kept[2] and kept[3] is kept[5]
        assert len({id(v) for v in kept}) == 4

    def test_run_reports_whether_anything_was_erased(self):
        m, entry, fb = _func_with_body()
        live = fb.create("arith.addf", [entry.args[0], entry.args[0]],
                         [T.f64])
        fb.create("func.return", [live.result])
        assert apply_patterns_worklist(m, [EraseTriviallyDead()]) is False
        assert CommonSubexpressionElimination().run(m) is False
        fb = Builder.before(entry.operations[-1])
        fb.create("arith.addf", [entry.args[0], entry.args[0]], [T.f64])
        assert CommonSubexpressionElimination().run(m) is True
        fb.create("arith.mulf", [entry.args[0], entry.args[0]], [T.f64])
        assert apply_patterns_worklist(m, [EraseTriviallyDead()]) is True


class _FoldDoubleNeg(RewritePattern):
    op_name = "test.neg"

    def match_and_rewrite(self, op, rewriter: PatternRewriter) -> bool:
        inner = op.operands[0].owner_op() if op.operands else None
        if inner is None or inner.name != "test.neg":
            return False
        rewriter.replace_op(op, [inner.operands[0]])
        return True


class TestRewriteDriver:
    """Driver behaviour every greedy driver must show; runs against the
    production worklist driver here and the sweep oracle below."""

    driver = staticmethod(apply_patterns_worklist)

    def test_greedy_fixpoint(self):
        m = Module()
        b = Builder.at_end(m.body)
        x = b.create("arith.constant", [], [T.f64], {"value": 1.0}).result
        n1 = b.create("test.neg", [x], [T.f64]).result
        n2 = b.create("test.neg", [n1], [T.f64]).result
        n3 = b.create("test.neg", [n2], [T.f64]).result
        n4 = b.create("test.neg", [n3], [T.f64]).result
        use = b.create("test.use", [n4], [])
        changed = self.driver(m, [_FoldDoubleNeg()])
        assert changed
        # neg(neg(neg(neg(x)))) -> x
        assert use.operands[0] is x

    def test_no_match_returns_false(self):
        m = Module()
        assert self.driver(m, [_FoldDoubleNeg()]) is False

    def test_skips_ops_nested_in_erased_ancestor(self):
        """Regression: erasing a region op must not offer its (detached,
        operand-stripped) nested ops to later patterns.

        A guard that only checks ``op.parent is None`` holds for the
        erased op itself but not for ops inside its regions — those
        keep their block pointers while ``drop_all_references`` empties
        their operand lists, so a pattern touching ``op.operands[0]``
        blew up with an IndexError.
        """
        from repro.ir.core import Block, Operation, Region

        m = Module()
        b = Builder.at_end(m.body)
        inner_block = Block()
        ib = Builder.at_end(inner_block)
        c = ib.create("arith.constant", [], [T.f64], {"value": 1.0})
        ib.create("test.inner", [c.result], [])
        b.insert(Operation.create("test.wrapper", [], [], {},
                                  [Region([inner_block])]))

        seen_inner = []

        class EraseWrapper(RewritePattern):
            op_name = "test.wrapper"

            def match_and_rewrite(self, op, rewriter):
                rewriter.erase_op(op)
                return True

        class TouchInner(RewritePattern):
            op_name = "test.inner"

            def match_and_rewrite(self, op, rewriter):
                seen_inner.append(op.operands[0])  # IndexError if detached
                return False

        assert self.driver(m, [EraseWrapper(), TouchInner()])
        assert seen_inner == []  # the nested op was never offered
        assert len(m.body) == 0


class TestSweepOracleDriver(TestRewriteDriver):
    driver = staticmethod(apply_patterns_sweep)
