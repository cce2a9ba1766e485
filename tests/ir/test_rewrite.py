"""Tests for the worklist-driven rewrite driver (repro.ir.rewrite)."""

import os
import sys

import pytest

from repro.errors import IRError
from repro.ir import (
    Builder,
    Module,
    PatternRewriter,
    RewritePattern,
    apply_patterns_worklist,
    build_func,
    canonical_pattern_set,
    is_attached,
    print_module,
    types as T,
)

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)

from oracles import apply_patterns_sweep  # noqa: E402


class _FoldDoubleNeg(RewritePattern):
    op_name = "test.neg"

    def match_and_rewrite(self, op, rewriter: PatternRewriter) -> bool:
        inner = op.operands[0].owner_op() if op.operands else None
        if inner is None or inner.name != "test.neg":
            return False
        rewriter.replace_op(op, [inner.operands[0]])
        return True


class _EraseDeadSin(RewritePattern):
    op_name = "math.sin"

    def match_and_rewrite(self, op, rewriter: PatternRewriter) -> bool:
        if op.result.has_uses:
            return False
        rewriter.erase_op(op)
        return True


def _neg_chain(depth):
    m = Module()
    b = Builder.at_end(m.body)
    x = b.create("arith.constant", [], [T.f64], {"value": 1.0}).result
    v = x
    for _ in range(depth):
        v = b.create("test.neg", [v], [T.f64]).result
    use = b.create("test.use", [v], [])
    return m, x, use


class TestWorklistDriver:
    def test_fixpoint_on_neg_chain(self):
        m, x, use = _neg_chain(6)
        assert apply_patterns_worklist(m, [_FoldDoubleNeg()])
        assert use.operands[0] is x

    def test_no_match_returns_false(self):
        assert apply_patterns_worklist(Module(), [_FoldDoubleNeg()]) is False

    def test_cascading_erasure_follows_producers(self):
        """Erasing the dead tail must cascade through the whole chain in
        one worklist pass (re-enqueue of operand producers)."""
        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        v = entry.args[0]
        for _ in range(50):
            v = fb.create("math.sin", [v], [T.f64]).result
        fb.create("func.return", [entry.args[0]])
        assert apply_patterns_worklist(m, [_EraseDeadSin()])
        assert len(m.body.operations[0].regions[0].entry) == 1  # return only

    def test_matches_sweep_driver_result(self):
        """Both drivers must reach the same canonical form."""
        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        c1 = fb.create("arith.constant", [], [T.f64], {"value": 2.0}).result
        c2 = fb.create("arith.constant", [], [T.f64], {"value": 3.0}).result
        v = fb.create("arith.addf", [c1, c2], [T.f64]).result
        for _ in range(10):
            v = fb.create("arith.mulf", [v, c2], [T.f64]).result
        dead = entry.args[0]
        for _ in range(10):
            dead = fb.create("math.sin", [dead], [T.f64]).result
        fb.create("func.return", [v])

        sweep, worklist = m.clone(), m.clone()
        apply_patterns_sweep(sweep, canonical_pattern_set(),
                             max_iterations=64)
        apply_patterns_worklist(worklist, canonical_pattern_set())
        assert print_module(sweep) == print_module(worklist)

    def test_pattern_created_ops_are_revisited(self):
        """Ops built through the rewriter's builder re-enter the worklist."""

        class LowerTwice(RewritePattern):
            op_name = "test.high"

            def match_and_rewrite(self, op, rewriter):
                mid = rewriter.builder_before(op).create(
                    "test.mid", list(op.operands), [T.f64])
                rewriter.replace_op(op, [mid.result])
                return True

        class LowerMid(RewritePattern):
            op_name = "test.mid"

            def match_and_rewrite(self, op, rewriter):
                low = rewriter.builder_before(op).create(
                    "test.low", list(op.operands), [T.f64])
                rewriter.replace_op(op, [low.result])
                return True

        m = Module()
        b = Builder.at_end(m.body)
        c = b.create("arith.constant", [], [T.f64], {"value": 1.0}).result
        h = b.create("test.high", [c], [T.f64])
        b.create("test.use", [h.result], [])
        apply_patterns_worklist(m, [LowerTwice(), LowerMid()])
        names = [op.name for op in m.body]
        assert "test.high" not in names and "test.mid" not in names
        assert "test.low" in names

    def test_parent_reenqueued_after_body_erasure(self):
        """A region op whose body empties out must be revisited: erasing
        the nested op re-enqueues the (already-visited) parent."""

        class EraseEmptyWrap(RewritePattern):
            op_name = "test.wrap"

            def match_and_rewrite(self, op, rewriter):
                if len(op.regions[0].entry) != 0:
                    return False
                rewriter.erase_op(op)
                return True

        from repro.ir.core import Block, Operation, Region

        m = Module()
        inner = Block()
        Builder.at_end(inner).create("math.sin", [
            Builder.at_end(m.body).create(
                "arith.constant", [], [T.f64], {"value": 0.5}).result
        ], [T.f64])
        m.append(Operation.create("test.wrap", [], [], {},
                                  [Region([inner])]))
        # Seeding order visits test.wrap (non-empty body: no match) before
        # the nested math.sin gets erased as trivially dead.
        from repro.ir import canonical_pattern_set

        apply_patterns_worklist(m, [EraseEmptyWrap()]
                                + canonical_pattern_set())
        assert all(op.name != "test.wrap" for op in m.body)

    def test_non_converging_patterns_raise(self):
        class PingPong(RewritePattern):
            op_name = None

            def match_and_rewrite(self, op, rewriter):
                if op.name not in ("test.ping", "test.pong"):
                    return False
                other = "test.pong" if op.name == "test.ping" else "test.ping"
                new = rewriter.builder_before(op).create(
                    other, [], [T.f64])
                rewriter.replace_op(op, [new.result])
                return True

        m = Module()
        b = Builder.at_end(m.body)
        p = b.create("test.ping", [], [T.f64])
        b.create("test.use", [p.result], [])
        with pytest.raises(IRError):
            apply_patterns_worklist(m, [PingPong()], max_rewrites=100)


class TestCandidateIndex:
    """The driver resolves each op name's candidate patterns once per run."""

    def test_unrestricted_generic_pattern_sees_every_op(self):
        class Record(RewritePattern):
            op_name = None

            def __init__(self):
                self.seen = []

            def match_and_rewrite(self, op, rewriter):
                self.seen.append(op)
                return False

        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        c = fb.create("arith.constant", [], [T.f64], {"value": 2.0}).result
        v = fb.create("test.opaque", [entry.args[0], c], [T.f64]).result
        v = fb.create("math.sin", [v], [T.f64]).result
        fb.create("func.return", [v])
        record = Record()
        # Nothing fires: every op is offered once, including those of
        # names that no restricted pattern of the set applies to.
        assert not apply_patterns_worklist(
            m, canonical_pattern_set() + [record])
        assert record.seen == list(m.walk())[1:]
        assert [op.name for op in record.seen] == [
            "func.func", "arith.constant", "test.opaque", "math.sin",
            "func.return"]

    def test_fold_of_an_op_defined_after_a_run_applies_on_the_next(self):
        from repro.ir.dialect import Dialect, DialectRegistry

        registry = DialectRegistry()
        late = registry.register(Dialect("late"))
        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64], [T.f64])
        ident = fb.create("late.ident", [entry.args[0]], [T.f64])
        ret = fb.create("func.return", [ident.result])
        patterns = canonical_pattern_set(registry)
        assert not apply_patterns_worklist(m, patterns)
        late.op("ident", num_operands=1, num_results=1,
                fold=lambda op: op.operands[0])
        assert apply_patterns_worklist(m, patterns)
        assert ret.operands[0] is entry.args[0]
        assert [op.name for op in entry] == ["func.return"]


class TestIsAttached:
    def test_top_level_and_nested(self):
        from repro.ir.core import Block, Operation, Region

        m = Module()
        inner = Block()
        c = Builder.at_end(inner).create("arith.constant", [], [T.f64],
                                         {"value": 0.0})
        wrapper = Operation.create("test.wrap", [], [], {},
                                   [Region([inner])])
        m.append(wrapper)
        assert is_attached(wrapper, m.op)
        assert is_attached(c, m.op)
        wrapper.erase()
        assert not is_attached(wrapper, m.op)
        assert not is_attached(c, m.op)
