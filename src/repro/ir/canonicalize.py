"""The canonicalization engine: fold hooks, dead-op erasure and the pass.

Two pattern layers and a pass, mirroring MLIR's design:

* **fold hooks** — per-op simplifications declared on the
  :class:`~repro.ir.dialect.OpDef` (``fold=``).  A hook returns ``None``
  (no fold), an existing :class:`~repro.ir.core.Value` that replaces the
  op's single result, or a constant (Attribute / int / float / bool) that
  the driver materializes as an ``arith.constant``.  Hooks never create or
  mutate IR themselves, which keeps them cheap and composable.
* **trivially-dead erasure** — :class:`EraseTriviallyDead` drops a pure op
  whose results have no use.
* **CanonicalizePass** — composes the two (both through the worklist
  driver) with CSE, iterating to a fixpoint.  The pipeline's
  ``canonicalize`` stage times the whole pass as its
  ``canonicalize/rewrite`` span.

The pass is a *fixpoint* procedure: running it on an already-canonical
module changes nothing, which is what lets the lowering chain canonicalize
eagerly while ``PipelineSession`` re-runs the pass as a cached stage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import IRError
from repro.ir.attributes import Attribute, attr
from repro.ir.core import Module, Operation, Value
from repro.ir.dialect import REGISTRY, DialectRegistry
from repro.ir.passes import CommonSubexpressionElimination, Pass
from repro.ir.rewrite import (
    PatternRewriter,
    RewritePattern,
    apply_patterns_worklist,
)

#: Rounds :class:`CanonicalizePass` makes before it calls the pattern set
#: non-converging.
MAX_ROUNDS = 16


def constant_value(value: Value):
    """The compile-time constant behind ``value``, or None.

    Recognizes ``arith.constant`` (and ``ekl.literal``, which carries the
    same ``value`` attribute before conversion).
    """
    producer = value.owner_op()
    if producer is None:
        return None
    if producer.name in ("arith.constant", "ekl.literal"):
        return producer.attr("value")
    return None


def materialize_constant(
    rewriter: PatternRewriter, op: Operation, constant
) -> Value:
    """Build an ``arith.constant`` carrying ``constant`` before ``op``."""
    builder = rewriter.builder_before(op)
    if isinstance(constant, Attribute):
        constant = attr(constant)
    const_op = builder.create(
        "arith.constant", [], [op.results[0].type], {"value": constant}
    )
    return const_op.result


class FoldPatterns(RewritePattern):
    """Drives the per-op ``fold`` hooks declared on registered OpDefs."""

    op_name = None

    def __init__(self, registry: Optional[DialectRegistry] = None):
        self.registry = registry or REGISTRY

    def applies_to(self, name: str) -> bool:
        return getattr(self.registry.opdefs.get(name), "fold", None) is not None

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        opdef = self.registry.opdefs.get(op.name)
        if opdef is None or opdef.fold is None or len(op.results) != 1:
            return False
        folded = opdef.fold(op)
        if folded is None:
            return False
        if isinstance(folded, Value):
            if folded is op.results[0]:
                return False
            if folded.type != op.results[0].type:
                return False
            rewriter.replace_op(op, [folded])
            return True
        replacement = materialize_constant(rewriter, op, folded)
        rewriter.replace_op(op, [replacement])
        return True


class EraseTriviallyDead(RewritePattern):
    """Erase pure, region-free ops whose results are all unused.

    The worklist driver re-enqueues the producers of erased operands, so a
    whole dead chain disappears in one linear pass — the behaviour MLIR's
    greedy driver gets from ``isOpTriviallyDead``.
    """

    op_name = None

    def __init__(self, registry: Optional[DialectRegistry] = None):
        self.registry = registry or REGISTRY

    def applies_to(self, name: str) -> bool:
        traits = getattr(self.registry.opdefs.get(name), "traits", ())
        return "pure" in traits and "interface" not in traits

    def match_and_rewrite(self, op: Operation, rewriter: PatternRewriter) -> bool:
        if op.regions or not op.results:
            return False
        for result in op.results:
            if result.uses:
                return False
        if not self.applies_to(op.name):
            return False
        rewriter.erase_op(op)
        return True


def canonical_pattern_set(
    registry: Optional[DialectRegistry] = None,
) -> List[RewritePattern]:
    """The full canonicalization pattern set: folds and dead-op erasure."""
    registry = registry or REGISTRY
    return [FoldPatterns(registry), EraseTriviallyDead(registry)]


class CanonicalizePass(Pass):
    """Fold + dead-op erasure, then CSE, iterated to a fixpoint.

    Dead ops go in the worklist driver (:class:`EraseTriviallyDead`, which
    revisits the producers of every op it erases), so no separate
    dead-code sweep runs between the rounds.

    The fixpoint is guaranteed: the pass loops until a full round changes
    nothing, and raises :class:`~repro.errors.IRError` if
    :data:`MAX_ROUNDS` rounds still leave the module changing (a
    non-converging pattern set), rather than silently returning
    non-canonical IR.
    """

    name = "canonicalize"

    def __init__(self, registry: Optional[DialectRegistry] = None):
        self.registry = registry or REGISTRY

    def run(self, module: Module) -> None:
        patterns = canonical_pattern_set(self.registry)
        cse = CommonSubexpressionElimination()
        for _ in range(MAX_ROUNDS):
            changed = apply_patterns_worklist(module, patterns)
            changed |= cse.run(module)
            if not changed:
                return
        raise IRError(
            f"canonicalization did not converge in {MAX_ROUNDS} rounds"
        )


def canonicalize_module(
    module: Module,
    registry: Optional[DialectRegistry] = None,
) -> Module:
    """Canonicalize ``module`` in place and return it (lowering tail call)."""
    CanonicalizePass(registry).run(module)
    return module


__all__ = [
    "CanonicalizePass",
    "EraseTriviallyDead",
    "FoldPatterns",
    "canonical_pattern_set",
    "canonicalize_module",
    "constant_value",
    "materialize_constant",
]
