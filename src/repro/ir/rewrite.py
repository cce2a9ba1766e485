"""Worklist-driven greedy pattern rewriting.

A :class:`RewritePattern` matches one op and mutates the IR through the
:class:`PatternRewriter` it is handed; :func:`apply_patterns_worklist`
applies a pattern set until fixpoint (MLIR's
``applyPatternsAndFoldGreedily`` works the same way):

* every op is enqueued exactly once up front;
* when a pattern fires, only the ops that could now match differently are
  re-enqueued — the users of the replaced results, the producers of the
  matched op's operands (they may have lost their last use), any ops the
  pattern created, and the matched op's parent;
* detached ops (erased themselves, or inside an erased ancestor) are
  skipped when popped.

The full-sweep driver this replaced re-walked every op on every
iteration (O(ops x iterations)); it survives only as a differential
oracle, ``tools/oracles.py::apply_patterns_sweep``, which
``benchmarks/bench_ir_canonicalize.py`` measures this driver against
(``make bench-ir``; medians in ``benchmarks/out/ir_canonicalize.json``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import IRError
from repro.ir.builder import Builder
from repro.ir.core import Module, Operation, Value


def is_attached(op: Operation, root: Operation) -> bool:
    """True when ``op`` is still reachable from ``root`` via parent links.

    An op erased mid-rewrite has ``parent is None``; an op *nested inside*
    an erased ancestor still points at its (detached) block, so the whole
    ancestor chain must be walked.
    """
    current: Optional[Operation] = op
    while current is not None:
        if current is root:
            return True
        block = current.parent
        if block is None or block.parent is None:
            return False
        current = block.parent.parent_op
    return False


class _TrackingBuilder(Builder):
    """A builder that reports every inserted op to the rewriter."""

    def __init__(self, block, index, sink: List[Operation]):
        super().__init__(block, index)
        self._sink = sink

    def insert(self, op: Operation) -> Operation:
        op = super().insert(op)
        self._sink.append(op)
        return op


class PatternRewriter:
    """Mutation interface handed to patterns.

    Collects the operations whose match state may have changed
    (``affected``) so the driver re-enqueues exactly those.
    """

    def __init__(self) -> None:
        self.affected: List[Operation] = []

    def builder_before(self, op: Operation) -> Builder:
        if op.parent is None:
            raise IRError("op has no parent block")
        index = op.parent.operations.index(op)
        return _TrackingBuilder(op.parent, index, self.affected)

    def _note_neighbours(self, op: Operation) -> None:
        for result in op.results:
            for user, _ in result.uses:
                self.affected.append(user)
        for operand in op.operands:
            producer = operand.owner_op()
            if producer is not None:
                self.affected.append(producer)

    def replace_op(self, op: Operation, new_values: Sequence[Value]) -> None:
        """Replace all results of ``op`` with ``new_values`` and erase it."""
        if len(new_values) != len(op.results):
            raise IRError(
                f"replace_op: {len(new_values)} values for "
                f"{len(op.results)} results"
            )
        self._note_neighbours(op)
        for result, value in zip(op.results, new_values):
            result.replace_all_uses_with(value)
        op.erase()

    def erase_op(self, op: Operation) -> None:
        self._note_neighbours(op)
        op.erase()


class RewritePattern:
    """One rewrite; ``match_and_rewrite`` returns True when it fired."""

    # Restrict to a specific op name, or None to try every op.
    op_name: Optional[str] = None

    def match_and_rewrite(
        self, op: Operation, rewriter: PatternRewriter
    ) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


def apply_patterns_worklist(
    module: Module,
    patterns: Iterable[RewritePattern],
    max_rewrites: int = 1_000_000,
) -> bool:
    """Apply ``patterns`` to ``module`` with a worklist until fixpoint.

    Returns True when any pattern fired.  ``max_rewrites`` bounds the
    total number of successful rewrites; exceeding it raises
    :class:`~repro.errors.IRError` (a non-converging pattern set).
    """
    patterns = list(patterns)
    by_name: Dict[str, List[RewritePattern]] = {}
    generic: List[RewritePattern] = []
    for pattern in patterns:
        if pattern.op_name is None:
            generic.append(pattern)
        else:
            by_name.setdefault(pattern.op_name, []).append(pattern)

    root = module.op
    # LIFO worklist seeded in reverse walk order: the first op in the
    # module is processed first, and cascades stay depth-first (cheap).
    worklist: List[Operation] = list(root.walk())[:0:-1]
    queued = set(worklist)

    changed_ever = False
    rewrites = 0
    while worklist:
        op = worklist.pop()
        queued.discard(op)
        if not is_attached(op, root):
            continue
        candidates = by_name.get(op.name, []) + generic
        # Capture the parent up front: replace_op/erase_op null op.parent,
        # and the parent op must be re-enqueued (its body just changed).
        parent_block = op.parent
        # One rewriter per op: a pattern that does not fire leaves it empty.
        rewriter = PatternRewriter()
        for pattern in candidates:
            if not pattern.match_and_rewrite(op, rewriter):
                continue
            changed_ever = True
            rewrites += 1
            if rewrites > max_rewrites:
                raise IRError(
                    f"worklist rewriting exceeded {max_rewrites} rewrites"
                )
            followups = list(rewriter.affected)
            if is_attached(op, root):
                # The op survived (in-place update): it and its
                # neighbourhood may match again.
                followups.append(op)
                for result in op.results:
                    for user, _ in result.uses:
                        followups.append(user)
            if parent_block is not None and parent_block.parent is not None:
                parent_op = parent_block.parent.parent_op
                if parent_op is not None and parent_op is not root:
                    followups.append(parent_op)
            for follow in followups:
                if follow not in queued and follow is not root:
                    worklist.append(follow)
                    queued.add(follow)
            break
    return changed_ever
