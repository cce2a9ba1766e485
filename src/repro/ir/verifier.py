"""IR verification: structural well-formedness plus registered op checks.

Checks performed by :func:`verify`:

* every operand is *visible* at its use (defined earlier in the same block,
  a block argument, or defined in an enclosing region — the scoping rule
  used by structured ops such as loops);
* def-use bookkeeping is consistent;
* ops whose dialect is registered in the global
  :data:`repro.ir.dialect.REGISTRY` are ops that dialect defines, and
  satisfy their :class:`OpDef` (arity, region count, required attributes,
  custom verifier);
* ops carrying the ``terminator`` trait appear only at the end of a block.

Every error message carries the offending op's breadcrumb path
(:func:`repro.ir.analysis.op_path`) so failures in deeply nested modules can
be triaged without re-printing the whole module.

:func:`verify_typed` runs the abstract interpreter in the same traversal
(:func:`repro.ir.analysis.transfer_op` after each op's structural checks),
statically rejecting shape/dtype-inconsistent modules (e.g. lowering
miscompiles) that are structurally well-formed.  The visibility check makes
that single forward pass complete: no abstract is read before it is written.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.errors import IRError
from repro.ir.analysis import (
    AnalysisError,
    ModuleAnalysis,
    from_type,
    op_path,
    transfer_op,
)
from repro.ir.core import Module, Operation, Value
from repro.ir.dialect import REGISTRY, DialectRegistry


def verify(module: Module, registry: Optional[DialectRegistry] = None) -> None:
    """Verify a module; raises :class:`IRError` on the first violation."""
    _verify_op(module.op, set(), registry or REGISTRY, None)


def verify_typed(
    module: Module, registry: Optional[DialectRegistry] = None
) -> ModuleAnalysis:
    """Structural verification plus abstract-interpretation type checking.

    Returns the :class:`~repro.ir.analysis.ModuleAnalysis` so callers can
    reuse the inferred abstracts (e.g. for memory planning).  Raises
    :class:`IRError` on structural violations and
    :class:`~repro.ir.analysis.AnalysisError` (a subclass) on shape/dtype
    inconsistencies the structural checks cannot see; of two violations
    the one on the earlier op (in walk order) is reported.
    """
    analysis = ModuleAnalysis()
    _verify_op(module.op, set(), registry or REGISTRY, analysis)
    return analysis


def _verify_op(
    op: Operation,
    visible: Set[Value],
    registry: DialectRegistry,
    analysis: Optional[ModuleAnalysis],
) -> None:
    for idx, operand in enumerate(op._operands):
        if operand not in visible:
            raise IRError(
                f"{op.name}: operand #{idx} is not visible at its use "
                "(use before def or value from a sibling region) "
                f"at {op_path(op)}"
            )
        if (op, idx) not in operand.uses:
            raise IRError(
                f"{op.name}: def-use bookkeeping broken at operand #{idx} "
                f"at {op_path(op)}"
            )
    opdef = registry.opdefs.get(op.name)
    if opdef is None:
        dialect = op.name.partition(".")[0]
        if dialect in registry.dialects:
            raise IRError(f"{op.name}: the registered {dialect!r} dialect "
                          f"defines no such op at {op_path(op)}")
    else:
        try:
            opdef.check(op)
        except AnalysisError:
            raise
        except IRError as err:
            raise IRError(f"{err} at {op_path(op)}") from None
        if "terminator" in opdef.traits and op.parent is not None:
            if op.parent.operations[-1] is not op:
                raise IRError(
                    f"{op.name}: terminator is not last in its block "
                    f"at {op_path(op)}"
                )
    if analysis is not None:
        transfer_op(op, opdef, analysis)
    for region in op.regions:
        # Values visible inside a region: everything from enclosing regions
        # plus, conservatively, all defs in earlier blocks of this region
        # (we use single-block regions nearly everywhere; full dominance
        # analysis is out of scope).
        inner = set(visible)
        for block in region.blocks:
            inner.update(block.args)
            if analysis is not None:
                for arg in block.args:
                    analysis.values[arg] = from_type(arg.type)
            for child in block.operations:
                _verify_op(child, inner, registry, analysis)
                if child.results:
                    inner.update(child.results)
