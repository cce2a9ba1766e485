"""Abstract interpretation over the IR: shapes, dtypes, constant-ness.

This is the static-analysis substrate behind the typed verifier and the
arena memory planner (:mod:`repro.tensorpipe.arena`).  It propagates
:class:`AbstractValue` lattice elements — ``(shape, dtype, const)``, each
component either a known fact or ``None`` for "unknown" — forward through
a module in one pass, running each registered op's *transfer function*
(the ``transfer=`` hook on :class:`repro.ir.dialect.OpDef`) to compute
result abstracts from operand abstracts.

The lattice is deliberately simple:

* ``shape`` — a tuple of extents (``None`` entries for dynamic dims), or
  ``None`` when even the rank is unknown.  ``()`` means scalar.
* ``dtype`` — the printed scalar type (``"f64"``, ``"i1"``, ``"index"``…),
  or ``None`` when unknown.
* ``const`` — a Python scalar when every element of the value is known to
  equal it *at its definition*, else ``None``.  For buffers this is a
  statement about the defining op only (see :data:`MEMREF_ALLOC_ZERO_INIT`);
  later stores may overwrite it, so no transfer function folds through it.

``TOP`` (all components unknown) is the identity of :meth:`AbstractValue.join`.
Transfer functions raise :class:`AnalysisError` when operand abstracts are
inconsistent with the op's semantics; the engine prefixes the error with the
op's path (:func:`op_path`) so fuzz triage doesn't require re-printing the
whole module.  Ops without a registered transfer (e.g. the fuzzer's
``fuzz.*`` dialect) fall back to their declared result types unchecked.

The driver is ``verify_typed`` in :mod:`repro.ir.verifier`: it calls
:func:`transfer_op` from the structural verifier's own traversal and
returns a :class:`ModuleAnalysis` mapping every SSA value to its abstract.
Its visibility check proves every operand is written before it is read,
so that single forward pass is the fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import IRError
from repro.ir import types as T
from repro.ir.core import Operation, Value
from repro.ir.dialect import OpDef

Shape = Tuple[Optional[int], ...]

#: The value every element of a fresh ``memref.alloc`` buffer holds.  This is
#: a load-bearing contract: the affine interpreter materializes allocs with
#: ``np.zeros``, the C backend zero-fills, and the arena codegen emits an
#: explicit ``.fill(0)`` on every slot (slots are *reused*, so the fill is
#: what keeps arena execution bitwise-identical).  Reductions rely on it
#: for their accumulators; the analysis records it as ``const=0`` at the
#: alloc's definition so the reliance is explicit rather than implicit.
MEMREF_ALLOC_ZERO_INIT: int = 0


class AnalysisError(IRError):
    """An abstract transfer function found semantically inconsistent IR."""


@dataclass(frozen=True)
class AbstractValue:
    """One lattice element: what is statically known about an SSA value."""

    shape: Optional[Shape] = None
    dtype: Optional[str] = None
    const: object = None

    def join(self, other: "AbstractValue") -> "AbstractValue":
        """Least upper bound: keep only facts both sides agree on."""
        if self.shape is None or other.shape is None:
            shape: Optional[Shape] = None
        elif len(self.shape) != len(other.shape):
            shape = None
        else:
            shape = tuple(
                a if a == b else None for a, b in zip(self.shape, other.shape)
            )
        dtype = self.dtype if self.dtype == other.dtype else None
        const = self.const if self.const == other.const else None
        return AbstractValue(shape, dtype, const)

    def __str__(self) -> str:
        if self.shape is None:
            dims = "?rank"
        else:
            dims = "x".join("?" if d is None else str(d) for d in self.shape)
            dims = dims or "scalar"
        text = f"<{dims}:{self.dtype or '?'}>"
        if self.const is not None:
            text += f"={self.const!r}"
        return text


#: The unknown element — join identity, default for unregistered values.
TOP = AbstractValue()

TransferFn = Callable[
    [Operation, Sequence[AbstractValue], "ModuleAnalysis"],
    Optional[Sequence[AbstractValue]],
]


def from_type(ty: T.Type) -> AbstractValue:
    """The abstract value implied by a declared IR type, computed once per
    type object and kept on it (types are immutable)."""
    try:
        return ty._abstract  # type: ignore[attr-defined]
    except AttributeError:
        pass
    if isinstance(ty, (T.TensorType, T.MemRefType)):
        abstract = AbstractValue(tuple(ty.shape), str(ty.element))
    elif T.is_scalar(ty):
        abstract = AbstractValue((), str(ty))
    elif isinstance(ty, T.NoneOpType):
        abstract = AbstractValue((), "none")
    else:
        abstract = TOP
    ty.__dict__["_abstract"] = abstract  # frozen: no setattr
    return abstract


def op_path(op: Operation) -> str:
    """A breadcrumb path to ``op``: enclosing ops, symbol names, indices.

    Example: ``func.func(@rrtmg)#0/affine.for#2/arith.addf#1`` — each
    segment is ``name(@sym)#<index in its block>``, with a ``.r<k>`` region
    marker when the parent op has more than one region.  Cheap enough to
    compute on every error and precise enough that fuzz triage doesn't need
    to re-print the module.
    """
    parts: List[str] = []
    cur: Optional[Operation] = op
    while cur is not None:
        label = cur.name
        sym = cur.attr("sym_name")
        if isinstance(sym, str) and sym:
            label += f"(@{sym})"
        block = cur.parent
        if block is None:
            if cur is not op:
                parts.append(label)
            break
        try:
            label += f"#{block.operations.index(cur)}"
        except ValueError:  # detached mid-mutation; still give a best effort
            label += "#?"
        region = block.parent
        parent_op = region.parent_op if region is not None else None
        if parent_op is not None and len(parent_op.regions) > 1:
            label = f"r{parent_op.regions.index(region)}/{label}"
        parts.append(label)
        cur = parent_op
    return "/".join(reversed(parts))


@dataclass
class ModuleAnalysis:
    """Result of ``verify_typed``: abstracts for every SSA value."""

    values: Dict[Value, AbstractValue] = field(default_factory=dict)

    def of(self, value: Value) -> AbstractValue:
        return self.values.get(value, TOP)

    def index_space(self, op: Operation) -> Optional[Dict[str, int]]:
        """The nearest enclosing ``ekl.kernel``'s label→extent map, if any."""
        cur: Optional[Operation] = op
        while cur is not None:
            if cur.name == "ekl.kernel":
                space = cur.attr("index_space")
                if isinstance(space, dict):
                    return {str(k): int(v) for k, v in space.items()}
                return None
            block = cur.parent
            region = block.parent if block is not None else None
            cur = region.parent_op if region is not None else None
        return None


def merge_shapes(
    shapes: Sequence[Optional[Shape]], context: str = "operands"
) -> Optional[Shape]:
    """Unify shapes that must denote the same extents.

    Unknown shapes/dims contribute nothing; known dims must agree.  Raises
    :class:`AnalysisError` on rank or extent conflicts.
    """
    known = [s for s in shapes if s is not None]
    if not known:
        return None
    rank = len(known[0])
    for s in known[1:]:
        if len(s) != rank:
            raise AnalysisError(
                f"{context} disagree on rank: "
                + " vs ".join(str(list(s)) for s in known)
            )
    merged: List[Optional[int]] = []
    for axis, dims in enumerate(zip(*known)):
        extents = {d for d in dims if d is not None}
        if len(extents) > 1:
            raise AnalysisError(
                f"{context} disagree on extent of dimension {axis}: "
                f"{sorted(extents)}"
            )
        merged.append(extents.pop() if extents else None)
    return tuple(merged)


def common_dtype(operands: Sequence[AbstractValue]) -> Optional[str]:
    """The dtype shared by all operands, or None if unknown/mixed."""
    dtypes = {a.dtype for a in operands if a.dtype is not None}
    return dtypes.pop() if len(dtypes) == 1 else None


# ---------------------------------------------------------------------------
# Generic transfer-function factories (dialects specialize on top of these).
# ---------------------------------------------------------------------------


def elementwise(
    result_dtype: Optional[str] = None, *, strict_dtype: bool = True
) -> TransferFn:
    """Same-shape n-ary op: operands must agree in shape (and, when
    ``strict_dtype``, in dtype); result keeps the merged shape."""

    def transfer(
        op: Operation,
        operands: Sequence[AbstractValue],
        analysis: "ModuleAnalysis",
    ) -> Sequence[AbstractValue]:
        shape = merge_shapes([a.shape for a in operands])
        dtype = common_dtype(operands)
        if strict_dtype and dtype is None:
            known = {a.dtype for a in operands if a.dtype is not None}
            if len(known) > 1:
                raise AnalysisError(
                    f"operand dtypes disagree: {sorted(known)}"
                )
        result = AbstractValue(shape, result_dtype or dtype)
        return [result] * len(op.results)

    return transfer


def comparison() -> TransferFn:
    """Elementwise predicate: merged operand shape, ``i1`` result."""
    return elementwise(result_dtype="i1", strict_dtype=False)


def cast() -> TransferFn:
    """Dtype conversion: operand shape, declared result dtype."""

    def transfer(
        op: Operation,
        operands: Sequence[AbstractValue],
        analysis: "ModuleAnalysis",
    ) -> Sequence[AbstractValue]:
        declared = from_type(op.results[0].type) if op.results else TOP
        shape = operands[0].shape if operands else None
        return [AbstractValue(shape, declared.dtype)]

    return transfer


# ---------------------------------------------------------------------------
# The per-op transfer step of the forward pass.
# ---------------------------------------------------------------------------


def transfer_op(
    op: Operation, opdef: Optional[OpDef], analysis: ModuleAnalysis
) -> None:
    """Record the abstracts of ``op``'s results (not of its regions): the
    registered transfer function applied to the operand abstracts, met
    with the declared result types.  Every operand must already have its
    abstract: the caller visits defs before uses."""
    values = analysis.values
    inferred: Optional[Sequence[AbstractValue]] = None
    if opdef is not None and opdef.transfer is not None:
        operands = list(map(values.__getitem__, op._operands))
        try:
            inferred = opdef.transfer(op, operands, analysis)
        except AnalysisError as err:
            raise AnalysisError(f"{op_path(op)}: {err}") from None
    for idx, result in enumerate(op.results):
        try:  # from_type's cache hit, inlined: once per result
            abstract = result.type._abstract  # type: ignore[attr-defined]
        except AttributeError:
            abstract = from_type(result.type)
        if inferred is not None and idx < len(inferred):
            fact = inferred[idx]  # meeting equal facts changes nothing
            abstract = fact if fact == abstract \
                else _meet(op, idx, fact, abstract)
        values[result] = abstract


def _meet(
    op: Operation, idx: int, inferred: AbstractValue, declared: AbstractValue
) -> AbstractValue:
    """Meet of the inferred facts with the declared type of result ``idx``;
    a fact the two disagree on raises."""
    shape = inferred.shape
    if shape is None:
        shape = declared.shape
    elif declared.shape is not None:
        if len(shape) != len(declared.shape):
            raise AnalysisError(
                f"{op_path(op)}: result #{idx} declared rank "
                f"{len(declared.shape)} but analysis inferred rank "
                f"{len(shape)} ({inferred})"
            )
        for axis, (have, want) in enumerate(zip(shape, declared.shape)):
            if have is not None and want is not None and have != want:
                raise AnalysisError(
                    f"{op_path(op)}: result #{idx} dimension {axis} declared "
                    f"{want} but analysis inferred {have}"
                )
        shape = tuple(
            i if i is not None else d for i, d in zip(shape, declared.shape)
        )
    if (
        inferred.dtype is not None
        and declared.dtype is not None
        and inferred.dtype != declared.dtype
    ):
        raise AnalysisError(
            f"{op_path(op)}: result #{idx} declared dtype {declared.dtype} "
            f"but analysis inferred {inferred.dtype}"
        )
    return AbstractValue(
        shape, inferred.dtype or declared.dtype, inferred.const
    )
