"""EVEREST tensor-language dialects: ``ekl``, ``esn``, ``teil``, ``cfdlang``.

These four dialects carry the kernel-language pipeline of the paper's Fig. 5:

* ``ekl`` — operations produced directly from EVEREST Kernel Language
  programs.  Values are *labelled tensors*: each op carries an ``axes``
  attribute naming the Einstein indices of its result's dimensions.
* ``esn`` — the Einstein-notation dialect: explicit ``einsum`` contractions,
  gathers (subscripted subscripts), selects and index stacking.
* ``teil`` — the Tensor Intermediate Language (TeIL): shape-typed tensor
  ops with no index names left; the hand-off point to loop generation.
* ``cfdlang`` — the legacy CFDlang frontend dialect (tensor assignments of
  product/contraction expressions).

All four share the convention that tensor values use
:class:`repro.ir.types.TensorType`.
"""

from __future__ import annotations

from repro.errors import IRError
from repro.ir.analysis import (
    AbstractValue,
    AnalysisError,
    common_dtype,
    merge_shapes,
)
from repro.ir.core import Operation
from repro.ir.dialect import register_dialect
from repro.ir.types import TensorType


def _verify_axes(op: Operation) -> None:
    axes = op.attr("axes")
    if axes is None:
        return
    result_type = op.results[0].type
    if isinstance(result_type, TensorType) and len(axes) != result_type.rank:
        raise IRError(
            f"{op.name}: {len(axes)} axis labels for rank-{result_type.rank} result"
        )


def _verify_einsum(op: Operation) -> None:
    spec = op.attr("spec")
    if not isinstance(spec, str) or "->" not in spec:
        raise IRError(f"{op.name}: spec must look like 'ab,bc->ac'")
    inputs = spec.split("->")[0].split(",")
    if len(inputs) != len(op.operands):
        raise IRError(
            f"{op.name}: spec has {len(inputs)} inputs but op has "
            f"{len(op.operands)} operands"
        )


# -- transfer functions (abstract interpretation) --------------------------------
#
# Shape/dtype rules for the tensor dialects, registered alongside the OpDefs
# (see repro.ir.analysis).  These encode the *semantics* the lowerings rely
# on — e.g. ``broadcast.in_axes ⊆ broadcast.axes`` and ``reduce.axes`` being
# integer positions — so the typed verifier statically rejects miscompiles
# like the PR 4 esn.reduce axis-label bug that are structurally well-formed.


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _transfer_ekl_axes(result_dtype=None):
    """ekl ops: result extents come from the kernel's index space.

    Each ekl op's ``axes`` (or ``out_axes``) attribute labels its result
    dimensions; inside an ``ekl.kernel`` those labels have declared extents
    in ``index_space``, so the declared result type can be checked against
    them.  Anonymous labels (``~n``) contribute no constraint.
    """

    def transfer(op, operands, analysis):
        axes = op.attr("out_axes")
        if axes is None:
            axes = op.attr("axes")
        shape = None
        if isinstance(axes, (list, tuple)) and \
                all(isinstance(a, str) for a in axes):
            space = analysis.index_space(op)
            if space is not None:
                shape = tuple(space.get(label) for label in axes)
        return [AbstractValue(shape, result_dtype)] * len(op.results)

    return transfer


def _transfer_broadcast(op, operands, analysis):
    src = operands[0]
    in_axes = op.attr("in_axes") or []
    axes = op.attr("axes")
    if not isinstance(axes, (list, tuple)) or \
            not isinstance(in_axes, (list, tuple)):
        return None
    missing = [a for a in in_axes if a not in axes]
    if missing:
        raise AnalysisError(
            f"broadcast in_axes entries {missing!r} are not in axes "
            f"{list(axes)!r} (are they reduction positions, not labels?)"
        )
    if src.shape is not None and len(src.shape) != len(in_axes):
        raise AnalysisError(
            f"broadcast operand has rank {len(src.shape)} but "
            f"{len(in_axes)} in_axes"
        )
    shape = [None] * len(axes)
    if src.shape is not None:
        for k, label in enumerate(in_axes):
            shape[axes.index(label)] = src.shape[k]
    return [AbstractValue(tuple(shape), src.dtype)]


def _transfer_reduce(op, operands, analysis):
    src = operands[0]
    positions = op.attr("axes")
    if not isinstance(positions, (list, tuple)) or \
            not all(_is_int(p) for p in positions):
        raise AnalysisError(
            f"reduce axes must be integer positions, got {positions!r}"
        )
    shape = None
    if src.shape is not None:
        rank = len(src.shape)
        bad = sorted(p for p in positions if not 0 <= p < rank)
        if bad:
            raise AnalysisError(
                f"reduce positions {bad} out of range for operand rank {rank}"
            )
        dropped = set(positions)
        shape = tuple(d for i, d in enumerate(src.shape) if i not in dropped)
    out_axes = op.attr("out_axes")
    if isinstance(out_axes, (list, tuple)) and shape is not None and \
            len(out_axes) != len(shape):
        raise AnalysisError(
            f"reduce has {len(out_axes)} out_axes for a rank-{len(shape)} "
            "result"
        )
    return [AbstractValue(shape, src.dtype)]


def _transfer_einsum(op, operands, analysis):
    spec = op.attr("spec")
    if not isinstance(spec, str) or "->" not in spec:
        return None  # the structural verifier reports malformed specs
    in_part, out_part = spec.split("->", 1)
    factor_specs = in_part.split(",") if in_part else []
    if len(factor_specs) != len(operands):
        return None  # arity mismatch is a structural error
    extents = {}
    for fs, factor in zip(factor_specs, operands):
        if factor.shape is None:
            continue
        if len(factor.shape) != len(fs):
            raise AnalysisError(
                f"einsum factor {fs!r} names {len(fs)} indices but the "
                f"operand has rank {len(factor.shape)}"
            )
        for letter, extent in zip(fs, factor.shape):
            if extent is None:
                continue
            previous = extents.setdefault(letter, extent)
            if previous != extent:
                raise AnalysisError(
                    f"einsum index {letter!r} bound to extents "
                    f"{previous} and {extent}"
                )
    unbound = [letter for letter in out_part
               if all(letter not in fs for fs in factor_specs)]
    if unbound:
        raise AnalysisError(
            f"einsum output indices {unbound!r} not bound by any factor"
        )
    shape = tuple(extents.get(letter) for letter in out_part)
    return [AbstractValue(shape, common_dtype(operands))]


def _transfer_map(op, operands, analysis):
    fn = op.attr("fn")
    shape = merge_shapes([a.shape for a in operands], "map operands")
    if isinstance(fn, str) and fn.startswith("cmp"):
        dtype = "i1"
    else:
        dtype = common_dtype(operands)
    return [AbstractValue(shape, dtype)]


def _transfer_tensor_select(op, operands, analysis):
    cond, then, other = operands
    if cond.dtype is not None and cond.dtype != "i1":
        raise AnalysisError(
            f"select condition has dtype {cond.dtype}, not i1"
        )
    shape = merge_shapes([cond.shape, then.shape, other.shape],
                         "select operands")
    return [AbstractValue(shape, common_dtype([then, other]))]


def _transfer_stack(op, operands, analysis):
    inner = merge_shapes([a.shape for a in operands], "stack operands")
    shape = None if inner is None else inner + (len(operands),)
    return [AbstractValue(shape, common_dtype(operands))]


def _transfer_esn_iota(op, operands, analysis):
    extent = op.attr("extent")
    shape = (extent,) if _is_int(extent) else None
    return [AbstractValue(shape, None)]


def _transfer_gather(op, operands, analysis):
    base = operands[0]
    base_axes = op.attr("base_axes")
    if base.shape is not None and isinstance(base_axes, (list, tuple)) and \
            len(base_axes) != len(base.shape):
        raise AnalysisError(
            f"gather names {len(base_axes)} base_axes for an operand of "
            f"rank {len(base.shape)}"
        )
    return [AbstractValue(None, base.dtype)]


def _transfer_cfd_product(op, operands, analysis):
    lhs, rhs = operands
    shape = None
    if lhs.shape is not None and rhs.shape is not None:
        shape = lhs.shape + rhs.shape
    return [AbstractValue(shape, common_dtype(operands))]


def _transfer_cfd_binary(op, operands, analysis):
    # CFDlang binaries broadcast scalars over the tensor side.
    lhs, rhs = operands
    tensor_shapes = [s for s in (lhs.shape, rhs.shape)
                     if s is not None and s != ()]
    if tensor_shapes:
        shape = merge_shapes(tensor_shapes, "cfdlang operands")
    elif lhs.shape == () and rhs.shape == ():
        shape = ()
    else:
        shape = None
    return [AbstractValue(shape, common_dtype(operands))]


def _transfer_cfd_contract(op, operands, analysis):
    inner = operands[0]
    pairs = op.attr("pairs") or []
    if inner.shape is None:
        return [AbstractValue(None, inner.dtype)]
    rank = len(inner.shape)
    dropped = set()
    for pair in pairs:
        a, b = pair
        if not (_is_int(a) and _is_int(b) and 1 <= a <= rank and
                1 <= b <= rank):
            raise AnalysisError(
                f"contract pair {pair!r} out of range for rank {rank} "
                "(pairs are 1-based)"
            )
        da, db = inner.shape[a - 1], inner.shape[b - 1]
        if da is not None and db is not None and da != db:
            raise AnalysisError(
                f"contracted dims {a} and {b} have extents {da} and {db}"
            )
        dropped.update((a - 1, b - 1))
    shape = tuple(d for i, d in enumerate(inner.shape) if i not in dropped)
    return [AbstractValue(shape, inner.dtype)]


# -- canonicalization ------------------------------------------------------------


def _fold_identity_broadcast(op: Operation):
    if op.attr("in_axes") == op.attr("axes") and \
            op.operands[0].type == op.results[0].type:
        return op.operands[0]
    return None


def _fold_empty_reduce(op: Operation):
    if op.attr("axes") == [] and op.operands[0].type == op.results[0].type:
        return op.operands[0]
    return None


def _fold_select_same(op: Operation):
    if len(op.operands) == 3 and op.operands[1] is op.operands[2]:
        return op.operands[1]
    return None


# Identity elements of the elementwise map functions.  Only float-safe
# identities are listed (no ``x * 0`` — NaN/Inf); ``subf``/``divf`` fold on
# the right operand only.
_MAP_RIGHT_IDENTITY = {"addf": 0.0, "subf": 0.0, "mulf": 1.0, "divf": 1.0}
_MAP_LEFT_IDENTITY = {"addf": 0.0, "mulf": 1.0}


def _broadcast_source_const(value):
    """The scalar constant a value broadcasts from, or None.

    Chases through ``esn.broadcast``/``teil.broadcast`` producers to an
    ``arith.constant``/``ekl.literal`` (rank-0 literals are broadcast into
    the map's iteration space by the lowerings)."""
    producer = value.owner_op()
    while producer is not None and \
            producer.name in ("esn.broadcast", "teil.broadcast"):
        value = producer.operands[0]
        producer = value.owner_op()
    if producer is not None and \
            producer.name in ("arith.constant", "ekl.literal"):
        constant = producer.attr("value")
        if isinstance(constant, (bool, int, float)):
            return constant
    return None


def _fold_map_identity(op: Operation):
    """``map(addf)(x, broadcast(0.0)) -> x`` and friends."""
    if len(op.operands) != 2:
        return None
    fn = op.attr("fn")
    lhs, rhs = op.operands
    result_type = op.results[0].type
    right_id = _MAP_RIGHT_IDENTITY.get(fn)
    if right_id is not None and lhs.type == result_type and \
            _broadcast_source_const(rhs) == right_id:
        return lhs
    left_id = _MAP_LEFT_IDENTITY.get(fn)
    if left_id is not None and rhs.type == result_type and \
            _broadcast_source_const(lhs) == left_id:
        return rhs
    return None


def register() -> None:
    """Register the tensor-language dialects (idempotent)."""
    ekl = register_dialect("ekl", "EVEREST Kernel Language ops")
    if "kernel" not in ekl:
        ekl.op("kernel", "an EKL kernel body", num_operands=0, num_results=0,
               num_regions=1,
               required_attrs={"sym_name": "kernel name",
                               "index_space": "index name -> extent"},
               traits=("symbol",))
        ekl.op("arg", "bind a kernel argument tensor", num_operands=0,
               num_results=1, required_attrs={"name": "argument name"},
               traits=("pure", "interface"), verify=_verify_axes,
               transfer=_transfer_ekl_axes())
        ekl.op("literal", "scalar literal broadcast over axes",
               num_operands=0, num_results=1,
               required_attrs={"value": "the literal"}, traits=("pure",),
               transfer=_transfer_ekl_axes())
        ekl.op("index", "the value of an Einstein index", num_operands=0,
               num_results=1, required_attrs={"name": "index name"},
               traits=("pure",), transfer=_transfer_ekl_axes())
        for name in ("add", "sub", "mul", "div", "min", "max"):
            ekl.op(name, f"elementwise {name} with broadcasting",
                   num_operands=2, num_results=1, traits=("pure",),
                   verify=_verify_axes, transfer=_transfer_ekl_axes())
        for name in ("cmp_le", "cmp_lt", "cmp_ge", "cmp_gt", "cmp_eq"):
            ekl.op(name, "elementwise comparison", num_operands=2,
                   num_results=1, traits=("pure",), verify=_verify_axes,
                   transfer=_transfer_ekl_axes(result_dtype="i1"))
        ekl.op("select", "elementwise ternary select", num_operands=3,
               num_results=1, traits=("pure",), verify=_verify_axes,
               transfer=_transfer_ekl_axes())
        ekl.op("subscript", "index a tensor with index expressions",
               num_results=1, traits=("pure",), verify=_verify_axes,
               transfer=_transfer_ekl_axes())
        ekl.op("stack", "in-place construction: stack along a new axis",
               num_results=1, traits=("pure",), verify=_verify_axes,
               transfer=_transfer_ekl_axes())
        ekl.op("sum", "Einstein summation over named indices",
               num_operands=1, num_results=1,
               required_attrs={"over": "reduced index names"},
               traits=("pure",), verify=_verify_axes,
               transfer=_transfer_ekl_axes())
        ekl.op("call", "scalar intrinsic applied elementwise",
               num_results=1, required_attrs={"fn": "intrinsic name"},
               traits=("pure",), verify=_verify_axes,
               transfer=_transfer_ekl_axes())
        ekl.op("yield", "kernel result binding", num_results=0,
               required_attrs={"names": "output names"},
               traits=("terminator",))

    esn = register_dialect("esn", "Einstein notation dialect")
    if "einsum" not in esn:
        esn.op("einsum", "generalized tensor contraction", num_results=1,
               required_attrs={"spec": "einsum spec, e.g. 'ab,bc->ac'"},
               traits=("pure",), verify=_verify_einsum,
               transfer=_transfer_einsum)
        esn.op("gather", "indirect indexing (subscripted subscripts)",
               num_results=1,
               required_attrs={"spec": "gather axis spec"},
               traits=("pure",), transfer=_transfer_gather)
        esn.op("select", "elementwise select", num_operands=3, num_results=1,
               traits=("pure",), fold=_fold_select_same,
               transfer=_transfer_tensor_select)
        esn.op("map", "elementwise scalar function over operands",
               num_results=1, required_attrs={"fn": "scalar op name"},
               traits=("pure",), fold=_fold_map_identity,
               transfer=_transfer_map)
        esn.op("stack", "stack tensors along a new trailing axis",
               num_results=1, traits=("pure",), transfer=_transfer_stack)
        esn.op("iota", "index values along an axis", num_operands=0,
               num_results=1, required_attrs={"extent": "axis length"},
               traits=("pure",), transfer=_transfer_esn_iota)
        esn.op("broadcast", "insert broadcast axes", num_operands=1,
               num_results=1, traits=("pure",),
               fold=_fold_identity_broadcast, transfer=_transfer_broadcast)
        esn.op("reduce", "sum over named axes", num_operands=1,
               num_results=1, required_attrs={"axes": "axis positions"},
               traits=("pure",), fold=_fold_empty_reduce,
               transfer=_transfer_reduce)

    teil = register_dialect("teil", "Tensor Intermediate Language")
    if "reduce" not in teil:
        teil.op("reduce", "reduction over trailing axes", num_operands=1,
                num_results=1,
                required_attrs={"axes": "axes to reduce", "kind": "add/mul/max"},
                traits=("pure",), fold=_fold_empty_reduce,
                transfer=_transfer_reduce)
        teil.op("map", "elementwise op", num_results=1,
                required_attrs={"fn": "scalar op name"}, traits=("pure",),
                fold=_fold_map_identity, transfer=_transfer_map)
        teil.op("gather", "gather with integer index tensors", num_results=1,
                traits=("pure",), transfer=_transfer_gather)
        teil.op("stack", "stack along new trailing axis", num_results=1,
                traits=("pure",), transfer=_transfer_stack)
        teil.op("broadcast", "broadcast to shape", num_operands=1,
                num_results=1, traits=("pure",),
                fold=_fold_identity_broadcast, transfer=_transfer_broadcast)
        teil.op("iota", "0..n-1 vector", num_operands=0, num_results=1,
                traits=("pure",))
        teil.op("select", "elementwise select", num_operands=3, num_results=1,
                traits=("pure",), fold=_fold_select_same,
                transfer=_transfer_tensor_select)

    cfdlang = register_dialect("cfdlang", "legacy CFDlang frontend dialect")
    if "program" not in cfdlang:
        cfdlang.op("program", "a CFDlang program", num_operands=0,
                   num_results=0, num_regions=1,
                   required_attrs={"sym_name": "program name"},
                   traits=("symbol",))
        cfdlang.op("decl", "tensor variable declaration", num_operands=0,
                   num_results=1,
                   required_attrs={"name": "variable", "io": "in/out/var"},
                   traits=("pure", "interface"))
        cfdlang.op("product", "outer product", num_operands=2, num_results=1,
                   traits=("pure",), transfer=_transfer_cfd_product)
        cfdlang.op("contract", "contraction over paired dims", num_operands=1,
                   num_results=1,
                   required_attrs={"pairs": "dimension pairs"},
                   traits=("pure",), transfer=_transfer_cfd_contract)
        for name in ("add", "sub", "mul", "div"):
            cfdlang.op(name, f"elementwise {name}", num_operands=2,
                       num_results=1, traits=("pure",),
                       transfer=_transfer_cfd_binary)
        cfdlang.op("assign", "bind expression to output", num_operands=1,
                   num_results=0, required_attrs={"name": "output name"})


register()
