"""Core dialects: ``builtin``, ``func``, ``arith``, ``math``, ``memref``
and ``affine``.

These play the role of MLIR's upstream ("green" in the paper's Fig. 5)
dialects that the EVEREST dialects lower into and the executors run.  Only
the ops the SDK builds are defined; each op registration gives the verifier
enough structure to be useful.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import IRError
from repro.ir.analysis import (
    MEMREF_ALLOC_ZERO_INIT,
    AbstractValue,
    AnalysisError,
    cast,
    common_dtype,
    comparison,
    elementwise,
    from_type,
    merge_shapes,
)
from repro.ir.canonicalize import constant_value
from repro.ir.core import Operation
from repro.ir.dialect import VARIADIC, register_dialect
from repro.ir.types import FunctionType, MemRefType, TensorType


def _verify_binary_same_type(op: Operation) -> None:
    lhs, rhs = op.operands
    if lhs.type != rhs.type:
        raise IRError(f"{op.name}: operand types differ ({lhs.type} vs {rhs.type})")
    if op.results and op.results[0].type != lhs.type:
        raise IRError(f"{op.name}: result type differs from operand type")


def _verify_func(op: Operation) -> None:
    ftype = op.attr("function_type")
    if not isinstance(ftype, FunctionType):
        raise IRError(f"{op.name}: function_type attribute must be a FunctionType")
    entry = op.regions[0].entry
    arg_types = tuple(a.type for a in entry.args)
    if arg_types != ftype.inputs:
        raise IRError(
            f"{op.name} @{op.attr('sym_name')}: entry block args {arg_types} "
            f"do not match signature {ftype.inputs}"
        )


def _verify_load(op: Operation) -> None:
    ref = op.operands[0].type
    if not isinstance(ref, MemRefType):
        raise IRError(f"{op.name}: first operand must be a memref, got {ref}")
    if len(op.operands) - 1 != ref.rank:
        raise IRError(
            f"{op.name}: {len(op.operands) - 1} indices for rank-{ref.rank} memref"
        )


def _verify_store(op: Operation) -> None:
    ref = op.operands[1].type
    if not isinstance(ref, MemRefType):
        raise IRError(f"{op.name}: second operand must be a memref, got {ref}")
    if len(op.operands) - 2 != ref.rank:
        raise IRError(
            f"{op.name}: {len(op.operands) - 2} indices for rank-{ref.rank} memref"
        )


# -- fold hooks (canonicalization) -----------------------------------------------
#
# Fold hooks return an existing Value, a plain constant (materialized as
# arith.constant by the driver) or None.  Float identities keep IEEE
# semantics: ``x * 0.0`` is NOT folded (NaN/Inf), ``x + 0.0`` is (only
# observable on -0.0 inputs, which the SDK's kernels never produce at
# compile time).  Integer folds mirror the affine interpreter exactly
# (``//`` and ``%`` semantics), keeping the differential tests bit-exact.


def _scalar_const(value):
    constant = constant_value(value)
    if isinstance(constant, (bool, int, float)):
        return constant
    return None


_CMP_PREDICATES = {
    "le": lambda a, b: a <= b, "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b, "gt": lambda a, b: a > b,
    "eq": lambda a, b: a == b, "ne": lambda a, b: a != b,
}


def _make_binary_fold(py, *, left_id=None, right_id=None, absorb=None):
    """Fold factory: constant x constant, identity and absorbing elements."""

    def fold(op: Operation):
        lhs, rhs = op.operands
        a, b = _scalar_const(lhs), _scalar_const(rhs)
        if a is not None and b is not None:
            try:
                return py(a, b)
            except (ZeroDivisionError, OverflowError, ValueError):
                return None
        if right_id is not None and b == right_id:
            return lhs
        if left_id is not None and a == left_id:
            return rhs
        if absorb is not None and (a == absorb or b == absorb):
            return absorb
        return None

    return fold


def _fold_cmp(op: Operation):
    a, b = _scalar_const(op.operands[0]), _scalar_const(op.operands[1])
    predicate = _CMP_PREDICATES.get(op.attr("predicate"))
    if a is None or b is None or predicate is None:
        return None
    return bool(predicate(a, b))


def _fold_select(op: Operation):
    _, then, otherwise = op.operands
    if then is otherwise:
        return then
    cond = _scalar_const(op.operands[0])
    if cond is None:
        return None
    return then if cond else otherwise


def _fold_negf(op: Operation):
    constant = _scalar_const(op.operands[0])
    if constant is not None:
        return -constant
    producer = op.operands[0].owner_op()
    if producer is not None and producer.name == "arith.negf":
        return producer.operands[0]
    return None


def _make_cast_fold(py):
    def fold(op: Operation):
        constant = _scalar_const(op.operands[0])
        if constant is None:
            return None
        try:
            return py(constant)
        except (ValueError, OverflowError):
            return None

    return fold


def _make_math_fold(py):
    def fold(op: Operation):
        constants = [_scalar_const(operand) for operand in op.operands]
        if any(constant is None for constant in constants):
            return None
        try:
            return py(*constants)
        except (ValueError, OverflowError, ZeroDivisionError):
            return None

    return fold


def _np_scalar_fold(ufunc):
    """A fold callable with numpy's scalar-ufunc semantics.

    The affine interpreter and the compiled executor both evaluate these
    ops through numpy ufuncs (bit-identical between the scalar and array
    paths), so compile-time folds must use the same routine — ``max`` and
    ``math.pow`` disagree with numpy on NaN, signed zeros and last-ulp
    rounding.  Declines the fold (ValueError) on non-finite results from
    finite operands, e.g. ``pow(-2.0, 0.5)``.
    """

    def fold(a, b):
        with np.errstate(all="ignore"):
            result = float(ufunc(np.float64(a), np.float64(b)))
        if not math.isfinite(result) and \
                math.isfinite(a) and math.isfinite(b):
            raise ValueError(f"{ufunc.__name__}({a}, {b}) is non-finite")
        return result

    return fold


# Matches the affine interpreter's scalar semantics (affine_interp._BINOPS).
_FLOAT_FOLDS = {
    "addf": _make_binary_fold(lambda a, b: a + b, left_id=0.0, right_id=0.0),
    "subf": _make_binary_fold(lambda a, b: a - b, right_id=0.0),
    "mulf": _make_binary_fold(lambda a, b: a * b, left_id=1.0, right_id=1.0),
    "divf": _make_binary_fold(lambda a, b: a / b, right_id=1.0),
    "maximumf": _make_binary_fold(_np_scalar_fold(np.maximum)),
    "minimumf": _make_binary_fold(_np_scalar_fold(np.minimum)),
    "remf": _make_binary_fold(math.fmod),
    "powf": _make_binary_fold(_np_scalar_fold(np.power)),
}

_INT_FOLDS = {
    "addi": _make_binary_fold(lambda a, b: a + b, left_id=0, right_id=0),
    "subi": _make_binary_fold(lambda a, b: a - b, right_id=0),
    "muli": _make_binary_fold(lambda a, b: a * b, left_id=1, right_id=1,
                              absorb=0),
    "divsi": _make_binary_fold(lambda a, b: int(a) // int(b), right_id=1),
    "remsi": _make_binary_fold(lambda a, b: int(a) % int(b)),
    "andi": _make_binary_fold(lambda a, b: int(a) & int(b), absorb=0),
    "ori": _make_binary_fold(lambda a, b: int(a) | int(b), left_id=0,
                             right_id=0),
    "xori": _make_binary_fold(lambda a, b: int(a) ^ int(b), left_id=0,
                              right_id=0),
    "shli": _make_binary_fold(lambda a, b: int(a) << int(b) if 0 <= b < 64
                              else None, right_id=0),
    "shrsi": _make_binary_fold(lambda a, b: int(a) >> int(b) if 0 <= b < 64
                               else None, right_id=0),
    "maxsi": _make_binary_fold(max),
    "minsi": _make_binary_fold(min),
}

def _np_unary_fold(ufunc):
    """Unary counterpart of :func:`_np_scalar_fold` (same rationale)."""

    def fold(a):
        with np.errstate(all="ignore"):
            result = float(ufunc(np.float64(a)))
        if not math.isfinite(result) and math.isfinite(a):
            raise ValueError(f"{ufunc.__name__}({a}) is non-finite")
        return result

    return fold


# Matches affine_interp._MATH so compile-time folds are bit-identical to
# the interpreted result.
_MATH_FOLDS = {
    "exp": _make_math_fold(_np_unary_fold(np.exp)),
    "log": _make_math_fold(_np_unary_fold(np.log)),
    "sqrt": _make_math_fold(_np_unary_fold(np.sqrt)),
    "sin": _make_math_fold(_np_unary_fold(np.sin)),
    "cos": _make_math_fold(_np_unary_fold(np.cos)),
    "tanh": _make_math_fold(_np_unary_fold(np.tanh)),
    "atan2": _make_math_fold(math.atan2), "erf": _make_math_fold(math.erf),
    "abs": _make_math_fold(abs),
}


# -- transfer functions (abstract interpretation) --------------------------------
#
# Registered alongside the OpDefs below; see repro.ir.analysis.  These are
# the "green"-dialect rules: scalar arithmetic keeps shapes aligned, memref
# access respects rank and element dtype, and memref.alloc carries the
# zero-init contract (const=0 at definition) the executors guarantee.


def _transfer_constant(op, operands, analysis):
    declared = from_type(op.results[0].type)
    value = op.attr("value")
    const = value if isinstance(value, (bool, int, float)) else None
    return [AbstractValue(declared.shape, declared.dtype, const)]


def _transfer_select(op, operands, analysis):
    cond, a, b = operands
    if cond.dtype is not None and cond.dtype != "i1":
        raise AnalysisError(f"select condition has dtype {cond.dtype}, not i1")
    shape = merge_shapes([a.shape, b.shape], "select arms")
    return [AbstractValue(shape, common_dtype([a, b]))]


def _transfer_alloc(op, operands, analysis):
    declared = from_type(op.results[0].type)
    # Fresh buffers are zero-initialized by every executor (interpreter,
    # codegen, cbackend, arena); record the contract at the definition.
    return [AbstractValue(declared.shape, declared.dtype,
                          MEMREF_ALLOC_ZERO_INIT)]


def _transfer_load(op, operands, analysis):
    ref = operands[0]
    indices = operands[1:]
    if ref.shape is not None and len(indices) != len(ref.shape):
        raise AnalysisError(
            f"{len(indices)} indices for rank-{len(ref.shape)} memref"
        )
    return [AbstractValue((), ref.dtype)]


def _transfer_store(op, operands, analysis):
    value, ref = operands[0], operands[1]
    indices = operands[2:]
    if ref.shape is not None and len(indices) != len(ref.shape):
        raise AnalysisError(
            f"{len(indices)} indices for rank-{len(ref.shape)} memref"
        )
    if value.shape is not None and value.shape != ():
        raise AnalysisError("stored value is not a scalar")
    if (value.dtype is not None and ref.dtype is not None
            and value.dtype != ref.dtype):
        raise AnalysisError(
            f"stored {value.dtype} into memref of {ref.dtype}"
        )
    return []


def _transfer_memref_copy(op, operands, analysis):
    src, dst = operands
    merge_shapes([src.shape, dst.shape], "memref.copy source/destination")
    if (src.dtype is not None and dst.dtype is not None
            and src.dtype != dst.dtype):
        raise AnalysisError(
            f"copy between element dtypes {src.dtype} and {dst.dtype}"
        )
    return []


def register() -> None:
    """Register all core dialects into the global registry (idempotent)."""
    builtin = register_dialect("builtin", "top-level containers")
    if "module" not in builtin:
        builtin.op("module", "top-level container", num_operands=0,
                   num_results=0, num_regions=1)

    func = register_dialect("func", "functions and returns")
    if "func" not in func:
        func.op(
            "func",
            "a function definition",
            num_operands=0,
            num_results=0,
            num_regions=1,
            required_attrs={"sym_name": "function name",
                            "function_type": "signature"},
            traits=("symbol", "isolated"),
            verify=_verify_func,
        )
        func.op("return", "function terminator", num_regions=0,
                num_results=0, traits=("terminator",))

    arith = register_dialect("arith", "scalar arithmetic")
    if "constant" not in arith:
        arith.op("constant", "literal constant", num_operands=0, num_results=1,
                 required_attrs={"value": "the constant"}, traits=("pure",),
                 transfer=_transfer_constant)
        for name in ("addf", "subf", "mulf", "divf", "maximumf", "minimumf",
                     "remf", "powf"):
            arith.op(name, f"float {name}", num_operands=2, num_results=1,
                     traits=("pure",), verify=_verify_binary_same_type,
                     fold=_FLOAT_FOLDS[name], transfer=elementwise())
        for name in ("addi", "subi", "muli", "divsi", "remsi", "andi", "ori",
                     "xori", "shli", "shrsi", "maxsi", "minsi"):
            arith.op(name, f"integer {name}", num_operands=2, num_results=1,
                     traits=("pure",), verify=_verify_binary_same_type,
                     fold=_INT_FOLDS[name], transfer=elementwise())
        arith.op("negf", "float negation", num_operands=1, num_results=1,
                 traits=("pure",), fold=_fold_negf, transfer=elementwise())
        arith.op("cmpf", "float comparison", num_operands=2, num_results=1,
                 required_attrs={"predicate": "lt/le/gt/ge/eq/ne"},
                 traits=("pure",), fold=_fold_cmp, transfer=comparison())
        arith.op("cmpi", "integer comparison", num_operands=2, num_results=1,
                 required_attrs={"predicate": "lt/le/gt/ge/eq/ne"},
                 traits=("pure",), fold=_fold_cmp, transfer=comparison())
        arith.op("select", "ternary select", num_operands=3, num_results=1,
                 traits=("pure",), fold=_fold_select,
                 transfer=_transfer_select)
        arith.op("index_cast", "index <-> integer cast", num_operands=1,
                 num_results=1, traits=("pure",),
                 fold=_make_cast_fold(lambda value: value), transfer=cast())
        arith.op("sitofp", "signed int to float", num_operands=1,
                 num_results=1, traits=("pure",),
                 fold=_make_cast_fold(float), transfer=cast())
        arith.op("fptosi", "float to signed int", num_operands=1,
                 num_results=1, traits=("pure",),
                 fold=_make_cast_fold(int), transfer=cast())
        arith.op("truncf", "float precision truncation", num_operands=1,
                 num_results=1, traits=("pure",), transfer=cast())
        arith.op("extf", "float precision extension", num_operands=1,
                 num_results=1, traits=("pure",), transfer=cast())

    math_dialect = register_dialect("math", "transcendental functions")
    if "exp" not in math_dialect:
        for name in ("exp", "log", "sqrt", "sin", "cos", "tanh", "atan2",
                     "erf", "abs"):
            arity = 2 if name == "atan2" else 1
            math_dialect.op(name, f"math.{name}", num_operands=arity,
                            num_results=1, traits=("pure",),
                            fold=_MATH_FOLDS[name], transfer=elementwise())

    memref = register_dialect("memref", "mutable buffers")
    if "alloc" not in memref:
        memref.op("alloc", "allocate a buffer (zero-initialized)",
                  num_operands=0, num_results=1, transfer=_transfer_alloc)
        memref.op("load", "read an element", num_results=1,
                  verify=_verify_load, transfer=_transfer_load)
        memref.op("store", "write an element", num_results=0,
                  verify=_verify_store, transfer=_transfer_store)
        memref.op("copy", "bulk copy", num_operands=2, num_results=0,
                  transfer=_transfer_memref_copy)

    affine = register_dialect("affine", "counted loop nests")
    if "for" not in affine:
        affine.op(
            "for",
            "counted loop: constant bounds in attributes, IV as block arg",
            num_operands=0,
            num_results=0,
            num_regions=1,
            required_attrs={"lower": "inclusive lower bound",
                            "upper": "exclusive upper bound",
                            "step": "stride"},
        )
        affine.op("yield", "loop terminator", num_operands=VARIADIC,
                  num_results=0, traits=("terminator",))


register()
