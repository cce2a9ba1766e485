"""A compact MLIR-style intermediate representation (paper §V, Fig. 5).

This package provides the IR substrate the EVEREST SDK reproduction is built
on: types, attributes, generic operations with regions, a builder, a textual
printer (MLIR's generic form; the IR is built, never read back from text),
a verifier driven by declarative dialect definitions, and a
pass/pattern-rewrite infrastructure.

Quick tour::

    from repro.ir import Module, Builder, types as T

    m = Module()
    b = Builder.at_end(m.body)
    c = b.create("arith.constant", result_types=[T.f64],
                 attributes={"value": 2.0}).result
    print(m)                    # generic MLIR syntax
"""

from repro.ir import types
from repro.ir.analysis import (
    TOP,
    AbstractValue,
    AnalysisError,
    ModuleAnalysis,
    from_type,
    op_path,
)
from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DictAttr,
    FloatAttr,
    IntAttr,
    StrAttr,
    TypeAttr,
    attr,
    unwrap,
)
from repro.ir.builder import Builder, build_func
from repro.ir.canonicalize import (
    CanonicalizePass,
    EraseTriviallyDead,
    FoldPatterns,
    canonical_pattern_set,
    canonicalize_module,
    constant_value,
)
from repro.ir.core import (
    Block,
    BlockArgument,
    Module,
    Operation,
    OpResult,
    Region,
    Value,
)
from repro.ir.dialect import REGISTRY, Dialect, DialectRegistry, OpDef, register_dialect
from repro.ir.fusion import FusionPass
from repro.ir.passes import CommonSubexpressionElimination, Pass
from repro.ir.printer import print_module, print_op
from repro.ir.rewrite import (
    PatternRewriter,
    RewritePattern,
    apply_patterns_worklist,
    is_attached,
)
from repro.ir.verifier import verify, verify_typed

__all__ = [
    "types",
    "AbstractValue",
    "AnalysisError",
    "ModuleAnalysis",
    "TOP",
    "from_type",
    "op_path",
    "Attribute",
    "IntAttr",
    "FloatAttr",
    "BoolAttr",
    "StrAttr",
    "TypeAttr",
    "ArrayAttr",
    "DictAttr",
    "attr",
    "unwrap",
    "Builder",
    "build_func",
    "Block",
    "BlockArgument",
    "Module",
    "Operation",
    "OpResult",
    "Region",
    "Value",
    "Dialect",
    "DialectRegistry",
    "OpDef",
    "REGISTRY",
    "register_dialect",
    "print_module",
    "print_op",
    "verify",
    "verify_typed",
    "Pass",
    "RewritePattern",
    "PatternRewriter",
    "apply_patterns_worklist",
    "is_attached",
    "CommonSubexpressionElimination",
    "CanonicalizePass",
    "EraseTriviallyDead",
    "FoldPatterns",
    "canonical_pattern_set",
    "canonicalize_module",
    "constant_value",
    "FusionPass",
]
