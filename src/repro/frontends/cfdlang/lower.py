"""Lowering of CFDlang programs: frontend -> ``cfdlang`` dialect -> ``teil``.

The cfdlang dialect keeps the language's surface structure (declarations,
outer products, paired contractions); the teil lowering normalizes it to the
same sum-of-products form EKL reaches, so the rest of the flow (loop
generation, HLS, Olympus) is shared — the convergence the paper's Fig. 5
depicts.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dialects import register_lowering
from repro.errors import LoweringError
from repro.frontends.cfdlang.check import check_program
from repro.frontends.cfdlang.parser import Expr, Program
from repro.ir import Builder, Module, Operation, Value, types as T
from repro.ir.core import Block, Region


@register_lowering("cfdlang-frontend", "cfdlang")
def lower_program_to_cfdlang(program: Program, name: str = "cfd") -> Module:
    """Lower a parsed program into a module holding one cfdlang.program."""
    check_program(program)
    module = Module()
    body = Block()
    program_op = Operation.create(
        "cfdlang.program", [], [], {"sym_name": name}, [Region([body])]
    )
    module.append(program_op)
    builder = Builder.at_end(body)
    env: Dict[str, Value] = {}
    for decl in program.decls:
        if decl.io != "input":
            continue
        op = builder.create(
            "cfdlang.decl", [], [T.TensorType(decl.shape, T.f64)],
            {"name": decl.name, "io": decl.io},
        )
        env[decl.name] = op.results[0]

    def lower_expr(expr: Expr) -> Value:
        if expr.kind == "name":
            return env[expr.name]
        if expr.kind == "num":
            op = builder.create("arith.constant", [],
                                [T.TensorType((), T.f64)],
                                {"value": expr.value})
            return op.results[0]
        if expr.kind in ("add", "sub", "mul", "div"):
            lhs = lower_expr(expr.children[0])
            rhs = lower_expr(expr.children[1])
            ty = lhs.type if isinstance(lhs.type, T.TensorType) and \
                lhs.type.rank else rhs.type
            op = builder.create(f"cfdlang.{expr.kind}", [lhs, rhs], [ty])
            return op.results[0]
        if expr.kind == "product":
            lhs = lower_expr(expr.children[0])
            rhs = lower_expr(expr.children[1])
            shape = lhs.type.shape + rhs.type.shape
            op = builder.create("cfdlang.product", [lhs, rhs],
                                [T.TensorType(shape, T.f64)])
            return op.results[0]
        if expr.kind == "contract":
            inner = lower_expr(expr.children[0])
            dropped = set()
            for a, b in expr.pairs:
                dropped.update((a - 1, b - 1))
            shape = tuple(e for i, e in enumerate(inner.type.shape)
                          if i not in dropped)
            op = builder.create(
                "cfdlang.contract", [inner], [T.TensorType(shape, T.f64)],
                {"pairs": [list(p) for p in expr.pairs]},
            )
            return op.results[0]
        raise LoweringError(f"unknown expression kind {expr.kind!r}")

    for assign in program.assigns:
        value = lower_expr(assign.value)
        builder.create("cfdlang.assign", [value], [],
                       {"name": assign.target})
        env[assign.target] = value
    return module


@register_lowering("cfdlang", "teil")
def lower_cfdlang_to_teil(module: Module, *, canonicalize: bool = True) -> Module:
    """Convert cfdlang ops into teil tensor ops inside a func.

    Canonicalizes the result (fold/DCE/CSE) unless ``canonicalize=False``.
    """
    out = Module()
    for program_op in module.body:
        if program_op.name != "cfdlang.program":
            continue
        body = Block()
        func = Operation.create(
            "func.func", [], [],
            {"sym_name": program_op.attr("sym_name"),
             "function_type": T.FunctionType((), ()),
             "kernel_lang": "teil"},
            [Region([body])],
        )
        out.append(func)
        builder = Builder.at_end(body)
        mapping: Dict[Value, Value] = {}
        outputs: List[Value] = []
        output_names: List[str] = []
        for op in program_op.regions[0].entry:
            if op.name == "cfdlang.decl":
                axes = [f"d{i}" for i in range(op.results[0].type.rank)]
                new = builder.create("ekl.arg", [], [op.results[0].type],
                                     {"name": op.attr("name"), "axes": axes})
                mapping[op.results[0]] = new.results[0]
            elif op.name == "arith.constant":
                new = builder.create("arith.constant", [],
                                     [op.results[0].type],
                                     dict(op.attributes))
                mapping[op.results[0]] = new.results[0]
            elif op.name in ("cfdlang.add", "cfdlang.sub", "cfdlang.mul",
                             "cfdlang.div"):
                fn = {"add": "addf", "sub": "subf", "mul": "mulf",
                      "div": "divf"}[op.opname]
                rank = op.results[0].type.rank
                axes = [f"d{i}" for i in range(rank)]
                new = builder.create(
                    "teil.map", [mapping[o] for o in op.operands],
                    [op.results[0].type], {"fn": fn, "axes": axes},
                )
                mapping[op.results[0]] = new.results[0]
            elif op.name == "cfdlang.product":
                mapping[op.results[0]] = _lower_product(builder, op, mapping)
            elif op.name == "cfdlang.contract":
                mapping[op.results[0]] = _lower_contract(builder, op, mapping)
            elif op.name == "cfdlang.assign":
                outputs.append(mapping[op.operands[0]])
                output_names.append(op.attr("name"))
        builder.create("func.return", outputs, [], {"names": output_names})
    if canonicalize:
        from repro.ir.canonicalize import canonicalize_module

        canonicalize_module(out)
    return out


def _lower_product(builder: Builder, op: Operation,
                   mapping: Dict[Value, Value]) -> Value:
    """Outer product: broadcast both sides to the joint space, multiply."""
    lhs, rhs = op.operands
    joint = op.results[0].type
    lhs_rank = lhs.type.rank
    joint_axes = [f"d{i}" for i in range(joint.rank)]
    lhs_axes = joint_axes[:lhs_rank]
    rhs_axes = joint_axes[lhs_rank:]
    lhs_b = builder.create(
        "teil.broadcast", [mapping[lhs]], [joint],
        {"in_axes": lhs_axes, "axes": joint_axes},
    ).results[0]
    rhs_b = builder.create(
        "teil.broadcast", [mapping[rhs]], [joint],
        {"in_axes": rhs_axes, "axes": joint_axes},
    ).results[0]
    return builder.create("teil.map", [lhs_b, rhs_b], [joint],
                          {"fn": "mulf", "axes": joint_axes}).results[0]


def _lower_contract(builder: Builder, op: Operation,
                    mapping: Dict[Value, Value]) -> Value:
    """Paired contraction: a diagonal gather followed by a reduction."""
    inner = op.operands[0]
    inner_type = inner.type
    pairs = [(a - 1, b - 1) for a, b in op.attr("pairs")]
    # Diagonal extraction: axes in a pair share one loop index.  Model it as
    # a teil.gather whose output axes reuse the first axis label of each pair.
    labels = [f"d{i}" for i in range(inner_type.rank)]
    for a, b in pairs:
        labels[b] = labels[a]
    out_axes: List[str] = []
    diag_shape: List[int] = []
    for i, label in enumerate(labels):
        if label not in out_axes:
            out_axes.append(label)
            diag_shape.append(inner_type.shape[i])
    diag_type = T.TensorType(tuple(diag_shape), T.f64)
    diag = builder.create(
        "teil.gather", [mapping[inner]], [diag_type],
        {"axes": out_axes, "binding": [-1] * inner_type.rank,
         "base_axes": labels, "sub_axes": []},
    ).results[0]
    # Reduce the paired labels.
    contracted = sorted({labels[a] for a, _ in pairs})
    positions = [out_axes.index(label) for label in contracted]
    if not positions:
        return diag
    return builder.create(
        "teil.reduce", [diag], [op.results[0].type],
        {"axes": positions, "kind": "add",
         "out_axes": [a for a in out_axes if a not in contracted]},
    ).results[0]
