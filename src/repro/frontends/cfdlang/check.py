"""The CFDlang shape checker: one gate before a program runs or lowers.

:func:`~repro.frontends.cfdlang.interp.run_program` and
:func:`~repro.frontends.cfdlang.lower.lower_program_to_cfdlang` both call
:func:`check_program`, so a program the interpreter refuses never
reaches the lowering, where a contraction pair past the operand's rank
would index out of range and a pair below 1 would wrap around.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import FrontendError, TypeCheckError
from repro.frontends.cfdlang.parser import Expr, Program

Shape = Tuple[int, ...]


def _shape_of(expr: Expr, shapes: Dict[str, Shape]) -> Shape:
    if expr.kind == "name":
        if expr.name not in shapes:
            raise FrontendError(f"value {expr.name!r} not available")
        return shapes[expr.name]
    if expr.kind == "num":
        return ()
    if expr.kind in ("add", "sub", "mul", "div"):
        lhs = _shape_of(expr.children[0], shapes)
        rhs = _shape_of(expr.children[1], shapes)
        if lhs and rhs and lhs != rhs:
            raise TypeCheckError(
                f"elementwise {expr.kind} on mismatched shapes {lhs} vs {rhs}"
            )
        return lhs or rhs
    if expr.kind == "product":
        return _shape_of(expr.children[0], shapes) \
            + _shape_of(expr.children[1], shapes)
    if expr.kind == "contract":
        inner = _shape_of(expr.children[0], shapes)
        dropped = set()
        for a, b in expr.pairs:
            if not (1 <= a <= len(inner) and 1 <= b <= len(inner)):
                raise TypeCheckError(f"contraction pair ({a} {b}) out of range")
            if inner[a - 1] != inner[b - 1]:
                raise TypeCheckError(
                    f"contraction pair ({a} {b}) over unequal extents"
                )
            dropped.update((a - 1, b - 1))
        return tuple(e for i, e in enumerate(inner) if i not in dropped)
    raise FrontendError(f"unknown expression kind {expr.kind!r}")


def check_program(program: Program) -> None:
    """Refuse a program whose shapes do not check.

    Assignments are checked in order: every name read is an input or
    assigned earlier, elementwise operands agree in shape (a scalar
    broadcasts), contraction pairs are 1-based dimensions of equal
    extent, and each assignment's shape is its target's declared one.
    Every output must be assigned.
    """
    shapes: Dict[str, Shape] = {decl.name: decl.shape
                                for decl in program.decls
                                if decl.io == "input"}
    for assign in program.assigns:
        shape = _shape_of(assign.value, shapes)
        declared = program.decl(assign.target).shape
        if shape != declared:
            raise TypeCheckError(
                f"assignment to {assign.target!r}: expression shape {shape} "
                f"does not match declaration {declared}"
            )
        shapes[assign.target] = shape
    for decl in program.decls:
        if decl.io == "output" and decl.name not in shapes:
            raise FrontendError(f"output {decl.name!r} never assigned")
