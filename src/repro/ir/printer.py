"""Textual IR printer (MLIR generic form).

The printer emits every operation in the fully generic syntax::

    %0 = "arith.constant"() {value = 1.0 : f64} : () -> f64
    %1:2 = "d.pair"(%0) : (f64) -> (f64, f64)
    "func.return"(%1#0) : (f64) -> ()

Values are numbered in encounter order with a single namespace (block
arguments included), so a module prints the same text on every run: the
golden files and ``make fuzz-ir-parent`` compare that text byte for byte.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.core import Block, Module, Operation, Region, Value
from repro.ir.types import FunctionType


class _PrintState:
    def __init__(self) -> None:
        self.value_names: Dict[Value, str] = {}
        self.next_value = 0
        self.next_block = 0

    def name_of(self, value: Value) -> str:
        name = self.value_names.get(value)
        if name is None:
            # A forward reference should not happen in verified IR, but a
            # readable placeholder beats a crash while debugging passes.
            name = f"%<unknown{self.next_value}>"
        return name

    def define_op_results(self, op: Operation) -> str:
        """Assign names to op results, returning the LHS text (or '')."""
        if not op.results:
            return ""
        base = f"%{self.next_value}"
        self.next_value += 1
        if len(op.results) == 1:
            self.value_names[op.results[0]] = base
            return f"{base} = "
        for i, result in enumerate(op.results):
            self.value_names[result] = f"{base}#{i}"
        return f"{base}:{len(op.results)} = "

    def define_block_arg(self, value: Value) -> str:
        name = f"%{self.next_value}"
        self.next_value += 1
        self.value_names[value] = name
        return name

    def block_label(self) -> str:
        label = f"^bb{self.next_block}"
        self.next_block += 1
        return label


def _print_op(op: Operation, state: _PrintState, indent: int, out: list) -> None:
    pad = "  " * indent
    lhs = state.define_op_results(op)
    operand_names = ", ".join(state.name_of(v) for v in op.operands)
    text = f'{pad}{lhs}"{op.name}"({operand_names})'
    if op.regions:
        out.append(text + " (")
        for ri, region in enumerate(op.regions):
            _print_region(region, state, indent, out)
            if ri + 1 < len(op.regions):
                out[-1] += ", "
        text = pad + ")"
    if op.attributes:
        body = ", ".join(f"{k} = {v}" for k, v in sorted(op.attributes.items()))
        text += " {" + body + "}"
    in_types = ", ".join(str(v.type) for v in op.operands)
    out_types = [str(r.type) for r in op.results]
    if len(out_types) == 1:
        # A bare function-type result would make the signature ambiguous
        # ("(...) -> (...) -> ..."): parenthesize it (found by irfuzz).
        if isinstance(op.results[0].type, FunctionType):
            sig = f"({in_types}) -> ({out_types[0]})"
        else:
            sig = f"({in_types}) -> {out_types[0]}"
    else:
        sig = f"({in_types}) -> ({', '.join(out_types)})"
    text += f" : {sig}"
    out.append(text)


def _print_region(region: Region, state: _PrintState, indent: int, out: list) -> None:
    pad = "  " * indent
    out.append(pad + "{")
    for block in region.blocks:
        _print_block(block, state, indent + 1, out)
    out.append(pad + "}")


def _print_block(block: Block, state: _PrintState, indent: int, out: list) -> None:
    pad = "  " * (indent - 1)
    needs_header = bool(block.args) or (
        block.parent is not None and len(block.parent.blocks) > 1
    )
    if needs_header:
        label = state.block_label()
        args = ", ".join(
            f"{state.define_block_arg(a)}: {a.type}" for a in block.args
        )
        header = f"{pad}{label}({args}):" if args else f"{pad}{label}:"
        out.append(header)
    for op in block.operations:
        _print_op(op, state, indent, out)


def print_op(op: Operation) -> str:
    """Print a single operation (and everything nested in it)."""
    state = _PrintState()
    out: list = []
    _print_op(op, state, 0, out)
    return "\n".join(out)


def print_module(module: Module) -> str:
    """Print a whole module, ending in a newline."""
    return print_op(module.op) + "\n"
