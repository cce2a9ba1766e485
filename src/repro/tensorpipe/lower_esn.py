"""Lowering of the Einstein-notation dialect (``esn``) into TeIL (``teil``).

``esn.einsum`` is decomposed into explicit broadcasts, an elementwise
product chain and a reduction — the classic sum-of-products normal form
TeIL uses; all other esn ops map 1:1 onto their teil counterparts.  The
output keeps the factors' letters in the order they first appear (how EKL
builds every einsum); a spec that reorders them is a ``LoweringError``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dialects import register_lowering
from repro.errors import LoweringError
from repro.ir import Builder, Module, Operation, Value, types as T


@register_lowering("esn", "teil")
def lower_esn_to_teil(module: Module, *, canonicalize: bool = True) -> Module:
    """Rewrite every esn op in every function into teil ops.

    Canonicalizes the result (fold/DCE/CSE) unless ``canonicalize=False``.
    """
    from repro.ir.canonicalize import canonicalize_module
    from repro.ir.core import Block, Region

    out = Module()
    for func in module.body:
        if func.name != "func.func":
            continue
        body = Block()
        new_func = Operation.create(
            "func.func", [], [],
            {"sym_name": func.attr("sym_name"),
             "function_type": func.attributes["function_type"],
             "kernel_lang": "teil"},
            [Region([body])],
        )
        out.append(new_func)
        builder = Builder.at_end(body)
        mapping: Dict[Value, Value] = {}
        for op in func.regions[0].entry:
            _convert(op, builder, mapping)
    return canonicalize_module(out) if canonicalize else out


def _convert(op: Operation, builder: Builder,
             mapping: Dict[Value, Value]) -> None:
    def operands() -> List[Value]:
        return [mapping[o] for o in op.operands]

    if op.name in ("ekl.arg", "arith.constant"):
        clone = builder.create(op.name, [], [r.type for r in op.results],
                               dict(op.attributes))
        mapping[op.results[0]] = clone.results[0]
        return
    if op.name == "func.return":
        builder.create("func.return", operands(), [], dict(op.attributes))
        return
    if op.name == "esn.map":
        new = builder.create("teil.map", operands(),
                             [op.results[0].type],
                             {"fn": op.attr("fn"), "axes": op.attr("axes")})
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.select":
        new = builder.create("teil.select", operands(),
                             [op.results[0].type],
                             {"axes": op.attr("axes")})
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.stack":
        new = builder.create("teil.stack", operands(),
                             [op.results[0].type],
                             {"axes": op.attr("axes")})
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.broadcast":
        new = builder.create("teil.broadcast", operands(),
                             [op.results[0].type],
                             {"in_axes": op.attr("in_axes"),
                              "axes": op.attr("axes")})
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.iota":
        new = builder.create("teil.iota", [], [op.results[0].type],
                             {"axes": op.attr("axes")})
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.reduce":
        new = builder.create("teil.reduce", operands(),
                             [op.results[0].type],
                             {"axes": op.attr("axes"), "kind": "add",
                              "out_axes": op.attr("out_axes")})
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.gather":
        new = builder.create(
            "teil.gather", operands(), [op.results[0].type],
            {"axes": op.attr("axes"), "binding": op.attr("binding"),
             "base_axes": op.attr("base_axes"),
             "sub_axes": op.attr("sub_axes") or []},
        )
        mapping[op.results[0]] = new.results[0]
        return
    if op.name == "esn.einsum":
        _convert_einsum(op, builder, mapping)
        return
    raise LoweringError(f"cannot lower {op.name} to teil")


def _convert_einsum(op: Operation, builder: Builder,
                    mapping: Dict[Value, Value]) -> None:
    """einsum = broadcast each factor to the union space, multiply, reduce."""
    spec = op.attr("spec")
    in_specs, out_spec = spec.split("->")
    factor_specs = in_specs.split(",")
    # Union iteration space, ordered by first appearance in the spec.
    union: List[str] = []
    for fs in factor_specs:
        for letter in fs:
            if letter not in union:
                union.append(letter)
    # The kept letters come out in union order; nothing reorders them.
    remaining = [letter for letter in union if letter in out_spec]
    if remaining != list(out_spec):
        raise LoweringError(
            f"einsum {spec!r}: output {out_spec!r} is not in the order the "
            f"factors first name its letters ({''.join(remaining)!r})"
        )
    # Extents per letter, from the factor operand types.
    extents: Dict[str, int] = {}
    for fs, operand in zip(factor_specs, op.operands):
        ty = operand.type
        if not isinstance(ty, T.TensorType):
            raise LoweringError("einsum factor is not a tensor")
        for letter, extent in zip(fs, ty.shape):
            extents[letter] = extent
    element = op.results[0].type.element
    union_shape = tuple(extents[letter] for letter in union)
    union_type = T.TensorType(union_shape, element)
    # Broadcast every factor to the union space.
    broadcast: List[Value] = []
    for fs, operand in zip(factor_specs, op.operands):
        mapped = mapping[operand]
        if list(fs) == union:
            broadcast.append(mapped)
            continue
        bop = builder.create(
            "teil.broadcast", [mapped], [union_type],
            {"in_axes": list(fs), "axes": list(union)},
        )
        broadcast.append(bop.results[0])
    # Multiply pairwise.
    product = broadcast[0]
    for factor in broadcast[1:]:
        mop = builder.create("teil.map", [product, factor], [union_type],
                             {"fn": "mulf", "axes": list(union)})
        product = mop.results[0]
    # Reduce the letters not in the output.
    reduce_positions = [i for i, letter in enumerate(union)
                        if letter not in out_spec]
    if reduce_positions:
        red_type = T.TensorType(
            tuple(extents[letter] for letter in remaining), element
        )
        rop = builder.create(
            "teil.reduce", [product], [red_type],
            {"axes": reduce_positions, "kind": "add",
             "out_axes": remaining},
        )
        product = rop.results[0]
    mapping[op.results[0]] = product
