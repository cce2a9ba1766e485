"""Lowering of TeIL tensor ops into ``affine`` loop nests over ``memref``\\ s.

This produces the form the HLS engine synthesizes: a function whose
arguments are input memrefs followed by output memrefs, with one loop nest
per tensor operation.  Rank-0 tensors become plain scalars.

The generated code is deliberately *naive* (one nest per op, no fusion):
Olympus and the HLS engine then apply the paper's optimizations — loop
pipelining, memory partitioning, double buffering — on this canonical form.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dialects import register_lowering
from repro.errors import LoweringError
from repro.ir import Builder, Module, Operation, Value, types as T
from repro.ir.core import Block, Region

# Kind tags for lowered values.
_MEMREF = "memref"
_SCALAR = "scalar"

_MATH_FNS = {"exp", "log", "sqrt", "sin", "cos", "tanh", "abs"}
_CMP_FNS = {"cmp_le": "le", "cmp_lt": "lt", "cmp_ge": "ge", "cmp_gt": "gt",
            "cmp_eq": "eq"}


@register_lowering("teil", "affine")
def lower_teil_to_affine(module: Module, *, canonicalize: bool = True) -> Module:
    """Lower every teil function in ``module`` to affine loop nests.

    Canonicalizes the result (fold/DCE/CSE inside the loop bodies) unless
    ``canonicalize=False``.
    """
    from repro.ir.canonicalize import canonicalize_module

    out = Module()
    for func in module.body:
        if func.name != "func.func":
            continue
        _LoopGenerator(func, out).run()
    return canonicalize_module(out) if canonicalize else out


class _LoopGenerator:
    def __init__(self, func: Operation, out_module: Module):
        self.func = func
        self.out_module = out_module
        self.mapping: Dict[Value, Tuple[str, Value]] = {}
        self.builder = Builder()
        self.arg_names: List[str] = []
        self.output_names: List[str] = []

    def run(self) -> Operation:
        ops = list(self.func.regions[0].entry)
        args = [op for op in ops if op.name == "ekl.arg"]
        returns = [op for op in ops if op.name == "func.return"]
        if len(returns) != 1:
            raise LoweringError("teil function must have exactly one return")
        ret = returns[0]
        # Build the new function signature: input memrefs then output memrefs.
        arg_types: List[T.Type] = []
        for arg in args:
            ty = arg.results[0].type
            arg_types.append(_memref_for(ty))
            self.arg_names.append(arg.attr("name"))
        out_types: List[T.Type] = []
        for value in ret.operands:
            out_types.append(_memref_for(value.type))
        self.output_names = list(ret.attr("names") or
                                 [f"out{i}" for i in range(len(ret.operands))])
        entry = Block(arg_types + out_types)
        new_func = Operation.create(
            "func.func", [], [],
            {"sym_name": self.func.attr("sym_name"),
             "function_type": T.FunctionType(tuple(arg_types + out_types), ()),
             "kernel_lang": "affine",
             "arg_names": self.arg_names + self.output_names,
             "num_outputs": len(out_types)},
            [Region([entry])],
        )
        self.out_module.append(new_func)
        self.builder = Builder.at_end(entry)
        for i, arg in enumerate(args):
            self.mapping[arg.results[0]] = (_MEMREF, entry.args[i])
        for op in ops:
            if op.name == "ekl.arg":
                continue
            if op.name == "func.return":
                for j, value in enumerate(op.operands):
                    kind, lowered = self.mapping[value]
                    out_arg = entry.args[len(args) + j]
                    self.builder.create("memref.copy", [lowered, out_arg], [])
                break
            self._lower_op(op)
        self.builder.create("func.return", [], [])
        return new_func

    # -- helpers -------------------------------------------------------------------

    def _alloc(self, tensor_type: T.TensorType) -> Value:
        ref = _memref_for(tensor_type)
        return self.builder.create("memref.alloc", [], [ref]).result

    def _nest(self, shape: Tuple[int, ...]) -> Tuple[List[Value], Builder]:
        """Emit a loop nest over ``shape``; returns (ivs, body builder).

        Each loop body is created with its ``affine.yield`` terminator
        already in place; the returned builder inserts before it.
        """
        ivs: List[Value] = []
        builder = self.builder
        for extent in shape:
            body = Block([T.index])
            builder.create(
                "affine.for", [], [],
                {"lower": 0, "upper": int(extent), "step": 1},
                [Region([body])],
            )
            terminator = Builder.at_end(body).create("affine.yield", [], [])
            ivs.append(body.args[0])
            builder = Builder.before(terminator)
        return ivs, builder

    def _load(self, builder: Builder, value: Value, ivs: List[Value]) -> Value:
        kind, lowered = self.mapping[value]
        if kind == _SCALAR:
            return lowered
        ref_type = lowered.type
        assert isinstance(ref_type, T.MemRefType)
        element = ref_type.element
        return builder.create("memref.load", [lowered] + list(ivs),
                              [element]).result

    def _scalar_op(self, builder: Builder, fn: str, operands: List[Value],
                   element: T.Type) -> Value:
        """Emit the arith/math op for a teil.map function name."""
        is_float = isinstance(element, T.FloatType)
        if fn in _CMP_FNS:
            name = "arith.cmpf" if _is_float_value(operands[0]) else "arith.cmpi"
            return builder.create(name, operands, [T.i1],
                                  {"predicate": _CMP_FNS[fn]}).result
        if fn in _MATH_FNS:
            return builder.create(f"math.{fn}", operands, [element]).result
        if fn == "pow":
            return builder.create("arith.powf", operands, [element]).result
        base = {"addf": "add", "subf": "sub", "mulf": "mul", "divf": "div",
                "minimumf": "minimum", "maximumf": "maximum",
                "min": "minimum", "max": "maximum"}.get(fn)
        if base is None:
            raise LoweringError(f"unknown scalar function {fn!r}")
        if is_float:
            name = {"add": "arith.addf", "sub": "arith.subf",
                    "mul": "arith.mulf", "div": "arith.divf",
                    "minimum": "arith.minimumf",
                    "maximum": "arith.maximumf"}[base]
        else:
            name = {"add": "arith.addi", "sub": "arith.subi",
                    "mul": "arith.muli", "div": "arith.divsi",
                    "minimum": "arith.minsi", "maximum": "arith.maxsi"}[base]
        return builder.create(name, operands, [element]).result

    # -- per-op lowering ---------------------------------------------------------

    def _lower_op(self, op: Operation) -> None:
        name = op.name
        if name == "arith.constant":
            ty = op.results[0].type
            element = ty.element if isinstance(ty, T.TensorType) else ty
            const = self.builder.create("arith.constant", [], [element],
                                        {"value": op.attr("value")})
            self.mapping[op.results[0]] = (_SCALAR, const.result)
            return
        handler = {
            "teil.map": self._lower_map,
            "teil.select": self._lower_select,
            "teil.stack": self._lower_stack,
            "teil.broadcast": self._lower_broadcast,
            "teil.reduce": self._lower_reduce,
            "teil.gather": self._lower_gather,
            "teil.transpose": self._lower_transpose,
            "teil.iota": self._lower_iota,
        }.get(name)
        if handler is None:
            raise LoweringError(f"cannot lower {name} to affine")
        handler(op)

    def _result_info(self, op: Operation) -> Tuple[T.TensorType, Value]:
        ty = op.results[0].type
        assert isinstance(ty, T.TensorType)
        buf = self._alloc(ty)
        self.mapping[op.results[0]] = (_MEMREF, buf)
        return ty, buf

    def _lower_map(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        ivs, body = self._nest(ty.shape)
        loaded = [self._load(body, o, ivs) for o in op.operands]
        value = self._scalar_op(body, op.attr("fn"), loaded, ty.element)
        body.create("memref.store", [value, buf] + ivs, [])

    def _lower_select(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        ivs, body = self._nest(ty.shape)
        cond = self._load(body, op.operands[0], ivs)
        then = self._load(body, op.operands[1], ivs)
        other = self._load(body, op.operands[2], ivs)
        value = body.create("arith.select", [cond, then, other],
                            [ty.element]).result
        body.create("memref.store", [value, buf] + ivs, [])

    def _lower_stack(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        outer_shape = ty.shape[:-1]
        ivs, body = self._nest(outer_shape)
        for j, operand in enumerate(op.operands):
            loaded = self._load(body, operand, ivs)
            idx = body.create("arith.constant", [], [T.index],
                              {"value": j}).result
            body.create("memref.store", [loaded, buf] + ivs + [idx], [])

    def _lower_broadcast(self, op: Operation) -> None:
        source = self.mapping[op.operands[0]]
        if source[0] == _SCALAR and all(
                user.name != "func.return" for user, _ in op.results[0].uses):
            # Readers use the scalar itself; an output copies a buffer.
            self.mapping[op.results[0]] = source
            return
        ty, buf = self._result_info(op)
        in_axes = op.attr("in_axes") or []
        axes = op.attr("axes") or []
        ivs, body = self._nest(ty.shape)
        src_ivs = [ivs[axes.index(a)] for a in in_axes]
        loaded = self._load(body, op.operands[0], src_ivs)
        body.create("memref.store", [loaded, buf] + ivs, [])

    def _lower_reduce(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        positions = set(op.attr("axes"))
        src_type = op.operands[0].type
        assert isinstance(src_type, T.TensorType)
        # Phase 1: zero-fill the accumulator buffer.
        ivs, body = self._nest(ty.shape)
        zero = body.create(
            "arith.constant", [], [ty.element],
            {"value": 0.0 if isinstance(ty.element, T.FloatType) else 0},
        ).result
        body.create("memref.store", [zero, buf] + ivs, [])
        # Phase 2: accumulate over the full input space.
        full_ivs, body = self._nest(src_type.shape)
        out_ivs = [iv for i, iv in enumerate(full_ivs) if i not in positions]
        current = body.create("memref.load", [buf] + out_ivs,
                              [ty.element]).result
        loaded = self._load(body, op.operands[0], full_ivs)
        add = "arith.addf" if isinstance(ty.element, T.FloatType) \
            else "arith.addi"
        total = body.create(add, [current, loaded], [ty.element]).result
        body.create("memref.store", [total, buf] + out_ivs, [])

    def _lower_gather(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        out_axes = op.attr("axes") or []
        base_axes = op.attr("base_axes") or []
        sub_axes = op.attr("sub_axes") or []
        binding = op.attr("binding") or []
        base = op.operands[0]
        subs = list(op.operands[1:])
        ivs, body = self._nest(ty.shape)
        iv_of = {label: ivs[i] for i, label in enumerate(out_axes)}
        base_indices: List[Value] = []
        for i, label in enumerate(base_axes):
            bound = binding[i] if i < len(binding) else -1
            if bound == -1:
                if label not in iv_of:
                    raise LoweringError(
                        f"gather: free axis {label!r} missing from output"
                    )
                base_indices.append(iv_of[label])
            else:
                sub = subs[bound]
                labels = sub_axes[bound] if bound < len(sub_axes) else []
                sub_ivs = [iv_of[l] for l in labels]
                loaded = self._load(body, sub, sub_ivs)
                cast = body.create("arith.index_cast", [loaded],
                                   [T.index]).result
                base_indices.append(cast)
        value = self._load(body, base, base_indices)
        body.create("memref.store", [value, buf] + ivs, [])

    def _lower_transpose(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        perm = op.attr("perm")
        ivs, body = self._nest(ty.shape)
        src_ivs: List[Optional[Value]] = [None] * len(perm)
        for j, p in enumerate(perm):
            src_ivs[p] = ivs[j]
        loaded = self._load(body, op.operands[0], src_ivs)  # type: ignore
        body.create("memref.store", [loaded, buf] + ivs, [])

    def _lower_iota(self, op: Operation) -> None:
        ty, buf = self._result_info(op)
        ivs, body = self._nest(ty.shape)
        cast = body.create("arith.index_cast", [ivs[0]], [ty.element]).result
        body.create("memref.store", [cast, buf] + ivs, [])


def _memref_for(ty: T.Type) -> T.MemRefType:
    if isinstance(ty, T.TensorType):
        return T.MemRefType(ty.shape, ty.element)
    if isinstance(ty, T.MemRefType):
        return ty
    raise LoweringError(f"cannot form a memref for {ty}")


def _is_float_value(value: Value) -> bool:
    return isinstance(value.type, T.FloatType)
