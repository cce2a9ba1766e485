"""Compiled executor for lowered ``affine`` functions (codegen -> numpy).

:class:`AffineCompiler` walks one lowered affine function and emits Python
source: ``affine.for`` nests become native loops, and every *perfect* nest
with a straight-line load/compute/store body is vectorized — the loop
dimensions that index the stored buffer become numpy slice/grid
dimensions, while reduction dimensions (loop IVs the store does not use)
stay as sequential Python loops so accumulation order — and therefore
every float64 bit — matches :class:`~repro.tensorpipe.affine_interp.
AffineInterpreter` exactly.  Gather-style computed indices are handled by
broadcasting integer index grids through numpy advanced indexing.

This is the CPU analog of the SDK's HLS flow (paper §V): the same affine
module either goes to the HLS engine (:mod:`repro.hls`) or, through this
compiler, to a fast host executor.  The bit-for-bit contract with the
interpreter is enforced differentially by the test suite on every golden
kernel and on fuzz-generated modules at all optimization levels.

Every call compiles: a compiled kernel is remembered in one place, the
stage cache of the :class:`~repro.pipeline.PipelineSession` that asked for
it.  Any op outside the supported set falls back to the interpreter, never
to a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import EverestError
from repro.ir import Module, Operation, Value
from repro.ir.fusion import loop_bounds, perfect_nest, trip_count
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import get_tracer
from repro.tensorpipe.affine_interp import (
    FLOAT_OPS,
    AffineInterpreter,
    bind_buffers,
    buffer_plan,
)
from repro.tensorpipe.arena import ArenaPlan, plan_arena

# Process-wide codegen metrics (the serve daemon exports them under
# GET /metrics; see docs/observability.md for the naming rules).
_ARENA_BYTES = get_registry().gauge(
    "repro_arena_planned_bytes",
    "Planned static-arena footprint of the latest compiled-arena kernel")


class UnsupportedAffineOp(EverestError):
    """Raised internally when a function contains an op codegen cannot
    compile; :func:`compile_affine` catches it and falls back to the
    interpreter backend."""


_DTYPE_SRC = {
    "f64": "np.float64", "f32": "np.float32", "i64": "np.int64",
    "i32": "np.int32", "i1": "np.bool_", "index": "np.int64",
}

# name -> (scalar template, vector template).  Scalar templates reproduce
# the interpreter's expressions verbatim; vector templates are the numpy
# array forms that are bit-identical to the scalar ufunc path.
_BINOP_SRC = {
    "arith.addf": ("({a} + {b})", "({a} + {b})"),
    "arith.subf": ("({a} - {b})", "({a} - {b})"),
    "arith.mulf": ("({a} * {b})", "({a} * {b})"),
    "arith.divf": ("({a} / {b})", "({a} / {b})"),
    "arith.maximumf": ("np.maximum({a}, {b})", "np.maximum({a}, {b})"),
    "arith.minimumf": ("np.minimum({a}, {b})", "np.minimum({a}, {b})"),
    "arith.powf": ("np.power({a}, {b})", "np.power({a}, {b})"),
    "arith.addi": ("({a} + {b})", "({a} + {b})"),
    "arith.subi": ("({a} - {b})", "({a} - {b})"),
    "arith.muli": ("({a} * {b})", "({a} * {b})"),
    "arith.divsi": ("(int({a}) // int({b}))", "({a} // {b})"),
    "arith.remsi": ("(int({a}) % int({b}))", "({a} % {b})"),
    "arith.maxsi": ("max({a}, {b})", "np.maximum({a}, {b})"),
    "arith.minsi": ("min({a}, {b})", "np.minimum({a}, {b})"),
}

_CMP_SRC = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">", "eq": "==",
            "ne": "!="}

_MATH_SRC = {
    "math.exp": "np.exp", "math.log": "np.log", "math.sqrt": "np.sqrt",
    "math.sin": "np.sin", "math.cos": "np.cos", "math.tanh": "np.tanh",
    "math.abs": "np.abs",
}


def _literal(value) -> str:
    """A source literal that reconstructs the attribute value exactly."""
    if isinstance(value, bool):
        return repr(value)
    if isinstance(value, float):
        if value != value:
            return "float('nan')"
        if value == float("inf"):
            return "float('inf')"
        if value == float("-inf"):
            return "float('-inf')"
        return repr(value)  # repr(float) round-trips bit-exactly
    if isinstance(value, int):
        return repr(value)
    raise UnsupportedAffineOp(f"cannot inline constant {value!r}")


def _trip(lower: int, upper: int, step: int) -> int:
    if step <= 0:
        raise UnsupportedAffineOp(f"non-positive loop step {step}")
    return trip_count(lower, upper, step)


@dataclass
class _Loop:
    """One level of an ``affine.for`` nest during compilation."""

    iv: Value
    lower: int
    upper: int
    step: int

    @property
    def extent(self) -> int:
        return _trip(self.lower, self.upper, self.step)

    def range_src(self) -> str:
        return f"range({self.lower}, {self.upper}, {self.step})"

    def slice_src(self, dim: Optional[int]) -> str:
        """Basic-indexing slice covering this loop's iteration space."""
        if self.lower == 0 and self.step == 1 and \
                (dim is None or self.upper == dim):
            return ":"
        step = "" if self.step == 1 else f":{self.step}"
        return f"{self.lower}:{self.upper}{step}"


@dataclass
class CompiledKernel:
    """An executable artifact for one affine function.

    ``backend`` is ``"compiled"`` when the generated numpy source is in
    use and ``"interpreter"`` when compilation fell back to
    :class:`AffineInterpreter`.  ``run`` has the exact signature and
    semantics of ``AffineInterpreter.run`` — including bit-for-bit float64
    results.
    """

    func_name: str
    backend: str
    source: str = ""
    flops: int = 0
    vectorized_nests: int = 0
    scalar_nests: int = 0
    tileable_nests: int = 0
    arena_bytes: int = 0
    arena_slots: int = 0
    fused_groups: int = 0
    contracted_buffers: int = 0
    fallback: str = ""
    _plan: Optional[tuple] = field(default=None, repr=False)
    _call: Optional[Callable] = field(default=None, repr=False)

    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Execute over ``inputs``, borrowed as read-only views (see
        ``bind_buffers``); returns fresh output arrays by name."""
        buffers, outputs = bind_buffers(self._plan, inputs)
        self._call(buffers)
        return outputs

    def __str__(self) -> str:
        return (f"CompiledKernel({self.func_name}, backend={self.backend}, "
                f"vectorized={self.vectorized_nests}, "
                f"scalar={self.scalar_nests}, flops={self.flops})")


class AffineCompiler:
    """Emits and compiles Python/numpy source for one affine function.

    With ``tiled=True`` every vectorizable nest whose outermost output
    dimension is a plain ``0..N`` parallel axis is emitted as a local
    closure over a half-open row range and handed to a ``__tile`` runner
    (see :mod:`repro.tensorpipe.parallel`): ``__tile(fn, extent, work)``
    either calls ``fn(0, extent)`` serially or splits the rows across a
    worker pool.  Reduction axes are never split, so results are bitwise
    identical to the serial source for any tile count.
    """

    def __init__(self, module: Module, func_name: str, *,
                 tiled: bool = False, arena: Optional[ArenaPlan] = None):
        self.module = module
        self.func = module.lookup(func_name)
        if self.func.attr("kernel_lang") != "affine":
            raise EverestError(f"{func_name} is not an affine-level function")
        self.func_name = func_name
        self.tiled = tiled
        self.arena = arena
        self.lines: List[str] = []
        self.indent = 1
        # Scalar-context expression for each Value (vars, literals, ivs).
        self.expr: Dict[Value, str] = {}
        self.counter = 0
        self.vectorized_nests = 0
        self.scalar_nests = 0
        self.tileable_nests = 0

    # -- source assembly -----------------------------------------------------

    def _fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def generate(self) -> str:
        """Emit the module-level source for this function."""
        entry = self.func.regions[0].entry
        header = "def __kernel(args, __tile):" if self.tiled \
            else "def __kernel(args):"
        self.lines = [header]
        for i, arg in enumerate(entry.args):
            name = f"a{i}"
            self.expr[arg] = name
            self._emit(f"{name} = args[{i}]")
        if self.arena is not None and self.arena.total_bytes:
            # Per-run arena: concurrent runs of one cached kernel (the
            # serve daemon) must not share scratch memory.
            self._emit(f"__arena = np.empty({self.arena.total_bytes}, "
                       f"dtype=np.uint8)")
        self._emit_block_scalar(entry)
        self._emit("return None")
        return "\n".join(self.lines) + "\n"

    # -- scalar (native-loop) emission ---------------------------------------

    def _emit_block_scalar(self, block) -> None:
        for op in block.operations:
            self._emit_op_scalar(op)

    def _emit_op_scalar(self, op: Operation) -> None:
        name = op.name
        if name == "affine.for":
            if self._try_vectorize(op):
                self.vectorized_nests += 1
                return
            self.scalar_nests += 1
            self._emit_loop_scalar(op)
            return
        if name in ("affine.yield", "func.return"):
            return
        if name == "memref.alloc":
            ref = op.results[0].type
            var = self._fresh()
            slot = self.arena.op_slots.get(id(op)) if self.arena else None
            if slot is not None:
                dtype = _DTYPE_SRC.get(str(ref.element), "np.float64")
                self._emit(f"{var} = __arena[{slot.offset}:"
                           f"{slot.offset + slot.size}].view({dtype})"
                           f".reshape({tuple(ref.shape)!r})")
                # memref.alloc zero-init contract: slots are reused, so
                # the fill is what keeps arena runs bitwise-identical.
                self._emit(f"{var}.fill(0)")
            else:
                self._emit(f"{var} = np.zeros({tuple(ref.shape)!r}, "
                           f"{_DTYPE_SRC.get(str(ref.element), 'np.float64')})")
            self.expr[op.results[0]] = var
            return
        if name == "memref.copy":
            src = self.expr[op.operands[0]]
            dst = self.expr[op.operands[1]]
            self._emit(f"np.copyto({dst}, {src})")
            return
        if name == "arith.constant":
            self.expr[op.results[0]] = _literal(op.attr("value"))
            return
        if name == "memref.load":
            buffer = self.expr[op.operands[0]]
            indices = [self.expr[o] for o in op.operands[1:]]
            var = self._fresh()
            sub = ", ".join(indices) if indices else "()"
            self._emit(f"{var} = {buffer}[{sub}]")
            self.expr[op.results[0]] = var
            return
        if name == "memref.store":
            value = self.expr[op.operands[0]]
            buffer = self.expr[op.operands[1]]
            indices = [self.expr[o] for o in op.operands[2:]]
            sub = ", ".join(indices) if indices else "()"
            self._emit(f"{buffer}[{sub}] = {value}")
            return
        template = self._compute_src(op, self._operand_src, vector=False)
        var = self._fresh()
        self._emit(f"{var} = {template}")
        self.expr[op.results[0]] = var

    def _emit_loop_scalar(self, op: Operation) -> None:
        loop = _Loop(op.regions[0].entry.args[0], op.attr("lower"),
                     op.attr("upper"), op.attr("step"))
        iv = self._fresh("i")
        self.expr[loop.iv] = iv
        self._emit(f"for {iv} in {loop.range_src()}:")
        self.indent += 1
        body = op.regions[0].entry
        if all(o.name in ("affine.yield",) for o in body.operations):
            self._emit("pass")
        else:
            self._emit_block_scalar(body)
        self.indent -= 1

    def _operand_src(self, value: Value) -> str:
        """Scalar-context expression for an operand."""
        if value in self.expr:
            return self.expr[value]
        raise UnsupportedAffineOp("operand defined outside compiled scope")

    def _compute_src(self, op: Operation,
                     resolve: Callable[[Value], str], vector: bool) -> str:
        """Source expression for a pure compute op.

        ``resolve`` maps an operand to its expression in the calling
        context (scalar statement or vectorized nest body); ``vector``
        picks the numpy-array form of the ops that have one.
        """
        name = op.name
        ops = [resolve(o) for o in op.operands]
        if name in _BINOP_SRC:
            template = _BINOP_SRC[name][1 if vector else 0]
            return template.format(a=ops[0], b=ops[1])
        if name in ("arith.cmpf", "arith.cmpi"):
            cmp = _CMP_SRC.get(op.attr("predicate"))
            if cmp is None:
                raise UnsupportedAffineOp(
                    f"unknown predicate {op.attr('predicate')!r}")
            return f"({ops[0]} {cmp} {ops[1]})"
        if name == "arith.select":
            if vector:
                return f"np.where({ops[0]}, {ops[1]}, {ops[2]})"
            return f"({ops[1]} if {ops[0]} else {ops[2]})"
        if name == "arith.negf":
            return f"(-{ops[0]})"
        if name in _MATH_SRC:
            return f"{_MATH_SRC[name]}({ops[0]})"
        if name == "arith.index_cast":
            return ops[0]
        if name == "arith.sitofp":
            if vector:
                return f"np.asarray({ops[0]}).astype(np.float64)"
            return f"float({ops[0]})"
        if name == "arith.fptosi":
            if vector:
                return f"np.asarray({ops[0]}).astype(np.int64)"
            return f"int({ops[0]})"
        if name in ("arith.truncf", "arith.extf"):
            dtype = _DTYPE_SRC.get(str(op.results[0].type), "np.float64")
            if vector:
                return f"np.asarray({ops[0]}).astype({dtype})"
            return f"{dtype}({ops[0]})"
        raise UnsupportedAffineOp(f"cannot compile op {name}")

    # -- nest vectorization ---------------------------------------------------

    def _collect_perfect_nest(
            self, for_op: Operation
    ) -> Optional[Tuple[List[_Loop], List[Operation]]]:
        loops, ops = perfect_nest(for_op)
        if [o for o in ops if o.name == "affine.for"]:
            return None  # imperfect nest: scalar loops handle it
        return ([_Loop(loop.regions[0].entry.args[0], *loop_bounds(loop))
                 for loop in loops],
                [o for o in ops if o.name != "affine.yield"])

    _VECTOR_OPS = frozenset(
        {"memref.load", "memref.store", "arith.constant", "arith.cmpf",
         "arith.cmpi", "arith.select", "arith.negf", "arith.index_cast",
         "arith.sitofp", "arith.fptosi", "arith.truncf", "arith.extf"}
        | set(_BINOP_SRC) | set(_MATH_SRC)
    )

    def _try_vectorize(self, for_op: Operation) -> bool:
        """Emit a vectorized form of a perfect nest; False if not possible."""
        collected = self._collect_perfect_nest(for_op)
        if collected is None:
            return False
        loops, body = collected
        if not all(op.name in self._VECTOR_OPS for op in body):
            return False
        if any(loop.step <= 0 for loop in loops):
            return False
        stores = [op for op in body if op.name == "memref.store"]
        if not stores:
            # No memory effects: the nest is dead, nothing to execute.
            return True

        iv_to_loop = {loop.iv: loop for loop in loops}
        # Body-local classification: value -> (expr, kind).
        # kind: 'const' literal | 'vec' computed array-expression.
        ctx: Dict[Value, Tuple[str, str]] = {}
        consts = {}
        for op in body:
            if op.name == "arith.constant":
                consts[op.results[0]] = op.attr("value")

        def index_kind(value: Value) -> str:
            if value in iv_to_loop:
                return "iv"
            if value in consts:
                return "const"
            if value in self.expr:
                return "scalar"  # outer iv / outer scalar / constant
            return "computed"

        # The output space: loop IVs the stores index, in store order.
        out_ivs: List[Value] = []
        for idx in stores[0].operands[2:]:
            if index_kind(idx) == "iv":
                if idx in out_ivs:
                    return False
                out_ivs.append(idx)
        for store in stores:
            kinds = [index_kind(idx) for idx in store.operands[2:]]
            if any(kind == "computed" for kind in kinds):
                return False
            ivs = [idx for idx in store.operands[2:]
                   if index_kind(idx) == "iv"]
            if ivs != out_ivs:
                return False
        out_pos = {iv: i for i, iv in enumerate(out_ivs)}
        red_loops = [loop for loop in loops if loop.iv not in out_pos]

        # Loop-carried-dependence check: a buffer that is both stored and
        # loaded in this body must be accessed at the *same* indices
        # (the sequential-reduction pattern); anything else could alias
        # across vectorized iterations.
        stored_indices: Dict[Value, List[Tuple[Value, ...]]] = {}
        for store in stores:
            stored_indices.setdefault(store.operands[1], []).append(
                tuple(store.operands[2:]))
        for op in body:
            if op.name != "memref.load":
                continue
            buffer = op.operands[0]
            if buffer in stored_indices:
                patterns = stored_indices[buffer]
                if len(patterns) != 1 or tuple(op.operands[1:]) != patterns[0]:
                    return False

        # The tiled variant shards the outermost output dimension: the
        # nest body is wrapped in a closure over a half-open row range
        # ``[__t0, __t1)`` and dispatched through the ``__tile`` runner.
        # Only a plain 0..N unit-step axis tiles (ranges then compose by
        # plain slicing); reduction loops stay sequential inside every
        # tile, so chunking cannot reorder a single accumulation.
        tile_iv: Optional[Value] = None
        if self.tiled and out_ivs:
            outer = iv_to_loop[out_ivs[0]]
            if outer.lower == 0 and outer.step == 1:
                tile_iv = out_ivs[0]

        # -- emission ---------------------------------------------------------
        emitted: List[str] = []
        base_indent = self.indent + (1 if tile_iv is not None else 0)

        def emit(text: str, extra: int = 0) -> None:
            emitted.append("    " * (base_indent + extra) + text)

        # Integer index grids for the output dimensions (used by loads
        # with computed gather indices and by IVs consumed as values).
        grid_of: Dict[Value, str] = {}

        def grid(iv: Value) -> str:
            if iv not in grid_of:
                loop = iv_to_loop[iv]
                var = self._fresh("g")
                shape = tuple(iv_to_loop[o].extent if o is iv else 1
                              for o in out_ivs)
                if iv is tile_iv:
                    tile_shape = tuple(-1 if o is iv else 1 for o in out_ivs)
                    emit(f"{var} = np.arange(__t0, __t1)"
                         f".reshape({tile_shape!r})")
                else:
                    emit(f"{var} = np.arange({loop.lower}, {loop.upper}, "
                         f"{loop.step}).reshape({shape!r})")
                grid_of[iv] = var
            return grid_of[iv]

        loop_lines: List[str] = []
        depth = 0
        red_iv_var: Dict[Value, str] = {}
        for loop in red_loops:
            var = self._fresh("i")
            red_iv_var[loop.iv] = var
            loop_lines.append(("    " * (base_indent + depth)
                               + f"for {var} in {loop.range_src()}:"))
            depth += 1

        def value_src(value: Value) -> str:
            """Vector-context expression for an operand."""
            if value in ctx:
                return ctx[value][0]
            if value in red_iv_var:
                return red_iv_var[value]
            if value in out_pos:
                return grid(value)
            if value in self.expr:
                return self.expr[value]
            raise UnsupportedAffineOp("operand outside nest scope")

        def index_src_basic(value: Value, dim: Optional[int]) -> str:
            kind = index_kind(value)
            if value is tile_iv:
                return "__t0:__t1"
            if kind == "iv" and value in out_pos:
                return iv_to_loop[value].slice_src(dim)
            if kind == "iv":
                return red_iv_var[value]
            if kind == "const":
                return _literal(consts[value])
            return self.expr[value]

        def index_src_advanced(value: Value) -> str:
            kind = index_kind(value)
            if kind == "iv" and value in out_pos:
                return grid(value)
            if kind == "iv":
                return red_iv_var[value]
            if kind == "const":
                return _literal(consts[value])
            if kind == "scalar":
                return self.expr[value]
            return ctx[value][0]

        body_lines: List[str] = []

        def emit_body(text: str) -> None:
            body_lines.append("    " * (base_indent + depth) + text)

        try:
            for op in body:
                if op.name == "arith.constant":
                    ctx[op.results[0]] = (_literal(op.attr("value")), "const")
                    continue
                if op.name == "memref.load":
                    buffer_val = op.operands[0]
                    buffer = self.expr.get(buffer_val)
                    if buffer is None:
                        raise UnsupportedAffineOp("load from local buffer")
                    ref = buffer_val.type
                    indices = list(op.operands[1:])
                    kinds = [index_kind(idx) for idx in indices]
                    var = self._fresh()
                    out_idx = [idx for idx in indices if idx in out_pos]
                    if not indices:
                        emit_body(f"{var} = {buffer}[()]")
                    elif "computed" not in kinds and \
                            len(out_idx) == len(set(out_idx)):
                        parts = [
                            index_src_basic(idx, ref.shape[d])
                            for d, idx in enumerate(indices)
                        ]
                        expr = f"{buffer}[{', '.join(parts)}]"
                        present = [idx for idx in indices if idx in out_pos]
                        wanted = sorted(present, key=out_pos.get)
                        if present != wanted:
                            perm = tuple(present.index(iv) for iv in wanted)
                            expr += f".transpose{perm!r}"
                        if present and len(present) < len(out_ivs):
                            pad = ", ".join(
                                ":" if iv in present else "None"
                                for iv in out_ivs)
                            expr = f"({expr})[{pad}]"
                        emit_body(f"{var} = {expr}")
                    else:
                        parts = [index_src_advanced(idx) for idx in indices]
                        emit_body(f"{var} = {buffer}[{', '.join(parts)}]")
                    ctx[op.results[0]] = (var, "vec")
                    continue
                if op.name == "memref.store":
                    value = op.operands[0]
                    buffer_val = op.operands[1]
                    buffer = self.expr.get(buffer_val)
                    if buffer is None:
                        raise UnsupportedAffineOp("store to local buffer")
                    ref = buffer_val.type
                    indices = list(op.operands[2:])
                    if value in ctx:
                        value_expr = ctx[value][0]
                    else:
                        value_expr = value_src(value)
                    if not indices:
                        emit_body(f"{buffer}[()] = {value_expr}")
                    else:
                        parts = [
                            index_src_basic(idx, ref.shape[d])
                            for d, idx in enumerate(indices)
                        ]
                        emit_body(f"{buffer}[{', '.join(parts)}] "
                                  f"= {value_expr}")
                    continue
                template = self._compute_src(op, value_src, vector=True)
                var = self._fresh()
                emit_body(f"{var} = {template}")
                ctx[op.results[0]] = (var, "vec")
        except UnsupportedAffineOp:
            return False

        if tile_iv is not None:
            fn_name = self._fresh("__nest")
            work = 1
            for loop in loops:
                work *= loop.extent
            pad = "    " * self.indent
            self.lines.append(f"{pad}def {fn_name}(__t0, __t1):")
            self.lines.extend(emitted)
            self.lines.extend(loop_lines)
            self.lines.extend(body_lines)
            self.lines.append(f"{pad}__tile({fn_name}, "
                              f"{iv_to_loop[tile_iv].extent}, {work})")
            self.tileable_nests += 1
            return True

        self.lines.extend(emitted)     # grids (before the red loops)
        self.lines.extend(loop_lines)  # sequential reduction loops
        self.lines.extend(body_lines)  # vectorized body
        return True


# -- FLOP accounting ---------------------------------------------------------


def count_flops(func: Operation) -> int:
    """Static floating-point-operation count of one affine function.

    Every op in :data:`FLOAT_OPS` counts once per enclosing-loop trip
    product.  The HLS engine computes the same quantity from its nest
    reports; ``tests/test_hls.py`` cross-checks the two.
    """

    def visit(block, trip: int) -> int:
        total = 0
        for op in block.operations:
            if op.name == "affine.for":
                inner = _trip(op.attr("lower"), op.attr("upper"),
                              op.attr("step") or 1)
                total += visit(op.regions[0].entry, trip * inner)
            elif op.name in FLOAT_OPS:
                total += trip
            for region in op.regions:
                if op.name == "affine.for":
                    break
                for inner_block in region.blocks:
                    total += visit(inner_block, trip)
        return total

    return visit(func.regions[0].entry, 1)


# -- public entry points -----------------------------------------------------


def compile_cache_stats() -> Tuple[int, int]:
    """(entries, hits) of a cache this module no longer has: ``(0, 0)``,
    what every benchmark run read while the ``execute`` stage bypassed it.
    Kept because ``bench/workloads/compile_cold.py`` imports it; goes with
    the ``tensorpipe.codegen_cache_hit_share`` metric computed from it."""
    return 0, 0


def _static_flops(func: Operation) -> int:
    try:
        return count_flops(func)
    except UnsupportedAffineOp:
        # e.g. negative-step loops: executable, but outside the static
        # FLOP model.  Never let the internal exception escape — the
        # contract is interpreter fallback, not a crash.
        return 0


def _tiled(kernel: Callable) -> Callable:
    """A tiled kernel's call: a fresh ``__tile`` runner per run, which
    reads the pool's size at call time."""
    from repro.tensorpipe.parallel import make_tile

    return lambda buffers: kernel(buffers, make_tile())


def compile_numpy(module: Module, func_name: str, *,
                  backend: str = "compiled", tiled: bool = False,
                  arena: bool = False) -> CompiledKernel:
    """The numpy compilation core behind the ``interpreter``,
    ``compiled``, ``compiled-parallel`` and ``compiled-arena`` registry
    backends.

    Functions containing unsupported ops degrade to the interpreter
    backend (same results, interpreter speed);
    ``backend="interpreter"`` forces that path (baseline/differential
    runs).  ``tiled`` selects the sharded source variant executed
    through :mod:`repro.tensorpipe.parallel`; ``arena`` runs the static
    planner of :mod:`repro.tensorpipe.arena` and emits local buffers as
    views into one preallocated per-run arena.
    """
    tracer = get_tracer()
    with tracer.span("codegen.compile", category="compile") as span:
        if tracer.enabled:
            span.attrs.update(func=func_name, backend=backend)
        func = module.lookup(func_name)
        flops = _static_flops(func)
        kernel = None
        if backend != "interpreter":
            plan = plan_arena(func) if arena else None
            if plan is not None:
                _ARENA_BYTES.set(plan.total_bytes)
            compiler = AffineCompiler(module, func_name, tiled=tiled,
                                      arena=plan)
            try:
                source = compiler.generate()
                namespace = {"np": np}
                code = compile(source, f"<affine-codegen:{func_name}>",
                               "exec")
                exec(code, namespace)
                kernel = CompiledKernel(
                    func_name=func_name, backend=backend, source=source,
                    flops=flops, vectorized_nests=compiler.vectorized_nests,
                    scalar_nests=compiler.scalar_nests,
                    tileable_nests=compiler.tileable_nests,
                    arena_bytes=plan.total_bytes if plan else 0,
                    arena_slots=len(plan.slots) if plan else 0,
                    _plan=buffer_plan(func),
                    _call=_tiled(namespace["__kernel"]) if tiled
                    else namespace["__kernel"],
                )
            except UnsupportedAffineOp:
                kernel = None
        if kernel is None:
            fallback = backend if backend != "interpreter" else ""
            interp = AffineInterpreter(module, func_name)
            kernel = CompiledKernel(
                func_name=func_name, backend="interpreter", flops=flops,
                fallback=fallback, _plan=interp.plan, _call=interp.execute,
            )
            span.set("fallback", True)
        if kernel.arena_bytes:
            span.set("arena_bytes", kernel.arena_bytes)
    return kernel


def compile_affine(module: Module, func_name: str, *,
                   backend: str = "compiled") -> CompiledKernel:
    """Compile one affine function with the named executor backend.

    ``backend`` is resolved through the
    :mod:`repro.tensorpipe.backends` registry (``interpreter`` /
    ``compiled`` / ``compiled-parallel`` / ``cbackend`` plus anything
    registered by the embedding application); an unknown name raises
    with the list of registered backends.  A backend instance is
    accepted directly.  Nothing is cached here: two calls build two
    kernels (go through a :class:`~repro.pipeline.PipelineSession` to
    compile once).
    """
    from repro.tensorpipe.backends import resolve_backend

    return resolve_backend(backend).compile(module, func_name)
