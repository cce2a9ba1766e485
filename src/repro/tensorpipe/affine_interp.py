"""A reference interpreter for lowered ``affine`` functions.

Executes the loop nests produced by :mod:`repro.tensorpipe.lower_teil`
directly over numpy buffers.  It exists to *cross-validate the compilation
pipeline*: the EKL interpreter (language semantics) and this interpreter
(compiled semantics) must agree bit-for-bit on float64 — a property the
test suite checks on every kernel, including the paper's Fig. 3 listing.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from repro.errors import EverestError
from repro.ir import Module, Operation, Value, types as T

# Scalar semantics are the numpy ufuncs, NOT the Python builtins /
# ``math`` module: numpy's scalar ufunc path and its array loops produce
# bit-identical results, which is what lets the compiled backend
# (:mod:`repro.tensorpipe.codegen`) vectorize these ops and still agree
# with this interpreter bit-for-bit.  ``math.exp``/builtin ``max`` do not
# share that property (different libm paths, different NaN/-0.0 rules).
_BINOPS = {
    "arith.addf": lambda a, b: a + b,
    "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b,
    "arith.divf": lambda a, b: a / b,
    "arith.maximumf": np.maximum,
    "arith.minimumf": np.minimum,
    "arith.powf": np.power,
    "arith.addi": lambda a, b: a + b,
    "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": lambda a, b: int(a) // int(b),
    "arith.maxsi": max,
    "arith.minsi": min,
    "arith.remsi": lambda a, b: int(a) % int(b),
}

_CMPS = {"le": lambda a, b: a <= b, "lt": lambda a, b: a < b,
         "ge": lambda a, b: a >= b, "gt": lambda a, b: a > b,
         "eq": lambda a, b: a == b, "ne": lambda a, b: a != b}

_MATH = {"math.exp": np.exp, "math.log": np.log, "math.sqrt": np.sqrt,
         "math.sin": np.sin, "math.cos": np.cos, "math.tanh": np.tanh,
         "math.abs": np.abs}

# Ops counted as one floating-point operation per execution.  The two
# FLOP models — the executor's ``codegen.count_flops`` and the HLS
# engine's (``hls/synth.py``) — traverse the IR independently, read this
# one set, and must agree on every kernel.
FLOAT_OPS = frozenset({
    "arith.addf", "arith.subf", "arith.mulf", "arith.divf",
    "arith.maximumf", "arith.minimumf", "arith.powf", "arith.negf",
    "math.exp", "math.log", "math.sqrt", "math.sin", "math.cos",
    "math.tanh", "math.abs",
})

_NUMPY_DTYPES = {
    "f64": np.float64, "f32": np.float32, "i64": np.int64, "i32": np.int32,
    "i1": np.bool_, "index": np.int64,
}


def _dtype_for(ty: T.Type):
    return _NUMPY_DTYPES.get(str(ty), np.float64)


def buffer_plan(func: Operation):
    """How :func:`bind_buffers` binds one affine function's arguments,
    read once from the IR: ``(inputs, outputs)``, each a tuple of
    ``(name, numpy dtype, shape)`` in entry-block argument order."""
    args = []
    for name, arg in zip(func.attr("arg_names"), func.regions[0].entry.args,
                         strict=True):
        ref = arg.type
        assert isinstance(ref, T.MemRefType)
        args.append((name, _dtype_for(ref.element), tuple(ref.shape)))
    first_output = len(args) - func.attr("num_outputs")
    return tuple(args[:first_output]), tuple(args[first_output:])


def bind_buffers(plan, inputs: Mapping[str, np.ndarray]):
    """Allocate the argument buffers for one affine function call.

    Inputs are borrowed, not copied: each is shape checked and converted
    only when its dtype or memory layout (C order, which the C backend's
    raw pointers need) requires it, then bound as a read-only view, so a
    kernel that writes an input raises instead of corrupting the caller's
    array.  Output buffers are fresh zeros.  ``plan`` is
    :func:`buffer_plan`'s.  Returns ``(buffers, outputs)``: the buffers
    in entry-block argument order and the output buffers by name (the
    last of a repeated name).  Shared by the interpreter and the compiled
    backends so all execute over identically prepared memory.
    """
    input_specs, output_specs = plan
    buffers: List[np.ndarray] = []
    for name, dtype, shape in input_specs:
        if name not in inputs:
            raise EverestError(f"missing input {name!r}")
        array = np.asarray(inputs[name], dtype=dtype, order="C")
        if array.shape != shape:
            raise EverestError(
                f"input {name!r}: expected {shape}, got {array.shape}")
        view = array.view()
        view.flags.writeable = False
        buffers.append(view)
    outputs = [np.zeros(shape, dtype) for _, dtype, shape in output_specs]
    buffers += outputs
    return buffers, {spec[0]: buffer
                     for spec, buffer in zip(output_specs, outputs)}


class AffineInterpreter:
    """Executes one lowered affine function over numpy inputs."""

    def __init__(self, module: Module, func_name: str):
        self.func = module.lookup(func_name)
        if self.func.attr("kernel_lang") != "affine":
            raise EverestError(f"{func_name} is not an affine-level function")
        self.plan = buffer_plan(self.func)

    def run(self, inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Run the function; returns the output buffers by name."""
        buffers, outputs = bind_buffers(self.plan, inputs)
        self.execute(buffers)
        return outputs

    def execute(self, buffers: List[np.ndarray]) -> None:
        """Run over buffers bound by :func:`bind_buffers`."""
        entry = self.func.regions[0].entry
        self._run_block(entry, dict(zip(entry.args, buffers)))

    # -- execution ------------------------------------------------------------

    def _run_block(self, block, env: Dict[Value, object]) -> None:
        for op in block.operations:
            self._run_op(op, env)

    def _run_op(self, op: Operation, env: Dict[Value, object]) -> None:
        name = op.name
        if name == "affine.for":
            lower, upper, step = op.attr("lower"), op.attr("upper"), \
                op.attr("step")
            body = op.regions[0].entry
            for iv in range(lower, upper, step):
                env[body.args[0]] = iv
                self._run_block(body, env)
            return
        if name in ("affine.yield", "func.return"):
            return
        if name == "memref.alloc":
            ref = op.results[0].type
            env[op.results[0]] = np.zeros(ref.shape, _dtype_for(ref.element))
            return
        if name == "memref.load":
            buffer = env[op.operands[0]]
            indices = tuple(int(env[o]) for o in op.operands[1:])
            env[op.results[0]] = buffer[indices] if indices else buffer[()]
            return
        if name == "memref.store":
            value = env[op.operands[0]]
            buffer = env[op.operands[1]]
            indices = tuple(int(env[o]) for o in op.operands[2:])
            if indices:
                buffer[indices] = value
            else:
                buffer[()] = value
            return
        if name == "memref.copy":
            src = env[op.operands[0]]
            dst = env[op.operands[1]]
            np.copyto(dst, src)
            return
        if name == "arith.constant":
            env[op.results[0]] = op.attr("value")
            return
        if name in _BINOPS:
            a, b = env[op.operands[0]], env[op.operands[1]]
            env[op.results[0]] = _BINOPS[name](a, b)
            return
        if name in ("arith.cmpf", "arith.cmpi"):
            a, b = env[op.operands[0]], env[op.operands[1]]
            env[op.results[0]] = _CMPS[op.attr("predicate")](a, b)
            return
        if name == "arith.select":
            cond = env[op.operands[0]]
            env[op.results[0]] = env[op.operands[1]] if cond \
                else env[op.operands[2]]
            return
        if name in ("arith.index_cast", "arith.sitofp", "arith.fptosi",
                    "arith.truncf", "arith.extf"):
            value = env[op.operands[0]]
            if name == "arith.fptosi":
                value = int(value)
            elif name == "arith.sitofp":
                value = float(value)
            elif name in ("arith.truncf", "arith.extf"):
                # Round through the *target* precision: a truncf to f32
                # must lose mantissa bits, not silently keep computing in
                # f64 (and an extf must widen so later arithmetic promotes).
                value = _dtype_for(op.results[0].type)(value)
            env[op.results[0]] = value
            return
        if name == "arith.negf":
            env[op.results[0]] = -env[op.operands[0]]
            return
        if name in _MATH:
            env[op.results[0]] = _MATH[name](env[op.operands[0]])
            return
        raise EverestError(f"affine interpreter: unhandled op {name}")


def run_affine(module: Module, func_name: str,
               inputs: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Convenience wrapper around :class:`AffineInterpreter`."""
    return AffineInterpreter(module, func_name).run(inputs)
