"""Generated-C executor backend (``cc`` + ``ctypes`` at cache-fill time).

:class:`CBackend` emits one C translation unit per affine function —
native scalar loops over raw row-major pointers — compiles it with the
system C compiler into a shared object, and binds it through
:mod:`ctypes`.  This is the SDK's "kernel library" rung (the hardware
backends emit HLS C++ from the same affine module; sailfish-style
Python-defined device kernels are the exemplar): zero numpy dispatch
overhead, and the loop structure of :mod:`repro.tensorpipe.nestplan` —
same-bounds loops fused, intermediates that live inside one fused loop
contracted to per-iteration locals, everything else at offsets of one
arena that ``repro_kernel`` allocates per call (it returns non-zero
when that fails, and the run raises).

Bitwise contract
----------------
The backend participates in the same bit-for-bit float64 differential
contract as the numpy backends, which constrains the emitted C:

* IEEE ``+ - * /``, ``sqrt``, ``fabs`` and float casts are exactly
  rounded in both numpy and C — always safe.  ``-ffp-contract=off``
  keeps the compiler from fusing multiply-adds (FMA changes bits).
* libm transcendentals (``exp``, ``log``, ``tanh``, ``pow``, ...) are
  *not* guaranteed to match numpy's SIMD loops bit-for-bit, so a
  one-time **runtime probe** compiles a tiny program and compares each
  candidate against the numpy ufunc over adversarial inputs; only ops
  whose results are bitwise identical are admitted.  A kernel using a
  rejected op falls back to the ``compiled`` numpy backend with the
  reason recorded on the artifact (``kernel.fallback``).
* ``arith.divsi``/``remsi`` are emitted as *floor* division/modulo
  (numpy semantics; C ``/`` truncates), ``arith.maximumf`` as the
  NaN-propagating ``(a >= b || a != a) ? a : b``, and negative gather
  indices wrap once like numpy's.

Artifact cache
--------------
Artifacts live in an on-disk cache keyed by what they are built from
(C source, flags, compiler), so an emitter change can never load an
object the old emitter built.  The compiler writes source and object
to dot-prefixed temporaries and installs with an atomic ``os.replace``;
a ``cc`` crash mid-build, or a build killed after ``CC_TIMEOUT_S``,
leaves *nothing* under the final name, so a later process can never load
a truncated artifact.
``REPRO_CBACKEND_CACHE`` overrides the cache directory, ``REPRO_CC``
the compiler (both used by the regression tests); with no compiler on
PATH every compile cleanly falls back.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import signal
import subprocess
import tempfile
import threading
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import EverestError
from repro.ir import Module, Operation, Value
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import get_tracer
from repro.tensorpipe.affine_interp import buffer_plan
from repro.tensorpipe.codegen import (
    CompiledKernel,
    UnsupportedAffineOp,
    _static_flops,
    compile_numpy,
)
from repro.tensorpipe.nestplan import Item, NestPlan, Stmt, plan_nests

_CTYPE = {
    "f64": "double", "f32": "float", "i64": "int64_t", "i32": "int32_t",
    "i1": "uint8_t", "index": "int64_t",
}

_CMP_C = {"le": "<=", "lt": "<", "ge": ">=", "gt": ">", "eq": "==",
          "ne": "!="}

# Simple infix ops whose C semantics match numpy exactly on every
# operand type we emit (IEEE arithmetic / two's-complement int64).
_INFIX_C = {
    "arith.addf": "+", "arith.subf": "-", "arith.mulf": "*",
    "arith.divf": "/",
    "arith.addi": "+", "arith.subi": "-", "arith.muli": "*",
}

_MATH_C = {"math.exp": "exp", "math.log": "log", "math.sqrt": "sqrt",
           "math.sin": "sin", "math.cos": "cos", "math.tanh": "tanh"}

_HELPERS = """\
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

static inline int64_t repro_wrap(int64_t i, int64_t n)
    { return i < 0 ? i + n : i; }
static inline int64_t repro_divfloor(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b) != 0 && ((a < 0) != (b < 0))) --q;
    return q;
}
static inline int64_t repro_modfloor(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
static inline double repro_fmax(double a, double b)
    { return (a >= b || a != a) ? a : b; }
static inline double repro_fmin(double a, double b)
    { return (a <= b || a != a) ? a : b; }
"""


def _c_float_literal(value: float) -> str:
    if value != value:
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "-INFINITY"
    # repr round-trips doubles exactly and strtod is correctly rounded.
    text = repr(float(value))
    return text


class CEmitter:
    """Emit one affine function as a C translation unit."""

    def __init__(self, module: Module, func_name: str,
                 supported: FrozenSet[str]):
        self.func = module.lookup(func_name)
        if self.func.attr("kernel_lang") != "affine":
            raise EverestError(f"{func_name} is not an affine-level function")
        self.supported = supported
        # C cannot see a read-only flag: a write to an input is refused here.
        args = self.func.regions[0].entry.args
        count = len(args) - self.func.attr("num_outputs")
        self.inputs = dict(zip(args[:count], self.func.attr("arg_names")))
        self.plan: NestPlan = plan_nests(self.func)
        self.lines: List[str] = []
        self.indent = 1
        self.counter = 0
        self.expr: Dict[Value, str] = {}
        self.ctype: Dict[Value, str] = {}
        self.buffers: Dict[Value, str] = {}    # memref -> C variable
        self.nonneg: set = set()       # values provably >= 0 (loop IVs)

    def _fresh(self, prefix: str = "v") -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def _emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _ct(self, value: Value) -> str:
        """The C type of a scalar value, or of a buffer's elements."""
        ty = getattr(value.type, "element", value.type)
        ct = _CTYPE.get(str(ty))
        if ct is None:
            raise UnsupportedAffineOp(f"no C type for {ty}")
        return ct

    def generate(self) -> str:
        entry = self.func.regions[0].entry
        plan = self.plan
        self.lines = [_HELPERS, "int repro_kernel(void **args) {"]
        for i, arg in enumerate(entry.args):
            var = f"a{i}"
            ct = self._ct(arg)
            self._emit(f"{ct} *{var} = ({ct} *) args[{i}];")
            self.buffers[arg] = var
        # One allocation per call, never static: the daemon runs one
        # cached kernel from several threads at once.
        if plan.arena.slots:
            self._emit(f"char *arena = (char *) "
                       f"malloc({max(plan.arena.total_bytes, 1)});")
            self._emit("if (!arena) return 1;")
        for item in plan.items:
            self._emit_item(item)
        if plan.arena.slots:
            self._emit("free(arena);")
        self._emit("return 0;")
        self.lines.append("}")
        return "\n".join(self.lines) + "\n"

    # -- plan items ------------------------------------------------------------

    def _emit_item(self, item: Item) -> None:
        if isinstance(item, Stmt):
            self._emit_op(item.op)
            return
        lower, upper, step = item.bounds
        if step is None or step <= 0:
            raise UnsupportedAffineOp(f"non-positive loop step {step}")
        var = self._fresh("i")
        for iv in item.ivs:
            self.expr[iv] = var
            self.ctype[iv] = "int64_t"
            self.nonneg.add(iv)
        self._emit(f"for (int64_t {var} = {lower}; {var} < {upper}; "
                   f"{var} += {step}) {{")
        self.indent += 1
        for buffer in item.locals:
            self._emit_local(buffer)
        for inner in item.body:
            self._emit_item(inner)
        self.indent -= 1
        self._emit("}")

    def _emit_local(self, buffer: Value) -> None:
        """A contracted buffer: its per-iteration slice as a C local."""
        kept = self.plan.kept_dims(buffer)
        count = 1
        for d in kept:
            count *= buffer.type.shape[d]
        var = self._fresh("t")
        extent = f"[{max(count, 1)}]" if kept else ""
        zero = "" if buffer not in self.plan.zeroed \
            else " = {0}" if extent else " = 0"
        self._emit(f"{self._ct(buffer)} {var}{extent}{zero};")
        self.buffers[buffer] = var

    # -- per-op emission -----------------------------------------------------

    def _emit_op(self, op: Operation) -> None:
        name = op.name
        if name in ("memref.store", "memref.copy") and \
                op.operands[1] in self.inputs:
            raise UnsupportedAffineOp(
                f"{name} writes input {self.inputs[op.operands[1]]!r}")
        if name == "memref.alloc":
            buffer = op.results[0]
            if buffer in self.plan.contracted:
                return      # declared inside its group
            slot = self.plan.arena.op_slots.get(id(op))
            if slot is None:
                raise UnsupportedAffineOp(
                    "memref.alloc outside the static arena plan")
            ct = self._ct(buffer)
            var = self._fresh("buf")
            self._emit(f"{ct} *{var} = ({ct} *) (arena + {slot.offset});")
            if buffer in self.plan.zeroed and slot.size:
                self._emit(f"memset({var}, 0, {slot.size});")
            self.buffers[buffer] = var
            return
        if name == "memref.copy":
            src, dst = op.operands[0], op.operands[1]
            if src not in self.buffers or dst not in self.buffers:
                raise UnsupportedAffineOp("copy of unknown buffer")
            self._emit(f"memcpy({self.buffers[dst]}, {self.buffers[src]}, "
                       f"{src.type.num_elements()} * "
                       f"sizeof({self._ct(src)}));")
            return
        if name == "memref.load":
            result = op.results[0]
            forwarded = self.plan.forwards.get(id(op))
            if forwarded is not None:
                self.expr[result] = self._operand(forwarded)
                self.ctype[result] = self.ctype[forwarded]
                return
            var = self._fresh()
            ct = self._ct(result)
            element = self._element(op.operands[0], op.operands[1:])
            self._emit(f"{ct} {var} = {element};")
            self.expr[result] = var
            self.ctype[result] = ct
            return
        if name == "memref.store":
            value, buffer = op.operands[0], op.operands[1]
            element = self._element(buffer, op.operands[2:])
            self._emit(f"{element} = ({self._ct(buffer)})"
                       f"({self._operand(value)});")
            return
        if name == "arith.constant":
            self._emit_constant(op)
            return
        expr = self._compute(op)
        var = self._fresh()
        ct = self._ct(op.results[0])
        self._emit(f"{ct} {var} = {expr};")
        self.expr[op.results[0]] = var
        self.ctype[op.results[0]] = ct

    def _emit_constant(self, op: Operation) -> None:
        value = op.attr("value")
        result = op.results[0]
        ct = self._ct(result)
        if isinstance(value, bool):
            literal = "1" if value else "0"
        elif isinstance(value, float):
            literal = _c_float_literal(value)
        elif isinstance(value, int):
            literal = repr(value)
            if value >= 0:
                self.nonneg.add(result)
        else:
            raise UnsupportedAffineOp(f"cannot inline constant {value!r}")
        # Cast into the result's C type so f32 constants participate in
        # float arithmetic (numpy keeps the narrow type the same way).
        self.expr[result] = f"(({ct})({literal}))"
        self.ctype[result] = ct

    def _operand(self, value: Value) -> str:
        expr = self.expr.get(value)
        if expr is None:
            raise UnsupportedAffineOp("operand defined outside C scope")
        return expr

    def _element(self, buffer: Value, indices: Sequence[Value]) -> str:
        """The C lvalue of one buffer element (row-major; a contracted
        buffer is indexed by its kept dimensions only)."""
        var = self.buffers.get(buffer)
        if var is None:
            raise UnsupportedAffineOp("access to unknown buffer")
        shape = buffer.type.shape
        if len(indices) != len(shape):
            raise UnsupportedAffineOp("rank-mismatched memory access")
        kept = self.plan.kept_dims(buffer)
        if not kept and buffer in self.plan.contracted:
            return var      # contracted to a scalar
        parts = []
        stride = 1
        for d in reversed(kept):
            expr = self._operand(indices[d])
            if indices[d] not in self.nonneg:
                # numpy wraps one negative step (gather indices).
                expr = f"repro_wrap({expr}, {shape[d]})"
            parts.append(expr if stride == 1 else f"({expr}) * {stride}")
            stride *= shape[d]
        return f"{var}[{' + '.join(reversed(parts)) or '0'}]"

    def _compute(self, op: Operation) -> str:
        name = op.name
        ops = [self._operand(o) for o in op.operands]
        cts = [self.ctype.get(o, "") for o in op.operands]
        if name in _INFIX_C:
            return f"({ops[0]} {_INFIX_C[name]} {ops[1]})"
        if name in ("arith.divsi", "arith.remsi"):
            fn = "repro_divfloor" if name == "arith.divsi" else \
                "repro_modfloor"
            return f"{fn}({ops[0]}, {ops[1]})"
        if name == "arith.maxsi":
            return f"({ops[0]} > {ops[1]} ? {ops[0]} : {ops[1]})"
        if name == "arith.minsi":
            return f"({ops[0]} < {ops[1]} ? {ops[0]} : {ops[1]})"
        if name in ("arith.maximumf", "arith.minimumf", "arith.powf"):
            self._require(name)
            self._require_double(name, cts)
            fn = {"arith.maximumf": "repro_fmax",
                  "arith.minimumf": "repro_fmin",
                  "arith.powf": "pow"}[name]
            return f"{fn}({ops[0]}, {ops[1]})"
        if name in ("arith.cmpf", "arith.cmpi"):
            cmp = _CMP_C.get(op.attr("predicate"))
            if cmp is None:
                raise UnsupportedAffineOp(
                    f"unknown predicate {op.attr('predicate')!r}")
            return f"({ops[0]} {cmp} {ops[1]})"
        if name == "arith.select":
            return f"({ops[0]} ? {ops[1]} : {ops[2]})"
        if name == "arith.negf":
            return f"(-{ops[0]})"
        if name in _MATH_C:
            self._require(name)
            self._require_double(name, cts)
            return f"{_MATH_C[name]}({ops[0]})"
        if name == "math.abs":
            if cts[0] == "double":
                return f"fabs({ops[0]})"
            if cts[0] == "float":
                return f"fabsf({ops[0]})"
            return f"({ops[0]} < 0 ? -{ops[0]} : {ops[0]})"
        if name == "arith.index_cast":
            return f"(int64_t)({ops[0]})"
        if name in ("arith.sitofp", "arith.fptosi", "arith.truncf",
                    "arith.extf"):
            return f"({self._ct(op.results[0])})({ops[0]})"
        raise UnsupportedAffineOp(f"cannot emit C for op {name}")

    def _require(self, name: str) -> None:
        if name not in self.supported:
            raise UnsupportedAffineOp(
                f"{name}: host libm is not bit-identical to numpy")

    @staticmethod
    def _require_double(name: str, cts: List[str]) -> None:
        if any(ct != "double" for ct in cts):
            raise UnsupportedAffineOp(
                f"{name}: only double precision is probed against numpy")


# -- compiler / artifact cache ------------------------------------------------


class CCompileError(EverestError):
    """``cc`` failed; callers fall back to the numpy backend."""


def find_cc() -> Optional[str]:
    """The C compiler to use: ``REPRO_CC`` (tests) or ``cc`` on PATH."""
    override = os.environ.get("REPRO_CC")
    if override:
        return override
    return shutil.which("cc")


def cache_dir() -> str:
    base = os.environ.get("REPRO_CBACKEND_CACHE")
    if not base:
        base = os.path.join(tempfile.gettempdir(),
                            f"repro-cbackend-{os.getuid()}")
    os.makedirs(base, exist_ok=True)
    return base


#: Outcomes of ``cc`` invocations (``cached`` = .so already installed).
_CC_RUNS = get_registry().counter(
    "repro_cbackend_cc_total",
    "C-backend shared-object builds by outcome", ("result",))


#: Everything but the source and the compiler that decides what a
#: shared object contains.  No ``-ffast-math`` / ``-march=native``:
#: the bitwise contract with numpy rules them out.
_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Seconds one ``cc`` build may run before its process group is killed
#: and the build fails (the kernel then falls back to ``compiled``).
CC_TIMEOUT_S = 60.0


def _cc_identity(cc: str) -> str:
    """The compiler binary behind ``cc``: its resolved path, size and
    mtime (an upgraded compiler must not reuse the old one's objects)."""
    path = os.path.realpath(shutil.which(cc) or cc)
    try:
        info = os.stat(path)
    except OSError:
        return path
    return f"{path}:{info.st_size}:{info.st_mtime_ns}"


def compile_shared_object(cc: str, source: str,
                          attrs: Optional[Mapping[str, object]] = None
                          ) -> str:
    """Compile ``source`` into ``<cache>/<key>.so``; atomic install.

    ``key`` fingerprints what the object is built *from* (the C source,
    the flags, the compiler), never the IR module it was generated for:
    an emitter change yields a new source and so a new artifact, and a
    warm cache directory cannot hand back a binary built by older code.

    Source and object are written to dot-prefixed temporaries and moved
    into place with ``os.replace`` only after ``cc`` succeeded, so a
    failed build can never leave a partial artifact under the final
    name (cache-poisoning guard).  Raises :class:`CCompileError` on
    failure, with all temporaries removed, also when ``cc`` runs past
    :data:`CC_TIMEOUT_S`: it runs in a session of its own, and the whole
    process group (``cc1``, ``as``, ``ld``) is killed.  ``attrs`` are
    recorded on the ``cbackend.cc`` span when tracing is on.
    """
    directory = cache_dir()
    key = hashlib.sha256("\x1f".join(
        (source, *_CC_FLAGS, _cc_identity(cc))).encode("utf-8")).hexdigest()
    so_path = os.path.join(directory, f"{key}.so")
    if os.path.exists(so_path):
        _CC_RUNS.inc(result="cached")
        return so_path
    pid = os.getpid()
    tmp_c = os.path.join(directory, f".{key}.{pid}.c")
    tmp_so = os.path.join(directory, f".{key}.{pid}.so")
    try:
        with open(tmp_c, "w") as handle:
            handle.write(source)
        command = [cc, *_CC_FLAGS, "-o", tmp_so, tmp_c, "-lm"]
        tracer = get_tracer()
        with tracer.span("cbackend.cc", category="compile") as span:
            if tracer.enabled:
                span.attrs.update(attrs or {}, cc=cc, key=key)
            try:
                proc = subprocess.Popen(
                    command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True, start_new_session=True)
            except OSError as error:
                _CC_RUNS.inc(result="error")
                raise CCompileError(f"cannot run {cc!r}: {error}")
            try:
                stdout, stderr = proc.communicate(timeout=CC_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                _CC_RUNS.inc(result="error")
                raise CCompileError(
                    f"{cc} timed out after {CC_TIMEOUT_S:g} s")
            finally:
                if proc.returncode is None:     # timed out or interrupted
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.communicate()
            if proc.returncode != 0 or not os.path.exists(tmp_so):
                _CC_RUNS.inc(result="error")
                detail = (stderr or stdout or "").strip()
                raise CCompileError(
                    f"{cc} exited with {proc.returncode}"
                    + (f": {detail[:500]}" if detail else ""))
        _CC_RUNS.inc(result="ok")
        os.replace(tmp_so, so_path)
        # Keep the source next to the object for inspection (same
        # atomic discipline; losing this race is harmless).
        os.replace(tmp_c, os.path.join(directory, f"{key}.c"))
        return so_path
    finally:
        for leftover in (tmp_c, tmp_so):
            try:
                os.remove(leftover)
            except OSError:
                pass


_LOADED: Dict[str, object] = {}
_LOAD_LOCK = threading.Lock()


def _load_kernel(so_path: str):
    with _LOAD_LOCK:
        fn = _LOADED.get(so_path)
        if fn is None:
            lib = ctypes.CDLL(so_path)
            fn = lib.repro_kernel
            fn.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
            fn.restype = ctypes.c_int       # non-zero: arena malloc failed
            _LOADED[so_path] = fn
        return fn


# -- the libm-vs-numpy probe --------------------------------------------------

_PROBE_CACHE: Dict[Tuple[str, str], Optional[FrozenSet[str]]] = {}
_PROBE_LOCK = threading.Lock()


def _probe_inputs() -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0x5EED)
    a = np.concatenate([
        rng.uniform(-50.0, 50.0, 2000),
        rng.uniform(-1e-3, 1e-3, 500),
        rng.normal(0.0, 1e4, 500),
        np.array([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan,
                  np.pi, -np.pi, 1e-300, 1e300]),
    ])
    b = rng.permutation(a)
    return a, b


_PROBE_REFS = {
    "math.exp": lambda a, b: np.exp(a),
    "math.log": lambda a, b: np.log(np.abs(a) + 1e-6),
    "math.sqrt": lambda a, b: np.sqrt(np.abs(a)),
    "math.sin": lambda a, b: np.sin(a),
    "math.cos": lambda a, b: np.cos(a),
    "math.tanh": lambda a, b: np.tanh(a),
    "arith.powf": lambda a, b: np.power(np.abs(a) + 0.5,
                                        np.clip(b, -3.0, 3.0)),
    "arith.maximumf": lambda a, b: np.maximum(a, b),
    "arith.minimumf": lambda a, b: np.minimum(a, b),
}

# The C loop bodies mirror the reference preprocessing above so both
# sides evaluate the candidate op over identical finite/special inputs.
_PROBE_BODIES = {
    "math.exp": "out[i] = exp(a[i]);",
    "math.log": "out[i] = log(fabs(a[i]) + 1e-6);",
    "math.sqrt": "out[i] = sqrt(fabs(a[i]));",
    "math.sin": "out[i] = sin(a[i]);",
    "math.cos": "out[i] = cos(a[i]);",
    "math.tanh": "out[i] = tanh(a[i]);",
    "arith.powf": ("double e = b[i] < -3.0 ? -3.0 : "
                   "(b[i] > 3.0 ? 3.0 : b[i]); "
                   "if (b[i] != b[i]) e = b[i]; "
                   "out[i] = pow(fabs(a[i]) + 0.5, e);"),
    "arith.maximumf": "out[i] = repro_fmax(a[i], b[i]);",
    "arith.minimumf": "out[i] = repro_fmin(a[i], b[i]);",
}


def probe_supported(cc: str) -> Optional[FrozenSet[str]]:
    """Which probed ops match numpy bit-for-bit under ``cc`` + libm.

    Returns None when the probe itself cannot be built (no working
    compiler): the caller falls back for every kernel.  Results are
    cached per (compiler, cache-dir) for the process lifetime.
    """
    cache_key = (cc, cache_dir())
    with _PROBE_LOCK:
        if cache_key in _PROBE_CACHE:
            return _PROBE_CACHE[cache_key]
    names = sorted(_PROBE_BODIES)
    cases = "\n".join(
        f"        case {i}: {_PROBE_BODIES[name]} break;"
        for i, name in enumerate(names))
    source = (_HELPERS + f"""
int repro_kernel(void **args) {{
    const double *a = (const double *) args[0];
    const double *b = (const double *) args[1];
    double *out = (double *) args[2];
    const int64_t *meta = (const int64_t *) args[3];
    int64_t n = meta[0], op = meta[1];
    for (int64_t i = 0; i < n; ++i) switch (op) {{
{cases}
    }}
    return 0;
}}
""")
    supported: Optional[FrozenSet[str]]
    try:
        so_path = compile_shared_object(cc, source)
        fn = _load_kernel(so_path)
        a, b = _probe_inputs()
        out = np.empty_like(a)
        passed = []
        for i, name in enumerate(names):
            meta = np.array([a.size, i], dtype=np.int64)
            ptrs = (ctypes.c_void_p * 4)(a.ctypes.data, b.ctypes.data,
                                         out.ctypes.data, meta.ctypes.data)
            fn(ptrs)
            with np.errstate(all="ignore"):
                reference = _PROBE_REFS[name](a, b)
            if np.array_equal(out, reference, equal_nan=True):
                passed.append(name)
        supported = frozenset(passed)
    except (CCompileError, OSError):
        supported = None
    with _PROBE_LOCK:
        _PROBE_CACHE[cache_key] = supported
    return supported


def reset_probe_cache() -> None:
    """Forget probe results (tests that redirect ``REPRO_CC``)."""
    with _PROBE_LOCK:
        _PROBE_CACHE.clear()


# -- the backend --------------------------------------------------------------


class CBackend:
    """``cbackend``: generated C, with clean fallback to ``compiled``.
    Every call emits the source; its shared object is built once (the
    on-disk store) and loaded once per process, so a repeat runs no ``cc``.
    """

    name = "cbackend"

    def compile(self, module: Module, func_name: str) -> CompiledKernel:
        cc = find_cc()
        if cc is None:
            return self._fallback(module, func_name,
                                  "no C compiler (cc) on PATH")
        supported = probe_supported(cc)
        if supported is None:
            return self._fallback(module, func_name,
                                  f"probe build failed under {cc!r}")
        try:
            emitter = CEmitter(module, func_name, supported)
            source = emitter.generate()
        except UnsupportedAffineOp as error:
            return self._fallback(module, func_name, str(error))
        plan = emitter.plan
        arena_bytes = plan.arena.total_bytes
        facts = {"arena_bytes": arena_bytes,
                 "arena_slots": len(plan.arena.slots),
                 "fused_groups": plan.fused_groups,
                 "contracted_buffers": len(plan.contracted)}
        try:
            fn = _load_kernel(compile_shared_object(cc, source, facts))
        except (CCompileError, OSError) as error:
            return self._fallback(module, func_name, str(error))
        func = module.lookup(func_name)
        pointers = ctypes.c_void_p * len(func.regions[0].entry.args)

        def runner(buffers):
            ptrs = pointers(*[buffer.__array_interface__["data"][0]
                              for buffer in buffers])
            if fn(ptrs):
                raise EverestError(
                    f"cbackend: {func_name} could not allocate its "
                    f"{arena_bytes}-byte arena")

        return CompiledKernel(
            func_name=func_name, backend="cbackend", source=source,
            flops=_static_flops(func), _plan=buffer_plan(func),
            _call=runner, **facts,
        )

    @staticmethod
    def _fallback(module: Module, func_name: str,
                  reason: str) -> CompiledKernel:
        kernel = compile_numpy(module, func_name, backend="compiled")
        kernel.fallback = f"cbackend: {reason}"
        return kernel

    def __repr__(self) -> str:
        return f"<backend {self.name}>"
