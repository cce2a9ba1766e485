"""Generative IR fuzzing: seeded random well-typed modules and kernels.

``generate_module(seed)`` builds a random — but structurally valid —
module: a mix of unregistered ``fuzz.*`` ops (arbitrary arity/attributes),
well-typed registered ops (``arith``/``math``), nested regions
(``affine.for`` loops with their terminators, generic ``fuzz.region`` ops
with block arguments, occasionally multi-block) and every attribute kind
(ints with widths, special floats, escaped strings, booleans, arrays,
dicts, type refs).  ``tests/ir/test_canonicalize.py`` verifies each
module and canonicalizes it.

``generate_ekl_case(seed)`` builds a random executable EKL kernel, which
two modes use for differential validation: ``--mode exec``, the default
(compiled executor vs. interpreter, bit-for-bit — see
:func:`check_executor`) and ``--mode analyze`` (abstract shape/dtype
inference vs. the arrays the executor really produces — see
:func:`check_analysis`).

Run standalone for a longer campaign::

    python tools/irfuzz.py --count 500 [--start 0] [--mode exec|analyze]

``--dump PATH`` checks nothing: it writes what the compiler makes of the
Fig. 3 kernel, the benchmark's 40 corpus shapes and ``--count`` random
EKL kernels (see :func:`compile_dump`) to one text file, so "this change
leaves the compile output alone" is a ``cmp`` against the file of the
parent commit (``make fuzz-ir-parent``).
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List

import repro.dialects  # noqa: F401 (registration side effect)
from repro.ir import Builder, Module, print_module, verify
from repro.ir import types as T
from repro.ir.core import Block, Operation, Region, Value

_SCALARS = [T.i1, T.i8, T.i32, T.i64, T.f16, T.bf16, T.f32, T.f64, T.index,
            T.IntegerType(32, signed=False)]
_ELEMENTS = [T.f64, T.f32, T.i64, T.i32]
_SPECIAL_FLOATS = [float("inf"), float("-inf"), 0.0, -0.0, 1e-300, 1e300]
_STRINGS = ["", "plain", 'quo"te', "back\\slash", "tab\tand\nnewline",
            "space  s", "ünïcode", "@sym-ish"]


def _random_type(rng: random.Random, depth: int = 0) -> T.Type:
    # Function types may nest one level (a function-typed result found a
    # real printer ambiguity; keep generating that shape).
    kind = rng.randrange(8 if depth <= 1 else 6)
    if kind < 3:
        return rng.choice(_SCALARS)
    if kind == 3:
        shape = tuple(rng.choice([None, rng.randrange(1, 9)])
                      for _ in range(rng.randrange(0, 4)))
        return T.TensorType(shape, rng.choice(_ELEMENTS))
    if kind == 4:
        shape = tuple(rng.randrange(1, 9) for _ in range(rng.randrange(1, 3)))
        space = rng.choice(["", "hbm0", "plm", "host"])
        return T.MemRefType(shape, rng.choice(_ELEMENTS), space)
    if kind == 5:
        return rng.choice([
            T.FixedPointType(rng.randrange(0, 9), rng.randrange(1, 9),
                             rng.choice([True, False])),
            T.PositType(rng.randrange(2, 33), rng.randrange(0, 4)),
            T.StreamType(rng.choice(_ELEMENTS)),
        ])
    if kind == 6:
        inputs = tuple(_random_type(rng, depth + 1)
                       for _ in range(rng.randrange(0, 3)))
        results = tuple(_random_type(rng, depth + 1)
                        for _ in range(rng.randrange(0, 3)))
        return T.FunctionType(inputs, results)
    return T.NoneOpType()


def _random_attr(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth == 0 else 5)
    if kind == 0:
        return rng.randrange(-1000, 1000)
    if kind == 1:
        value = rng.choice(_SPECIAL_FLOATS + [rng.uniform(-1e6, 1e6)])
        return value
    if kind == 2:
        return rng.choice([True, False])
    if kind == 3:
        return rng.choice(_STRINGS)
    if kind == 4:
        return _random_type(rng)
    if kind == 5:
        return [_random_attr(rng, depth + 1)
                for _ in range(rng.randrange(0, 4))]
    return {f"k{i}": _random_attr(rng, depth + 1)
            for i in range(rng.randrange(0, 3))}


def _random_attrs(rng: random.Random) -> dict:
    return {f"a{i}": _random_attr(rng) for i in range(rng.randrange(0, 3))}


def _pick_operands(rng: random.Random, values: List[Value]) -> List[Value]:
    if not values:
        return []
    return [rng.choice(values) for _ in range(rng.randrange(0, 3))]


def _emit_ops(rng: random.Random, builder: Builder, values: List[Value],
              budget: int, depth: int) -> None:
    """Emit up to ``budget`` random ops at the builder's insertion point."""
    while budget > 0:
        budget -= 1
        choice = rng.randrange(10)
        if choice < 5:
            # A generic fuzz op: any operands, results and attributes.
            result_types = [_random_type(rng)
                            for _ in range(rng.randrange(0, 3))]
            op = builder.create(f"fuzz.op{rng.randrange(8)}",
                                _pick_operands(rng, values), result_types,
                                _random_attrs(rng))
            values.extend(op.results)
        elif choice == 5:
            # Well-typed registered arithmetic on fresh constants.
            const = builder.create("arith.constant", [], [T.f64],
                                   {"value": rng.uniform(-10, 10)})
            values.append(const.result)
            if rng.random() < 0.7:
                name = rng.choice(["arith.addf", "arith.subf", "arith.mulf"])
                floats = [v for v in values if v.type == T.f64]
                lhs = rng.choice(floats)
                op = builder.create(name, [lhs, const.result], [T.f64])
                values.append(op.result)
        elif choice == 6:
            floats = [v for v in values if v.type == T.f64]
            if floats:
                name = rng.choice(["math.sqrt", "math.exp", "math.tanh"])
                op = builder.create(name, [rng.choice(floats)], [T.f64])
                values.append(op.result)
        elif choice == 7 and depth < 2:
            # A counted loop with a nested body (IV is a block argument).
            body = Block([T.index])
            builder.create(
                "affine.for", [], [],
                {"lower": 0, "upper": rng.randrange(1, 16), "step": 1},
                [Region([body])],
            )
            inner_values = values + list(body.args)
            inner = Builder.at_end(body)
            _emit_ops(rng, inner, inner_values, rng.randrange(1, 4),
                      depth + 1)
            inner.create("affine.yield", [], [])
        elif choice == 8 and depth < 2:
            # A generic region op, sometimes with two blocks.
            blocks = [Block([_random_type(rng)
                             for _ in range(rng.randrange(0, 3))])]
            if rng.random() < 0.3:
                blocks.append(Block([_random_type(rng)]))
            op = Operation.create(f"fuzz.region{rng.randrange(3)}",
                                  _pick_operands(rng, values),
                                  [_random_type(rng)
                                   for _ in range(rng.randrange(0, 2))],
                                  _random_attrs(rng), [Region(blocks)])
            builder.insert(op)
            for block in blocks:
                # The op's own results are NOT visible inside its region.
                inner_values = values + list(block.args)
                _emit_ops(rng, Builder.at_end(block), inner_values,
                          rng.randrange(0, 3), depth + 1)
            values.extend(op.results)
        else:
            # Multi-result op, exercising the %N:2 / %N#i syntax.
            op = builder.create(f"fuzz.pair{rng.randrange(3)}",
                                _pick_operands(rng, values),
                                [_random_type(rng), _random_type(rng)])
            values.extend(op.results)


def generate_module(seed: int) -> Module:
    """Build a random, structurally valid module from ``seed``."""
    rng = random.Random(seed)
    module = Module(f"fuzz_{seed}" if rng.random() < 0.5 else "")
    builder = Builder.at_end(module.body)
    values: List[Value] = []
    _emit_ops(rng, builder, values, rng.randrange(4, 24), 0)
    return module


# -- executable-kernel fuzzing (differential executor validation) -----------
#
# ``generate_ekl_case(seed)`` builds a random — but well-typed and
# numerically tame — EKL kernel plus matching inputs.  The kernels cover
# elementwise arithmetic (with denominators bounded away from zero),
# broadcasting over named axes, min/max, transcendentals on bounded
# arguments, select/compare, reductions and gather subscripts with
# in-range indices.  ``check_executor(seed)`` then compiles the kernel
# raw (-O0) and optimized (-O1) and requires the compiled executor
# (:mod:`repro.tensorpipe.codegen`) to agree *bit-for-bit* with
# :class:`~repro.tensorpipe.affine_interp.AffineInterpreter`, and both to
# agree with the EKL interpreter (language semantics) to tolerance.

_AXIS_NAMES = ("i", "j", "k")
_TABLE_EXTENT = 11


def _pick_axes(rng: random.Random, axes: List[str]) -> List[str]:
    count = rng.randrange(0, len(axes) + 1)
    return sorted(rng.sample(axes, count))


def generate_ekl_case(seed: int):
    """A random executable EKL kernel; returns ``(source, inputs)``."""
    import numpy as np

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    axes = list(_AXIS_NAMES[: rng.randrange(1, 4)])
    extents = {axis: rng.randrange(2, 7) for axis in axes}

    decls: List[str] = [
        "  index " + ", ".join(f"{a}: {extents[a]}" for a in axes)
    ]
    inputs = {}
    # Expression pool: (source fragment, axes the value ranges over).
    pool: List[tuple] = []
    for n in range(rng.randrange(2, 5)):
        name = f"in{n}"
        in_axes = _pick_axes(rng, axes)
        shape = tuple(extents[a] for a in in_axes)
        if in_axes:
            decls.append(
                f"  input {name}[{', '.join(in_axes)}]: f64")
        else:
            decls.append(f"  input {name}: f64")
        # Bounded away from zero and modest in magnitude: safe as a
        # denominator after abs()+0.5, safe under exp() of sums.
        inputs[name] = nprng.uniform(0.5, 2.0, shape) if shape \
            else np.asarray(nprng.uniform(0.5, 2.0))
        pool.append((name, tuple(in_axes)))
    use_gather = rng.random() < 0.5
    if use_gather:
        gather_axes = _pick_axes(rng, axes) or [axes[0]]
        shape = tuple(extents[a] for a in gather_axes)
        decls.append(f"  input table[{_TABLE_EXTENT}]: f64")
        decls.append(f"  input idx[{', '.join(gather_axes)}]: i64")
        inputs["table"] = nprng.uniform(-1.0, 1.0, _TABLE_EXTENT)
        inputs["idx"] = nprng.integers(0, _TABLE_EXTENT - 1, shape)
    decls.append("  output out")

    statements: List[str] = []

    def subexpr() -> tuple:
        return rng.choice(pool)

    def fresh_statement(n: int) -> tuple:
        kind = rng.randrange(10)
        if kind < 3:
            (a, ax_a), (b, ax_b) = subexpr(), subexpr()
            op = rng.choice(["+", "-", "*"])
            return f"{a} {op} {b}", tuple(sorted(set(ax_a) | set(ax_b)))
        if kind == 3:
            (a, ax_a), (b, ax_b) = subexpr(), subexpr()
            return (f"{a} / (abs({b}) + 0.5)",
                    tuple(sorted(set(ax_a) | set(ax_b))))
        if kind == 4:
            (a, ax_a), (b, ax_b) = subexpr(), subexpr()
            fn = rng.choice(["min", "max"])
            return (f"{fn}({a}, {b})",
                    tuple(sorted(set(ax_a) | set(ax_b))))
        if kind == 5:
            a, ax = subexpr()
            fn = rng.choice(["tanh", "sin", "cos", "abs"])
            return f"{fn}({a})", ax
        if kind == 6:
            a, ax = subexpr()
            # exp/sqrt on bounded arguments only (no overflow, no NaN).
            return rng.choice([f"exp(sin({a}))",
                               f"sqrt(abs(cos({a})) + 0.5)"]), ax
        if kind == 7:
            (c1, ax_1), (c2, ax_2) = subexpr(), subexpr()
            (a, ax_a), (b, ax_b) = subexpr(), subexpr()
            cmp = rng.choice(["<=", "<", ">=", ">"])
            union = set(ax_1) | set(ax_2) | set(ax_a) | set(ax_b)
            return (f"select({c1} {cmp} {c2}, {a}, {b})",
                    tuple(sorted(union)))
        if kind == 8:
            a, ax = subexpr()
            if not ax:
                return f"{a} * {rng.choice(['2.0', '0.5', '1.25'])}", ax
            axis = rng.choice(list(ax))
            return (f"sum[{axis}]({a})",
                    tuple(x for x in ax if x != axis))
        if use_gather and rng.random() < 0.7:
            # idx values are bounded by _TABLE_EXTENT - 1, so "+ 1" stays
            # in range.
            offset = rng.choice(["", " + 1"])
            return f"table[idx{offset}]", tuple(gather_axes)
        a, ax = subexpr()
        return f"{a} + {rng.uniform(-2.0, 2.0):.6g}", ax

    for n in range(rng.randrange(2, 6)):
        expr, expr_axes = fresh_statement(n)
        name = f"t{n}"
        statements.append(f"  {name} = {expr}")
        pool.append((name, expr_axes))
    out_expr, _ = pool[-1]
    statements.append(f"  out = {out_expr}")

    body = "\n".join(decls + statements)
    source = f"kernel fuzz_{seed} {{\n{body}\n}}\n"
    return source, inputs


def lower_raw(kernel) -> Module:
    """The raw lowering chain (-O0): ekl -> esn -> teil -> affine with no
    canonicalization at any step, the reference the optimized module is
    held to."""
    from repro.frontends.ekl.lower import (
        lower_ekl_to_esn,
        lower_kernel_to_ekl,
    )
    from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

    return lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                             canonicalize=False),
            canonicalize=False,
        ),
        canonicalize=False,
    )


def check_executor(seed: int, backend: str = "compiled") -> None:
    """Differential executor check for one seed; raises on violation.

    ``backend`` (any name registered in
    :mod:`repro.tensorpipe.backends`) must match the affine interpreter
    bit-for-bit on the raw lowering (-O0) and on the optimized one (-O1,
    which runs the fusion pass after canonicalization, so fused regions
    are covered) — and must match the EKL interpreter's language
    semantics to float64 tolerance (the EKL interpreter sums with numpy
    pairwise reduction, so bitwise equality is not expected there).  The ``cbackend`` may
    record a fallback (probe-rejected op, no compiler) — that is a
    clean degradation, not a failure; every other backend must compile
    for real.  No run may change a byte of the inputs, and no output may
    share memory with an input.
    """
    import numpy as np

    from repro.frontends.ekl import Interpreter, parse_kernel
    from repro.ir import CanonicalizePass, FusionPass
    from repro.tensorpipe.affine_interp import run_affine
    from repro.tensorpipe.codegen import compile_affine

    source, inputs = generate_ekl_case(seed)
    kernel = parse_kernel(source)
    expected = Interpreter(kernel).run(inputs)
    raw = lower_raw(kernel)
    verify(raw)
    snapshot = {name: value.tobytes() for name, value in inputs.items()}
    for opt_level in (0, 1):
        module = raw if opt_level == 0 else raw.clone()
        if opt_level == 1:
            CanonicalizePass().run(module)
            FusionPass().run(module)
            verify(module)
        interpreted = run_affine(module, kernel.name, inputs)
        compiled = compile_affine(module, kernel.name, backend=backend)
        degraded = compiled.backend != backend
        if degraded and not (backend == "cbackend" and compiled.fallback):
            raise AssertionError(
                f"seed {seed}: {backend} fell back to {compiled.backend} "
                f"at -O{opt_level}\n{source}")
        got = compiled.run(inputs)
        changed = sorted(name for name, value in inputs.items()
                         if value.tobytes() != snapshot[name])
        if changed:
            raise AssertionError(
                f"seed {seed}: input(s) {changed} changed by a run at "
                f"-O{opt_level} ({backend})\n{source}")
        for name, value in (*interpreted.items(), *got.items()):
            aliased = sorted(key for key, array in inputs.items()
                             if np.shares_memory(value, array))
            if aliased:
                raise AssertionError(
                    f"seed {seed}: output {name!r} shares memory with "
                    f"input(s) {aliased} at -O{opt_level} ({backend})"
                    f"\n{source}")
        for name, value in interpreted.items():
            if not np.array_equal(got[name], value):
                raise AssertionError(
                    f"seed {seed}: {backend} != interpreted for {name!r} "
                    f"at -O{opt_level}\n{source}")
            np.testing.assert_allclose(
                got[name], expected[name], rtol=1e-7, atol=1e-9,
                err_msg=f"seed {seed}: executor disagrees with the EKL "
                        f"interpreter for {name!r} at -O{opt_level}")


def check_analysis(seed: int) -> None:
    """Abstract-interpretation cross-check for one seed; raises on violation.

    Lowers a random EKL kernel stage by stage and runs the typed verifier
    (:func:`repro.ir.verifier.verify_typed`) on every level — ekl, esn,
    teil and affine.  A raise at any level on generated-valid input is an
    analysis false positive.  At every level the facts of its single
    forward pass must equal the run-to-fixpoint oracle's
    (``tools/oracles.py``), value by value.  The affine-level abstracts
    are then checked against ground truth: every function argument's
    inferred shape/dtype must match its declared memref *and* the arrays the compiled executor
    actually consumed and produced, and every local ``memref.alloc`` must
    carry the zero-init constant
    (:data:`repro.ir.analysis.MEMREF_ALLOC_ZERO_INIT`).
    """
    import numpy as np

    from repro.frontends.ekl import parse_kernel
    from repro.frontends.ekl.lower import (
        lower_ekl_to_esn,
        lower_kernel_to_ekl,
    )
    from oracles import analysis_mismatches  # tools/ is on sys.path

    from repro.ir import verify_typed
    from repro.ir.analysis import MEMREF_ALLOC_ZERO_INIT
    from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
    from repro.tensorpipe.affine_interp import _dtype_for
    from repro.tensorpipe.codegen import compile_affine

    source, inputs = generate_ekl_case(seed)
    kernel = parse_kernel(source)
    ekl = lower_kernel_to_ekl(kernel)
    esn = lower_ekl_to_esn(ekl, canonicalize=False)
    teil = lower_esn_to_teil(esn, canonicalize=False)
    affine = lower_teil_to_affine(teil, canonicalize=False)
    analysis = None
    for label, module in (("ekl", ekl), ("esn", esn), ("teil", teil),
                          ("affine", affine)):
        try:
            analysis = verify_typed(module)
        except Exception as error:
            raise AssertionError(
                f"seed {seed}: typed verifier rejected the valid {label} "
                f"module (analysis false positive): {error}\n{source}"
            ) from error
        mismatches = analysis_mismatches(module, analysis)
        if mismatches:
            raise AssertionError(
                f"seed {seed}: verify_typed on the {label} module "
                "disagrees with the run-to-fixpoint oracle:\n"
                + "\n".join(mismatches) + f"\n{source}")

    func = affine.lookup(kernel.name)
    entry = func.regions[0].entry
    arg_names = func.attr("arg_names")
    num_outputs = func.attr("num_outputs")
    outputs = compile_affine(affine, kernel.name).run(inputs)
    for i, arg in enumerate(entry.args):
        name = arg_names[i]
        abstract = analysis.of(arg)
        ref = arg.type
        if abstract.shape != tuple(ref.shape) \
                or abstract.dtype != str(ref.element):
            raise AssertionError(
                f"seed {seed}: inferred {abstract} for arg {name!r} does "
                f"not match declared {ref}\n{source}")
        is_output = i >= len(entry.args) - num_outputs
        array = outputs[name] if is_output else np.asarray(
            inputs[name], dtype=_dtype_for(ref.element))
        if tuple(array.shape) != abstract.shape:
            raise AssertionError(
                f"seed {seed}: executor array for {name!r} has shape "
                f"{array.shape}, analysis inferred {abstract.shape}"
                f"\n{source}")
        if array.dtype != np.dtype(_dtype_for(ref.element)):
            raise AssertionError(
                f"seed {seed}: executor array for {name!r} has dtype "
                f"{array.dtype}, analysis inferred {abstract.dtype!r}"
                f"\n{source}")
    for op in entry.operations:
        if op.name == "memref.alloc":
            if analysis.of(op.results[0]).const != MEMREF_ALLOC_ZERO_INIT:
                raise AssertionError(
                    f"seed {seed}: memref.alloc lost the zero-init "
                    f"contract in the analysis\n{source}")


def compile_dump(start: int, count: int) -> str:
    """The compile output of every dump case, as one text.

    Cases: the Fig. 3 kernel, the 40 shapes of ``bench/gen.py`` (constants
    drawn from ``random.Random(shape index)``) and the EKL kernels of
    seeds ``start .. start + count - 1``.  Per case, for the raw chain
    (``O0``, :func:`lower_raw`, printed twice because nothing optimizes
    it) and for the session's stages (``O1``): the IR after
    ``dialect-lowering`` and after ``canonicalize``, the HLS report (its
    full ``repr``) under f64 and f32, and the generated numpy and C
    sources.  The C source is emitted as if every probed op passed the
    probe, so the text does not depend on the C compiler.
    """
    import os

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from bench import gen
    from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
    from repro.pipeline.stages import (stage_canonicalize,
                                       stage_dialect_lowering,
                                       stage_frontend_parse, stage_hls)
    from repro.tensorpipe.cbackend import _PROBE_BODIES, CEmitter
    from repro.tensorpipe.codegen import AffineCompiler, UnsupportedAffineOp

    cases = [("fig3", FIG3_MAJOR_ABSORBER)]
    cases += [(f"shape{index}",
               gen.render(shape, f"shape{index}", random.Random(index)))
              for index, shape in enumerate(gen.SHAPES)]
    cases += [(f"seed{seed}", generate_ekl_case(seed)[0])
              for seed in range(start, start + count)]
    probed = frozenset(_PROBE_BODIES)
    out: List[str] = []
    for label, source in cases:
        kernel = stage_frontend_parse(source)
        for level, lower, optimize in (
                ("O0", lower_raw, lambda module: module),
                ("O1", stage_dialect_lowering, stage_canonicalize)):
            head = f"==== {label} {level}"
            module = lower(kernel)
            out += [f"{head} dialect-lowering", print_module(module)]
            optimize(module)
            out += [f"{head} canonicalize", print_module(module)]
            for fmt in ("f64", "f32"):
                report = stage_hls((kernel, module), number_format=fmt)
                out += [f"{head} hls {fmt}", repr(report)]
            for language, emit in (
                    ("numpy", lambda: AffineCompiler(
                        module, kernel.name).generate()),
                    ("c", lambda: CEmitter(
                        module, kernel.name, probed).generate())):
                try:
                    text = emit()
                except UnsupportedAffineOp as error:
                    text = f"unsupported: {error}"
                out += [f"{head} {language}", text]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fuzz the compiled affine executor (exec mode) or the "
                    "typed verifier's analysis (analyze mode)")
    parser.add_argument("--count", type=int, default=200,
                        help="number of seeds to run")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed")
    parser.add_argument("--mode", choices=["exec", "analyze"],
                        default="exec",
                        help="exec: compiled executor vs. interpreter "
                             "differential; analyze: abstract "
                             "shape/dtype inference vs. executor arrays")
    parser.add_argument("--backend", default="compiled",
                        help="executor backend to fuzz in exec mode "
                             "(any name registered in "
                             "repro.tensorpipe.backends)")
    parser.add_argument("--quiet", action="store_true",
                        help="only log failures (suppress the summary "
                             "line; CI smoke runs)")
    parser.add_argument("--dump", metavar="PATH",
                        help="check nothing; write the compile output of "
                             "Fig. 3, the benchmark corpus and --count "
                             "seeds to PATH")
    args = parser.parse_args(argv)
    if args.dump:
        with open(args.dump, "w") as out:
            out.write(compile_dump(args.start, args.count))
        return 0
    from repro.telemetry.log import configure_logging, get_logger

    configure_logging("error" if args.quiet else "info")
    log = get_logger("irfuzz")
    if args.mode == "analyze":
        check = check_analysis
        label = args.mode
    else:
        def check(seed):
            check_executor(seed, backend=args.backend)
        label = f"{args.mode}:{args.backend}"
    failures = 0
    for seed in range(args.start, args.start + args.count):
        try:
            check(seed)
        except Exception as error:  # pragma: no cover - campaign reporting
            failures += 1
            log.error("seed %d: FAIL: %s", seed, error)
    log.info("irfuzz[%s]: %d/%d seeds ok (seeds %d..%d)",
             label, args.count - failures, args.count,
             args.start, args.start + args.count - 1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
