"""BENCH-IR-CANONICALIZE: worklist rewriting vs. the full-sweep oracle
(``tools/oracles.py::apply_patterns_sweep``).

Builds one module of >= 2,000 ops mixing the shapes canonicalization
meets in practice:

* a long *dead* ``math.sin`` chain — only its tail is trivially dead, so
  the sweep driver erases one op per sweep (O(ops x depth) visits) while
  the worklist driver follows the producer links (O(depth));
* a constant-folding ``arith.addf`` chain;
* an identity chain (``x + 0.0`` repeated);
* a large *cold* live region (``math.cos`` chain) that no pattern ever
  matches — the sweep driver still re-visits it every iteration.

Both drivers run the same canonicalization pattern set
(:func:`repro.ir.canonicalize.canonical_pattern_set`) on clones of the
same module; the final IR must print identically and the worklist driver
must be >= 5x faster.  Results land in
``benchmarks/out/ir_canonicalize.json`` (run via ``make bench-ir``).
"""

from conftest import measure, record
from oracles import apply_patterns_sweep

from repro.ir import (
    apply_patterns_worklist,
    build_func,
    canonical_pattern_set,
    print_module,
    types as T,
    verify,
)
from repro.ir.core import Module

_DEAD_CHAIN = 400
_COLD_CHAIN = 900
_CONST_CHAIN = 350
_IDENTITY_CHAIN = 350


def _build_module() -> Module:
    module = Module()
    _, entry, fb = build_func(module, "bench", [T.f64], [T.f64])
    arg = entry.args[0]

    # Dead chain: nothing uses the tail, each op uses its predecessor.
    dead = arg
    for _ in range(_DEAD_CHAIN):
        dead = fb.create("math.sin", [dead], [T.f64]).result

    # Constant-folding chain.
    c_a = fb.create("arith.constant", [], [T.f64], {"value": 1.5}).result
    c_b = fb.create("arith.constant", [], [T.f64], {"value": 0.25}).result
    folded = fb.create("arith.addf", [c_a, c_b], [T.f64]).result
    for _ in range(_CONST_CHAIN - 1):
        folded = fb.create("arith.addf", [folded, c_b], [T.f64]).result

    # Identity chain: x + 0.0 all the way down.
    zero = fb.create("arith.constant", [], [T.f64], {"value": 0.0}).result
    ident = arg
    for _ in range(_IDENTITY_CHAIN):
        ident = fb.create("arith.addf", [ident, zero], [T.f64]).result

    # Cold live chain: no pattern matches, stays in the module.
    cold = arg
    for _ in range(_COLD_CHAIN):
        cold = fb.create("math.cos", [cold], [T.f64]).result

    total = fb.create("arith.mulf", [ident, cold], [T.f64]).result
    total = fb.create("arith.mulf", [total, folded], [T.f64]).result
    fb.create("func.return", [total])
    return module


def test_worklist_beats_sweep_driver_on_2000_op_module():
    module = _build_module()
    n_ops = sum(1 for _ in module.walk())
    assert n_ops >= 2000

    patterns = canonical_pattern_set()
    # Both drivers rewrite in place: one fresh clone per call, made
    # outside the timed region (1 warm-up + 5 timed calls a side).
    clones = [module.clone() for _ in range(12)]

    def run(driver, **options):
        target = clones.pop()
        driver(target, patterns, **options)
        return target

    (sweep, sweep_module), (worklist, worklist_module) = measure(
        lambda: run(apply_patterns_sweep, max_iterations=_DEAD_CHAIN + 16),
        lambda: run(apply_patterns_worklist))

    verify(sweep_module)
    verify(worklist_module)
    assert print_module(sweep_module) == print_module(worklist_module)

    ops_after = sum(1 for _ in worklist_module.walk())
    # Everything except the cold chain, the surviving constant, the final
    # muls and the function scaffolding must have been rewritten away.
    assert ops_after < _COLD_CHAIN + 16

    speedup = sweep["median_s"] / worklist["median_s"]
    record("ir_canonicalize", "worklist_vs_sweep", {
        "module_ops": n_ops,
        "ops_after_canonicalization": ops_after,
        "dead_chain_depth": _DEAD_CHAIN,
        "sweep": sweep,
        "worklist": worklist,
        "speedup": round(speedup, 1),
        "results_identical": True,
    })
    print(f"\n  {n_ops}-op module: sweep driver {sweep['median_s']:.3f}s, "
          f"worklist driver {worklist['median_s']:.3f}s ({speedup:.0f}x), "
          f"{ops_after} ops after canonicalization")
    assert speedup >= 5.0
