"""BENCH-AFFINE-EXEC: the CPU executor backend ladder.

The paper's premise (§V) is that kernels are *compiled* to fast
backends rather than interpreted.  This benchmark regenerates that
claim on the CPU across the whole backend registry:

* ``fig3`` — the Fig. 3 major-absorber kernel through the reference
  :class:`~repro.tensorpipe.affine_interp.AffineInterpreter` vs. the
  ``compiled`` vectorized-numpy backend (>= 50x, bit-identical, HLS
  FLOP cross-check);
* ``fusion`` — an elementwise-chain kernel compiled with and without
  the :class:`~repro.ir.fusion.FusionPass`: the fused module must beat
  the unfused one (fewer intermediate buffers, fewer memory passes);
* ``parallel`` — the same fused module through ``compiled-parallel``
  with >= 2 workers vs. serial ``compiled`` on a large kernel: tiling
  must win (cache-resident chunks + GIL-released numpy overlap);
* ``cbackend`` — the generated-C backend: fused, buffer-contracted
  native code (>= 5x over numpy on the chain) when a C compiler
  exists, otherwise the recorded fallback reason;
* ``arena`` — the statically planned ``compiled-arena`` backend: all
  intermediates live in one liveness-planned arena
  (:mod:`repro.tensorpipe.arena`), bitwise-identical to ``compiled``
  with the planned footprint and sharing ratio recorded.

Every backend must agree with the interpreter bit-for-bit on float64.
Results land in ``BENCH_affine_exec.json`` (run via ``make bench-exec``)
and the whole file must fit a wall-clock budget so executor
regressions fail loudly.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.hls import cross_check_executor, synthesize_kernel
from repro.ir import CanonicalizePass, FusionPass, verify
from repro.frontends.ekl import parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import AffineInterpreter
from repro.tensorpipe.arena import plan_arena
from repro.tensorpipe.codegen import compile_affine

RESULTS_PATH = Path(__file__).resolve().parent.parent \
    / "BENCH_affine_exec.json"

_INTERP_RUNS = 3
_COMPILED_RUNS = 20
_REQUIRED_SPEEDUP = 50.0
#: Whole-file wall-clock budget (seconds): generous on purpose — the
#: point is to catch order-of-magnitude executor regressions, not jitter.
_WALL_BUDGET_SECONDS = 120.0

_RESULTS = {}
_T0 = time.perf_counter()

# A long elementwise chain over a large array: the fusion and tiling
# showcases.  ~1.2M f64 elements keeps the benchmark fast while staying
# far above the tile threshold.
CHAIN = """
kernel chain {
  index i: 150000, j: 8
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  t3 = t2 * b + t1
  out = sum[j](t3 * t2)
}
"""


def _best_of(fn, runs):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(section: str, payload: dict) -> None:
    _RESULTS[section] = payload
    _RESULTS["wall_clock_seconds"] = round(time.perf_counter() - _T0, 3)
    _RESULTS["wall_clock_budget_seconds"] = _WALL_BUDGET_SECONDS
    RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True)
                            + "\n")


def _lower(source, *, fuse):
    kernel = parse_kernel(source)
    module = lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                             canonicalize=False),
            canonicalize=False,
        ),
        canonicalize=False,
    )
    CanonicalizePass().run(module)
    fused = 0
    if fuse:
        fusion = FusionPass()
        fusion.run(module)
        fused = fusion.fused
    verify(module)
    return kernel.name, module, fused


@pytest.fixture(scope="module")
def chain_case():
    name, unfused_module, _ = _lower(CHAIN, fuse=False)
    _, fused_module, fused = _lower(CHAIN, fuse=True)
    rng = np.random.default_rng(42)
    inputs = {"a": rng.normal(size=(150000, 8)),
              "b": rng.normal(size=(150000, 8))}
    return name, unfused_module, fused_module, fused, inputs


def test_compiled_executor_beats_interpreter_on_fig3(rrtmg_affine,
                                                     rrtmg_inputs):
    kernel, module = rrtmg_affine
    interpreter = AffineInterpreter(module, kernel.name)
    compiled = compile_affine(module, kernel.name)
    assert compiled.backend == "compiled"
    assert compiled.scalar_nests == 0

    expected = interpreter.run(rrtmg_inputs)
    got = compiled.run(rrtmg_inputs)
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name])

    interp_seconds = _best_of(lambda: interpreter.run(rrtmg_inputs),
                              _INTERP_RUNS)
    compiled_seconds = _best_of(lambda: compiled.run(rrtmg_inputs),
                                _COMPILED_RUNS)
    speedup = interp_seconds / compiled_seconds

    report = synthesize_kernel(module, kernel.name)
    check = cross_check_executor(report, module, kernel.name, rrtmg_inputs)
    assert check.flops_match

    _record("fig3", {
        "kernel": kernel.name,
        "vectorized_nests": compiled.vectorized_nests,
        "scalar_nests": compiled.scalar_nests,
        "flops_per_call": compiled.flops,
        "hls_flops_match": check.flops_match,
        "interpreter_seconds": round(interp_seconds, 6),
        "compiled_seconds": round(compiled_seconds, 6),
        "speedup": round(speedup, 1),
        "effective_gflops": round(check.effective_gflops, 3),
        "fpga_estimate_seconds": round(check.estimated_seconds, 6),
        "bitwise_identical": True,
        "required_speedup": _REQUIRED_SPEEDUP,
    })
    print(f"\n  fig3 executor: interpreter {interp_seconds * 1e3:.2f}ms, "
          f"compiled {compiled_seconds * 1e3:.3f}ms ({speedup:.0f}x), "
          f"{check.effective_gflops:.2f} GFLOP/s, "
          f"flops cross-check {'ok' if check.flops_match else 'MISMATCH'}")
    assert speedup >= _REQUIRED_SPEEDUP


def test_fused_beats_unfused_compiled(chain_case):
    name, unfused_module, fused_module, fused, inputs = chain_case
    assert fused >= 3, "the chain kernel must actually fuse"

    unfused = compile_affine(unfused_module, name)
    fused_kernel = compile_affine(fused_module, name)
    assert unfused.backend == fused_kernel.backend == "compiled"

    expected = unfused.run(inputs)
    got = fused_kernel.run(inputs)
    np.testing.assert_array_equal(got["out"], expected["out"])

    unfused_seconds = _best_of(lambda: unfused.run(inputs), 5)
    fused_seconds = _best_of(lambda: fused_kernel.run(inputs), 5)
    speedup = unfused_seconds / fused_seconds

    _record("fusion", {
        "kernel": name,
        "buffers_fused": fused,
        "unfused_seconds": round(unfused_seconds, 6),
        "fused_seconds": round(fused_seconds, 6),
        "speedup": round(speedup, 2),
        "bitwise_identical": True,
    })
    print(f"\n  fusion: unfused {unfused_seconds * 1e3:.2f}ms, fused "
          f"{fused_seconds * 1e3:.2f}ms ({speedup:.2f}x, {fused} buffers)")
    assert speedup > 1.0, \
        "fused compiled code must beat the unfused chain"


def test_tiled_parallel_beats_serial_compiled(chain_case):
    name, _, fused_module, _, inputs = chain_case
    serial = compile_affine(fused_module, name)
    tiled = compile_affine(fused_module, name, backend="compiled-parallel")
    assert tiled.backend == "compiled-parallel"
    assert tiled.tileable_nests > 0

    jobs = max(2, min(4, __import__("os").cpu_count() or 2))
    expected = serial.run(inputs)
    got = tiled.run(inputs, jobs=jobs)
    np.testing.assert_array_equal(got["out"], expected["out"])

    serial_seconds = _best_of(lambda: serial.run(inputs), 5)
    tiled_seconds = _best_of(lambda: tiled.run(inputs, jobs=jobs), 5)
    speedup = serial_seconds / tiled_seconds

    _record("parallel", {
        "kernel": name,
        "jobs": jobs,
        "tileable_nests": tiled.tileable_nests,
        "serial_seconds": round(serial_seconds, 6),
        "tiled_seconds": round(tiled_seconds, 6),
        "speedup": round(speedup, 2),
        "bitwise_identical": True,
    })
    print(f"\n  parallel: serial {serial_seconds * 1e3:.2f}ms, tiled "
          f"{tiled_seconds * 1e3:.2f}ms with {jobs} workers "
          f"({speedup:.2f}x)")
    assert speedup > 1.0, \
        "tiled execution must beat one full-array serial pass"


def test_cbackend_runs_or_records_fallback(chain_case):
    name, _, fused_module, _, inputs = chain_case
    serial = compile_affine(fused_module, name)
    native = compile_affine(fused_module, name, backend="cbackend")

    # serial `compiled` is differential-tested against the interpreter
    # (tier-1 + fig3 above); bitwise agreement with it extends the chain
    # to the C artifact without an op-at-a-time interpreter pass over
    # 1.2M elements.
    expected = serial.run(inputs)
    got = native.run(inputs)
    np.testing.assert_array_equal(got["out"], expected["out"])

    if native.backend != "cbackend":
        _record("cbackend", {
            "kernel": name,
            "ran": False,
            "fallback": native.fallback,
            "bitwise_identical": True,
        })
        print(f"\n  cbackend: fell back ({native.fallback})")
        return

    serial_seconds = _best_of(lambda: serial.run(inputs), 5)
    native_seconds = _best_of(lambda: native.run(inputs), 5)
    speedup = serial_seconds / native_seconds
    _record("cbackend", {
        "kernel": name,
        "ran": True,
        "fallback": "",
        "numpy_seconds": round(serial_seconds, 6),
        "c_seconds": round(native_seconds, 6),
        "speedup_vs_numpy": round(speedup, 2),
        "fused_groups": native.fused_groups,
        "contracted_buffers": native.contracted_buffers,
        "arena_bytes": native.arena_bytes,
        "bitwise_identical": True,
    })
    print(f"\n  cbackend: numpy {serial_seconds * 1e3:.2f}ms, C "
          f"{native_seconds * 1e3:.2f}ms ({speedup:.2f}x)")
    # Fused and contracted, the C no longer materialises the chain's
    # intermediates (ROADMAP item 2 target; 2.64x before the nest plan).
    assert speedup >= 5.0, \
        f"generated C must beat numpy by 5x on the chain ({speedup:.2f}x)"


def test_arena_backend_is_bitwise_with_planned_footprint(chain_case):
    name, _, fused_module, _, inputs = chain_case
    serial = compile_affine(fused_module, name)
    arena = compile_affine(fused_module, name, backend="compiled-arena")
    assert arena.backend == "compiled-arena"
    assert arena.arena_slots > 0

    expected = serial.run(inputs)
    got = arena.run(inputs)
    np.testing.assert_array_equal(got["out"], expected["out"])

    plan = plan_arena(fused_module.lookup(name))
    assert plan.total_bytes == arena.arena_bytes

    serial_seconds = _best_of(lambda: serial.run(inputs), 5)
    arena_seconds = _best_of(lambda: arena.run(inputs), 5)
    _record("arena", {
        "kernel": name,
        "arena_bytes": arena.arena_bytes,
        "arena_slots": arena.arena_slots,
        "unshared_bytes": plan.unshared_bytes,
        "sharing_saving": round(plan.saving, 3),
        "compiled_seconds": round(serial_seconds, 6),
        "arena_seconds": round(arena_seconds, 6),
        "relative": round(serial_seconds / arena_seconds, 2),
        "bitwise_identical": True,
    })
    print(f"\n  arena: {arena.arena_bytes} bytes in {arena.arena_slots} "
          f"slots ({plan.saving * 100:.0f}% shared vs per-buffer), "
          f"compiled {serial_seconds * 1e3:.2f}ms vs arena "
          f"{arena_seconds * 1e3:.2f}ms")


def test_wall_clock_budget():
    elapsed = time.perf_counter() - _T0
    assert elapsed < _WALL_BUDGET_SECONDS, \
        f"bench-exec took {elapsed:.1f}s (budget {_WALL_BUDGET_SECONDS}s)"
