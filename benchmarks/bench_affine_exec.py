"""BENCH-AFFINE-EXEC: compiled beats interpreted, fused beats unfused.

The paper's premise (§V) is that kernels are *compiled* to fast
backends rather than interpreted.  Two checks regenerate it on the CPU:

* ``fig3`` — the Fig. 3 major-absorber kernel through the reference
  :class:`~repro.tensorpipe.affine_interp.AffineInterpreter` vs. the
  ``compiled`` vectorized-numpy backend (>= 50x, bit-identical, HLS
  FLOP cross-check);
* ``fusion`` — an elementwise-chain kernel compiled with and without
  the :class:`~repro.ir.fusion.FusionPass`: the fused module must beat
  the unfused one (fewer intermediate buffers, fewer memory passes).
  This 1.2-1.3x is the number ROADMAP's "One nest plan, three
  consumers" decides the pass on, and it sits near the host's noise,
  so the gate compares medians against the measured interquartile
  ranges rather than one sample against 1.0.

Per-backend execution times on the same chain (``cbackend``,
``compiled-parallel``, ``compiled-arena``) come from ``python3 -m bench
--workload exec_stream --trace 1`` (``tensorpipe.exec_ms.*``,
``tensorpipe.arena_bytes``, ``tensorpipe.gflops.cbackend``); their
bitwise and footprint contracts are ``tests/test_backends.py`` and
``tests/test_arena.py``.  Results land in
``benchmarks/out/affine_exec.json`` (run via ``make bench-exec``).
"""

import numpy as np
from conftest import measure, record

from repro.hls import synthesize_kernel
from repro.ir import CanonicalizePass, FusionPass, verify
from repro.frontends.ekl import parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import AffineInterpreter
from repro.tensorpipe.codegen import compile_affine

_REQUIRED_SPEEDUP = 50.0

# A long elementwise chain over a large array: the fusion showcase.
# ~1.2M f64 elements keeps the benchmark fast while every intermediate
# is far larger than the caches.
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


def test_compiled_executor_beats_interpreter_on_fig3(rrtmg_affine,
                                                     rrtmg_inputs):
    kernel, module = rrtmg_affine
    interpreter = AffineInterpreter(module, kernel.name)
    compiled = compile_affine(module, kernel.name)
    assert compiled.backend == "compiled"
    assert compiled.scalar_nests == 0

    # Back-to-back calls time the steady state: a single compiled call
    # right after the interpreter's 80 ms of Python runs cache-cold
    # (0.4 ms where the warm call takes 0.14).
    (interp, expected), (fast, got) = measure(
        lambda: interpreter.run(rrtmg_inputs),
        lambda: compiled.run(rrtmg_inputs), best_of=3)
    for name in expected:
        np.testing.assert_array_equal(got[name], expected[name])
    speedup = interp["median_s"] / fast["median_s"]

    # The HLS model and the executor count FLOPs independently.
    report = synthesize_kernel(module, kernel.name)
    assert report.flops == compiled.flops
    gflops = compiled.flops / fast["median_s"] / 1e9

    record("affine_exec", "fig3", {
        "kernel": kernel.name,
        "vectorized_nests": compiled.vectorized_nests,
        "scalar_nests": compiled.scalar_nests,
        "flops_per_call": compiled.flops,
        "hls_flops_match": True,
        "interpreter": interp,
        "compiled": fast,
        "speedup": round(speedup, 1),
        "effective_gflops": round(gflops, 3),
        "fpga_estimate_seconds": round(report.latency_seconds, 6),
        "bitwise_identical": True,
        "required_speedup": _REQUIRED_SPEEDUP,
    })
    print(f"\n  fig3 executor: interpreter {interp['median_s'] * 1e3:.2f}ms,"
          f" compiled {fast['median_s'] * 1e3:.3f}ms ({speedup:.0f}x), "
          f"{gflops:.2f} GFLOP/s, flops cross-check ok")
    assert speedup >= _REQUIRED_SPEEDUP


def test_fused_beats_unfused_compiled():
    name, unfused_module, _ = _lower(CHAIN, fuse=False)
    _, fused_module, buffers = _lower(CHAIN, fuse=True)
    assert buffers >= 3, "the chain kernel must actually fuse"
    rng = np.random.default_rng(42)
    inputs = {"a": rng.normal(size=(150000, 8)),
              "b": rng.normal(size=(150000, 8))}

    unfused_kernel = compile_affine(unfused_module, name)
    fused_kernel = compile_affine(fused_module, name)
    assert unfused_kernel.backend == fused_kernel.backend == "compiled"

    # The warm-up round is three calls a side: glibc raises its mmap
    # threshold only after the first few 9.6 MB intermediates are freed,
    # and until then every buffer is mapped and page-faulted anew (1.5x
    # the steady time).
    (unfused, expected), (fused, got) = measure(
        lambda: unfused_kernel.run(inputs),
        lambda: fused_kernel.run(inputs), repeats=9, best_of=3)
    np.testing.assert_array_equal(got["out"], expected["out"])
    gain = unfused["median_s"] - fused["median_s"]
    noise = max(unfused["q3_s"] - unfused["q1_s"],
                fused["q3_s"] - fused["q1_s"])

    record("affine_exec", "fusion", {
        "kernel": name,
        "buffers_fused": buffers,
        "unfused": unfused,
        "fused": fused,
        "speedup": round(unfused["median_s"] / fused["median_s"], 2),
        "median_gain_s": gain,
        "larger_iqr_s": noise,
        "bitwise_identical": True,
    })
    print(f"\n  fusion: unfused {unfused['median_s'] * 1e3:.2f}ms, fused "
          f"{fused['median_s'] * 1e3:.2f}ms (gain {gain * 1e3:.2f}ms vs "
          f"IQR {noise * 1e3:.2f}ms, {buffers} buffers)")
    assert gain > noise, \
        "fused compiled code must beat the unfused chain beyond the noise"
