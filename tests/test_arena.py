"""Static arena planner: liveness, placement, execution and HLS wiring.

Covers the contract chain end to end:

* :func:`repro.tensorpipe.arena.plan_arena` produces an overlap-free,
  aligned first-fit plan whose sharing follows buffer liveness;
* the ``compiled-arena`` backend executes every golden kernel
  bitwise-identically to the interpreter and the per-buffer ``compiled``
  backend (the ``memref.alloc`` zero-init contract survives slot reuse);
* ``KernelReport.planned_arena_bytes`` (HLS) equals both the planner's
  peak and the compiled executor's allocated arena;
* that peak is Olympus's PLM sharing: it sizes the generated scratch PLM.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)

from repro.frontends.cfdlang import (
    lower_cfdlang_to_teil,
    lower_program_to_cfdlang,
    parse_program,
)
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.hls import synthesize_kernel
from repro.ir import CanonicalizePass, FusionPass, verify_typed
from repro.ir.analysis import MEMREF_ALLOC_ZERO_INIT
from repro.olympus import OlympusGenerator
from repro.pipeline import PipelineSession
from repro.platforms import device_by_name
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import _dtype_for, run_affine
from repro.tensorpipe.arena import default_element_bytes, plan_arena
from repro.tensorpipe.codegen import compile_affine

CHAIN = """
kernel arena_chain {
  index i: 40, j: 6
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  out = sum[j](t2 * t1)
}
"""

CFD_MATVEC = """
var input A : [3 4]
var input x : [4]
var output y : [3]
y = (A # x) . [[2 3]]
"""


def _lower_ekl(source, *, fuse=False):
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
    if fuse:
        FusionPass().run(module)
    return module, kernel.name


def _lower_cfd(source):
    module = lower_teil_to_affine(
        lower_cfdlang_to_teil(
            lower_program_to_cfdlang(parse_program(source))),
        canonicalize=True,
    )
    names = [op.attr("sym_name") for op in module.body
             if op.name == "func.func"
             and op.attr("kernel_lang") == "affine"]
    assert len(names) == 1
    return module, names[0]


def _sample_inputs(module, func_name, seed=7):
    func = module.lookup(func_name)
    entry = func.regions[0].entry
    arg_names = func.attr("arg_names")
    num_outputs = func.attr("num_outputs")
    rng = np.random.default_rng(seed)
    inputs = {}
    for i, arg in enumerate(entry.args[:len(entry.args) - num_outputs]):
        dtype = _dtype_for(arg.type.element)
        data = rng.normal(size=tuple(arg.type.shape))
        inputs[arg_names[i]] = np.asarray(data, dtype=dtype)
    return inputs


def _golden_cases():
    module, name = _lower_ekl(CHAIN)
    yield "chain", module, name
    module, name = _lower_ekl(CHAIN, fuse=True)
    yield "chain-fused", module, name
    module, name = _lower_ekl(FIG3_MAJOR_ABSORBER)
    yield "fig3", module, name
    module, name = _lower_cfd(CFD_MATVEC)
    yield "cfd-matvec", module, name


GOLDEN = list(_golden_cases())


# -- planner invariants ------------------------------------------------------


@pytest.mark.parametrize("label,module,name",
                         GOLDEN, ids=[c[0] for c in GOLDEN])
def test_plan_is_aligned_and_overlap_free(label, module, name):
    plan = plan_arena(module.lookup(name))
    assert plan.slots, f"{label}: expected local buffers to plan"
    for slot in plan.slots:
        assert slot.offset % slot.align == 0
        assert slot.start <= slot.end
        assert slot.offset + slot.size <= plan.total_bytes
    # Slots with intersecting live ranges must occupy disjoint bytes.
    for i, a in enumerate(plan.slots):
        for b in plan.slots[i + 1:]:
            if a.overlaps_lifetime(b.start, b.end):
                assert (a.offset + a.size <= b.offset
                        or b.offset + b.size <= a.offset), \
                    f"{label}: {a} and {b} overlap in time and space"
    assert plan.total_bytes <= plan.unshared_bytes
    assert 0.0 <= plan.saving < 1.0


def test_plan_is_sound_and_bounded_on_fig3_and_200_fuzz_kernels():
    """On the compile path's own modules: the arena is at least the bytes
    live at the busiest statement and at most every buffer at its own
    aligned offset, and no two buffers live at one statement share a
    byte.  (Seed 117 pads an i1 before an f64 buffer, so the unshared
    layout has to count the same padding as the arena.)"""
    from irfuzz import generate_ekl_case

    session = PipelineSession()
    sources = [("fig3", FIG3_MAJOR_ABSORBER)] + [
        (f"seed{seed}", generate_ekl_case(seed)[0]) for seed in range(200)]
    for label, source in sources:
        lowered = session.lower(source)
        plan = plan_arena(lowered.module.lookup(lowered.kernel.name))
        slots = plan.slots
        last = max((slot.end for slot in slots), default=-1)
        peak_live = max((sum(slot.size for slot in slots
                             if slot.start <= step <= slot.end)
                         for step in range(last + 1)), default=0)
        dedicated = 0
        for slot in slots:
            dedicated = -(-dedicated // slot.align) * slot.align + slot.size
        assert plan.unshared_bytes == dedicated, label
        assert peak_live <= plan.total_bytes <= plan.unshared_bytes, label
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                if a.start <= b.end and b.start <= a.end:
                    assert (a.offset + a.size <= b.offset
                            or b.offset + b.size <= a.offset), (label, a, b)


def test_liveness_sharing_actually_shares():
    module, name = _lower_ekl(CHAIN)
    plan = plan_arena(module.lookup(name))
    assert plan.total_bytes < plan.unshared_bytes, \
        "the chain kernel has dead intermediates; the plan must reuse them"
    offsets = {slot.offset for slot in plan.slots}
    assert len(offsets) < len(plan.slots)


# -- execution ---------------------------------------------------------------


@pytest.mark.parametrize("label,module,name",
                         GOLDEN, ids=[c[0] for c in GOLDEN])
def test_arena_backend_bitwise_identical(label, module, name):
    inputs = _sample_inputs(module, name)
    expected = run_affine(module, name, inputs)
    compiled = compile_affine(module, name)
    arena = compile_affine(module, name, backend="compiled-arena")
    assert arena.backend == "compiled-arena"
    assert arena.arena_slots == len(plan_arena(module.lookup(name)).slots)
    got_compiled = compiled.run(inputs)
    got_arena = arena.run(inputs)
    for out in expected:
        np.testing.assert_array_equal(got_arena[out], expected[out])
        np.testing.assert_array_equal(got_arena[out], got_compiled[out])
        assert got_arena[out].dtype == expected[out].dtype


def test_arena_run_is_repeatable_despite_slot_reuse():
    # The zero-init contract: a reused slot must not leak the previous
    # buffer's (or the previous *run's*) bytes into a fresh alloc.
    module, name = _lower_ekl(CHAIN)
    arena = compile_affine(module, name, backend="compiled-arena")
    assert ".fill(0)" in arena.source
    inputs = _sample_inputs(module, name)
    first = arena.run(inputs)
    second = arena.run(inputs)
    for out in first:
        np.testing.assert_array_equal(first[out], second[out])


def test_fuzz_exec_200_seeds_through_arena_backend():
    """200 random kernels, arena backend vs. interpreter, bit-for-bit
    raw and optimized (the differential acceptance bar)."""
    from irfuzz import check_executor

    for seed in range(200):
        check_executor(seed, backend="compiled-arena")


def test_analysis_records_zero_init_contract():
    module, name = _lower_ekl(CHAIN)
    analysis = verify_typed(module)
    allocs = [op for op in module.lookup(name).regions[0].entry.operations
              if op.name == "memref.alloc"]
    assert allocs
    for op in allocs:
        assert analysis.of(op.results[0]).const == MEMREF_ALLOC_ZERO_INIT


# -- HLS + Olympus wiring ----------------------------------------------------


@pytest.mark.parametrize("label,module,name",
                         GOLDEN, ids=[c[0] for c in GOLDEN])
def test_hls_report_matches_planner_and_executor(label, module, name):
    report = synthesize_kernel(module, name)
    plan = plan_arena(module.lookup(name))
    arena = compile_affine(module, name, backend="compiled-arena")
    assert report.planned_arena_bytes == plan.total_bytes
    assert report.planned_arena_bytes == arena.arena_bytes
    assert report.planned_arena_slots == len(plan.slots)
    assert f"scratch-arena={plan.total_bytes}B" in report.summary()


def test_custom_format_rescales_planned_arena():
    from repro.numerics import make_format

    module, name = _lower_ekl(CHAIN)
    f64_report = synthesize_kernel(module, name)
    f32_report = synthesize_kernel(module, name,
                                   number_format=make_format("f32"))
    assert 0 < f32_report.planned_arena_bytes < f64_report.planned_arena_bytes


def test_olympus_instance_gets_scratch_plm():
    module, name = _lower_ekl(CHAIN)
    report = synthesize_kernel(module, name)
    generator = OlympusGenerator(device_by_name("alveo-u55c"))
    _, instance = generator.estimate(
        report, generator.candidate_configs()[0])
    scratch = [p for p in instance.plms if p.name == "scratch"]
    assert len(scratch) == 1
    assert scratch[0].bytes == report.planned_arena_bytes
    assert not scratch[0].double_buffered


def test_default_element_bytes_match_numpy():
    from repro.ir import types as T

    for ty, expected in [(T.f64, 8), (T.f32, 4), (T.i64, 8), (T.i32, 4),
                         (T.i1, 1), (T.index, 8)]:
        assert default_element_bytes(ty) == expected
