"""Tests for the executor-backend registry, the tiled parallel runner
and the generated-C backend.

The registry contract: ``interpreter``, ``compiled``,
``compiled-parallel`` and ``cbackend`` produce bit-for-bit identical
float64 results on the golden kernels; an unknown name raises listing
the registered ones; the C backend either runs native code or falls
back to ``compiled`` with the reason recorded — and a compiler crash
mid-build can never poison the on-disk artifact cache.  Every backend
borrows its inputs read-only: none writes them, and a kernel that would
is refused.
"""

import os
import stat
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import EverestError
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, parse_kernel
from repro.frontends.ekl.lower import lower_ekl_to_esn, lower_kernel_to_ekl
from repro.ir import Builder, CanonicalizePass, FusionPass, verify
from repro.ir import types as T
from repro.ir.core import Block, Module, Operation, Region
from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine
from repro.tensorpipe.affine_interp import run_affine
from repro.tensorpipe.backends import (
    BACKENDS,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.pipeline import PipelineSession
from repro.telemetry.metrics import get_registry
from repro.telemetry.trace import disable, enable
from repro.tensorpipe.cbackend import (
    CBackend,
    CEmitter,
    find_cc,
    probe_supported,
    reset_probe_cache,
)
from repro.tensorpipe import parallel
from repro.tensorpipe.codegen import compile_affine
from repro.tensorpipe.parallel import make_tile, split_ranges

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

ALL_BACKENDS = ["interpreter", "compiled", "compiled-parallel", "cbackend"]

GOLDEN = {
    "elementwise": """
kernel k {
  index i: 5
  input a[i]: f64
  input b[i]: f64
  output c
  c = a * b + 2.0
}
""",
    "contraction": """
kernel k {
  index i: 4, j: 5
  input A[i, j]: f64
  input x[j]: f64
  output y
  y = sum[j](A * x)
}
""",
    "gather": """
kernel k {
  index i: 4
  input idx[i]: i64
  input table[9]: f64
  output c
  c = table[idx]
}
""",
    "chain": """
kernel k {
  index i: 23, j: 3
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = sin(t0) - b
  out = sum[j](t1 * t1 + t0)
}
""",
}


def golden_inputs(name):
    rng = np.random.default_rng(hash(name) % (2 ** 31))
    if name == "elementwise":
        return {"a": rng.normal(size=5), "b": rng.normal(size=5)}
    if name == "contraction":
        return {"A": rng.normal(size=(4, 5)), "x": rng.normal(size=5)}
    if name == "gather":
        return {"idx": np.array([0, 8, 3, 3]), "table": np.arange(9.0)}
    return {"a": rng.normal(size=(23, 3)), "b": rng.normal(size=(23, 3))}


def lower_optimized(source):
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
    FusionPass().run(module)
    verify(module)
    return kernel.name, module


class TestRegistry:
    def test_stock_backends_registered(self):
        assert set(ALL_BACKENDS) <= set(registered_backends())

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_resolve_by_name(self, name):
        assert resolve_backend(name).name == name

    def test_unknown_name_lists_registered(self):
        with pytest.raises(EverestError) as err:
            resolve_backend("copmiled")
        message = str(err.value)
        assert "copmiled" in message
        for name in ALL_BACKENDS:
            assert name in message

    def test_instance_passthrough(self):
        backend = resolve_backend("compiled")
        assert resolve_backend(backend) is backend

    def test_non_conforming_object_rejected(self):
        with pytest.raises(EverestError):
            resolve_backend(object())

    def test_register_custom_and_duplicate(self):
        class Custom:
            name = "custom-test"

            def compile(self, module, func_name):
                return compile_affine(module, func_name, backend="compiled")

        try:
            register_backend(Custom())
            assert resolve_backend("custom-test").name == "custom-test"
            with pytest.raises(EverestError):
                register_backend(Custom())
            register_backend(Custom(), replace=True)
        finally:
            BACKENDS.pop("custom-test", None)

    @pytest.mark.parametrize("old_protocol", [False, True])
    def test_custom_backend_runs_through_the_session(self, old_protocol):
        """A backend is called as ``compile(module, func_name)``; one
        that still declares the retired ``cache`` keyword keeps working
        because nothing passes it."""
        class Plain:
            name = "custom-session-test"

            def compile(self, module, func_name):
                return compile_affine(module, func_name, backend="compiled")

        class Legacy(Plain):
            def compile(self, module, func_name, *, cache=True):
                return Plain.compile(self, module, func_name)

        try:
            register_backend(Legacy() if old_protocol else Plain())
            inputs = golden_inputs("elementwise")
            result = PipelineSession().execute(
                GOLDEN["elementwise"], inputs, backend="custom-session-test")
            np.testing.assert_array_equal(
                result.outputs["c"], inputs["a"] * inputs["b"] + 2.0)
        finally:
            BACKENDS.pop("custom-session-test", None)

    def test_register_validates_interface(self):
        class NoCompile:
            name = "broken"

        with pytest.raises(EverestError):
            register_backend(NoCompile())
        with pytest.raises(EverestError):
            register_backend(type("Anon", (), {"name": "",
                                               "compile": lambda s: 0})())


class TestDifferential:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_golden_bitwise(self, name, backend):
        func_name, module = lower_optimized(GOLDEN[name])
        inputs = golden_inputs(name)
        expected = run_affine(module, func_name, inputs)
        kernel = compile_affine(module, func_name, backend=backend)
        got = kernel.run(inputs)
        assert set(got) == set(expected)
        for key in expected:
            np.testing.assert_array_equal(
                got[key], expected[key],
                err_msg=f"{backend} diverges on {name}:{key}")

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_fig3_bitwise(self, backend, rrtmg_inputs):
        func_name, module = lower_optimized(FIG3_MAJOR_ABSORBER)
        expected = run_affine(module, func_name, rrtmg_inputs)
        kernel = compile_affine(module, func_name, backend=backend)
        got = kernel.run(rrtmg_inputs)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_repeated_output_name(self, backend):
        """``output out, out`` lowers to two output arguments of one
        name: each gets its own buffer, and the name maps to the last."""
        func_name, module = lower_optimized(REPEATED_OUTPUT)
        inputs = {"a": np.arange(5.0)}
        kernel = compile_affine(module, func_name, backend=backend)
        assert not kernel.fallback or backend == "cbackend"
        for got in (kernel.run(inputs), run_affine(module, func_name, inputs)):
            assert list(got) == ["out"]
            np.testing.assert_array_equal(got["out"], np.arange(5.0) * 2.0)

    def test_arg_names_must_match_the_arguments(self):
        func_name, module = lower_optimized(REPEATED_OUTPUT)
        func = module.lookup(func_name)
        func.set_attr("arg_names", ["a", "out"])
        with pytest.raises(ValueError):
            compile_affine(module, func_name, backend="compiled")

    @pytest.mark.parametrize("body, constants", [
        ("a * max(1.5, 2.5) + min(0.25, 4.0) - pow(2.0, 3.0)",
         [2.5, 0.25, 8.0]),
        # A non-finite result from finite operands: the fold declines.
        ("a + pow(-2.0, 0.5)", [-2.0, 0.5]),
    ])
    def test_scalar_folds_match_the_reference(self, body, constants):
        """``maximumf``/``minimumf``/``powf`` of constants fold at compile
        time to what every backend and the EKL interpreter compute."""
        from repro.frontends.ekl import Interpreter

        source = (f"kernel k {{\n  index i: 5\n  input a[i]: f64\n"
                  f"  output c\n  c = {body}\n}}")
        session = PipelineSession()
        module = session.lower(source).module
        assert [op.attr("value") for op in module.walk()
                if op.name == "arith.constant"] == constants
        inputs = {"a": np.linspace(-2.0, 2.0, 5)}
        with np.errstate(invalid="ignore"):
            expected = Interpreter(parse_kernel(source)).run(inputs)["c"]
            for backend in registered_backends():
                got = session.execute(source, inputs,
                                      backend=backend).outputs["c"]
                np.testing.assert_array_equal(got, expected,
                                              err_msg=backend)


REPEATED_OUTPUT = """
kernel k {
  index i: 5
  input a[i]: f64
  output out, out
  out = a * 2.0
}
"""


@pytest.fixture
def tile_every_nest(monkeypatch):
    """``force(chunks)``: every tiled nest of a later ``kernel.run``
    fans out into ``chunks`` row ranges, however small it is."""
    def force(chunks):
        # Create the shared pool first, so it keeps the host's size.
        parallel._pool()
        monkeypatch.setattr(parallel, "TILE_THRESHOLD", 1)
        monkeypatch.setattr(parallel, "WORKERS", chunks)
    return force


class TestParallel:
    def test_split_ranges_cover_and_balance(self):
        for extent in (1, 2, 7, 64, 97):
            for parts in (1, 2, 3, 8, 200):
                ranges = split_ranges(extent, parts)
                assert ranges[0][0] == 0 and ranges[-1][1] == extent
                sizes = [t1 - t0 for t0, t1 in ranges]
                assert sum(sizes) == extent
                assert max(sizes) - min(sizes) <= 1
                for (_, a), (b, _) in zip(ranges, ranges[1:]):
                    assert a == b

    def test_tile_runner_serial_below_threshold(self):
        calls = []
        tile = make_tile(chunks=4, threshold=1000)
        tile(lambda t0, t1: calls.append((t0, t1)), 8, work=10)
        assert calls == [(0, 8)]

    def test_tile_runner_splits_above_threshold(self):
        calls = []
        tile = make_tile(chunks=4, threshold=1)
        tile(lambda t0, t1: calls.append((t0, t1)), 8, work=10)
        assert sorted(calls) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_tile_runner_propagates_worker_exceptions(self):
        tile = make_tile(chunks=2, threshold=1)

        def boom(t0, t1):
            raise ValueError("worker failed")

        with pytest.raises(ValueError):
            tile(boom, 8, work=10)

    def test_fan_outs_reuse_one_pool_of_workers_threads(self):
        """However many chunks a nest is split into, they run on the
        same ``WORKERS`` threads."""
        barrier = threading.Barrier(parallel.WORKERS, timeout=10)
        names = set()

        def chunk(t0, t1):
            barrier.wait()  # every worker busy at once: the pool is full
            names.add(threading.current_thread().name)

        make_tile(chunks=parallel.WORKERS, threshold=1)(chunk, 64, work=10)
        before = threading.active_count()
        make_tile(chunks=4 * parallel.WORKERS, threshold=1)(chunk, 64,
                                                            work=10)
        assert threading.active_count() == before
        assert len(names) == parallel.WORKERS

    def test_traced_tiles_are_spans_under_the_caller(self):
        """With tracing on, each row range is a ``tile`` span parented
        under the span that fanned out, though it runs on a worker."""
        tracer = enable()
        try:
            with tracer.span("run") as run:
                make_tile(chunks=2, threshold=1)(lambda t0, t1: None, 64,
                                                 work=10)
        finally:
            disable()
        tiles = [s for s in tracer.spans() if s.name == "tile"]
        assert sorted(s.attrs["t0"] for s in tiles) == [0, 32]
        assert all(s.parent_id == run.span_id for s in tiles)

    @pytest.mark.parametrize("chunks", [1, 2, 3, 5])
    def test_forced_tiling_is_bitwise(self, tile_every_nest, chunks):
        func_name, module = lower_optimized(GOLDEN["chain"])
        inputs = golden_inputs("chain")
        expected = compile_affine(module, func_name,
                                  backend="compiled").run(inputs)
        kernel = compile_affine(module, func_name,
                                backend="compiled-parallel")
        assert kernel.tileable_nests > 0
        tile_every_nest(chunks)
        got = kernel.run(inputs)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])

    @pytest.mark.parametrize("chunks", [1, 2, 3, 5])
    def test_forced_tiling_is_bitwise_on_fuzz_kernels(self, tile_every_nest,
                                                      chunks):
        """20 ``tools/irfuzz.py`` exec kernels, every nest split into
        ``chunks`` row ranges, equal to ``compiled`` bit for bit."""
        from irfuzz import generate_ekl_case

        tile_every_nest(chunks)
        for seed in range(20):
            source, inputs = generate_ekl_case(seed)
            func_name, module = lower_optimized(source)
            expected = compile_affine(module, func_name,
                                      backend="compiled").run(inputs)
            got = compile_affine(module, func_name,
                                 backend="compiled-parallel").run(inputs)
            for key in expected:
                np.testing.assert_array_equal(
                    got[key], expected[key], err_msg=f"seed {seed}: {key}")

    def test_session_execute_runs_compiled_parallel(self):
        session = PipelineSession()
        rng = np.random.default_rng(9)
        inputs = {"a": rng.normal(size=(23, 3)),
                  "b": rng.normal(size=(23, 3))}
        got = session.execute(GOLDEN["chain"], inputs,
                              backend="compiled-parallel")
        ref = session.execute(GOLDEN["chain"], inputs,
                              backend="interpreter")
        np.testing.assert_array_equal(got.outputs["out"],
                                      ref.outputs["out"])


# Small inputs and output, one absurdly large intermediate: rows of t
# are gathered from, so t stays in the arena (2**50 bytes, more than
# the address space) and malloc must fail.
ARENA_HOG = """
kernel hog {
  index i: 4, h: 35184372088832
  input a[i]: i64
  input idx[i]: i64
  output out
  t = a + h
  out = t[i, idx]
}
"""
ARENA_HOG_INPUTS = {"a": np.arange(4), "idx": np.array([3, 0, 2, 1])}


def needs_working_cc():
    if find_cc() is None or probe_supported(find_cc()) is None:
        pytest.skip("no working C compiler on this host")


def _running(pid):
    """Whether ``pid`` is a live process (a zombie has finished)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.fixture
def isolated_cbackend(monkeypatch, tmp_path):
    """Redirect the cbackend's disk cache and forget probe results so
    REPRO_CC / cache assertions see a fresh world."""
    monkeypatch.setenv("REPRO_CBACKEND_CACHE", str(tmp_path))
    reset_probe_cache()
    yield tmp_path
    reset_probe_cache()


class TestCBackend:
    def test_runs_native_or_records_fallback(self):
        func_name, module = lower_optimized(GOLDEN["elementwise"])
        kernel = compile_affine(module, func_name, backend="cbackend")
        if kernel.backend == "cbackend":
            assert not kernel.fallback
            assert "repro_kernel" in kernel.source
        else:
            assert kernel.backend == "compiled"
            assert kernel.fallback.startswith("cbackend:")

    def test_probe_rejected_op_falls_back_bitwise(self, isolated_cbackend):
        source = """
kernel k {
  index i: 12
  input a[i]: f64
  output out
  out = exp(a) + tanh(a)
}
"""
        func_name, module = lower_optimized(source)
        inputs = {"a": np.random.default_rng(11).normal(size=12)}
        expected = run_affine(module, func_name, inputs)
        kernel = compile_affine(module, func_name, backend="cbackend")
        cc = find_cc()
        supported = probe_supported(cc) if cc else None
        if supported is not None and {"math.exp", "math.tanh"} <= supported:
            assert kernel.backend == "cbackend"  # libm matches here
        else:
            assert kernel.backend == "compiled"
            assert "cbackend:" in kernel.fallback
        got = kernel.run(inputs)
        for key in expected:
            np.testing.assert_array_equal(got[key], expected[key])

    def test_no_compiler_falls_back_cleanly(self, isolated_cbackend,
                                            monkeypatch):
        monkeypatch.setattr("repro.tensorpipe.cbackend.find_cc",
                            lambda: None)
        func_name, module = lower_optimized(GOLDEN["elementwise"])
        kernel = CBackend().compile(module, func_name)
        assert kernel.backend == "compiled"
        assert "no C compiler" in kernel.fallback
        inputs = golden_inputs("elementwise")
        expected = run_affine(module, func_name, inputs)
        got = kernel.run(inputs)
        np.testing.assert_array_equal(got["c"], expected["c"])

    def test_failing_cc_leaves_no_partial_artifact(self, isolated_cbackend,
                                                   monkeypatch, tmp_path):
        # A compiler that writes garbage to its -o target and then dies:
        # the atomic-rename install must keep the poison out of the
        # cache, and compilation must degrade to the numpy backend.
        poison_cc = tmp_path / "poison-cc.sh"
        poison_cc.write_text(
            "#!/bin/sh\n"
            "out=\"\"\n"
            "prev=\"\"\n"
            "for arg in \"$@\"; do\n"
            "  if [ \"$prev\" = \"-o\" ]; then out=\"$arg\"; fi\n"
            "  prev=\"$arg\"\n"
            "done\n"
            "if [ -n \"$out\" ]; then echo POISON > \"$out\"; fi\n"
            "exit 1\n")
        poison_cc.chmod(poison_cc.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("REPRO_CC", str(poison_cc))
        reset_probe_cache()
        func_name, module = lower_optimized(GOLDEN["elementwise"])
        kernel = CBackend().compile(module, func_name)
        assert kernel.backend == "compiled"
        assert "cbackend:" in kernel.fallback
        leftovers = [name for name in os.listdir(isolated_cbackend)
                     if name.endswith(".so") or name.startswith(".")]
        assert leftovers == [], \
            f"poisoned/partial artifacts left behind: {leftovers}"
        inputs = golden_inputs("elementwise")
        expected = run_affine(module, func_name, inputs)
        np.testing.assert_array_equal(kernel.run(inputs)["c"],
                                      expected["c"])

    def test_hung_cc_is_killed_and_falls_back(self, isolated_cbackend,
                                              monkeypatch, tmp_path):
        # A compiler that never finishes, through a child of its own (as
        # cc runs cc1/as/ld): the build is killed at the timeout with its
        # whole process group, and the kernel falls back naming why.
        child_pid = tmp_path / "child.pid"
        hung_cc = tmp_path / "hung-cc.sh"
        hung_cc.write_text(
            "#!/bin/sh\n"
            "out=\"\"\n"
            "prev=\"\"\n"
            "for arg in \"$@\"; do\n"
            "  if [ \"$prev\" = \"-o\" ]; then out=\"$arg\"; fi\n"
            "  prev=\"$arg\"\n"
            "done\n"
            "echo PARTIAL > \"$out\"\n"
            "sleep 60 &\n"
            f"echo $! > {child_pid}\n"
            "wait\n")
        hung_cc.chmod(hung_cc.stat().st_mode | stat.S_IEXEC)
        monkeypatch.setenv("REPRO_CC", str(hung_cc))
        monkeypatch.setattr("repro.tensorpipe.cbackend.CC_TIMEOUT_S", 0.5)
        # No probe build: the kernel's own build is the one that hangs.
        monkeypatch.setattr("repro.tensorpipe.cbackend.probe_supported",
                            lambda cc: frozenset())
        func_name, module = lower_optimized(GOLDEN["elementwise"])
        start = time.perf_counter()
        kernel = CBackend().compile(module, func_name)
        assert time.perf_counter() - start < 5.0
        assert kernel.backend == "compiled"
        assert kernel.fallback == (f"cbackend: {hung_cc} timed out "
                                   "after 0.5 s")
        leftovers = [name for name in os.listdir(isolated_cbackend)
                     if name.endswith(".so") or name.startswith(".")]
        assert leftovers == [], f"partial artifacts left: {leftovers}"
        pid = int(child_pid.read_text())
        deadline = time.monotonic() + 5.0
        while _running(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _running(pid), f"cc's child {pid} outlived the build"

    def test_disk_cache_reused_across_instances(self, isolated_cbackend):
        needs_working_cc()
        func_name, module = lower_optimized(GOLDEN["elementwise"])
        first = CBackend().compile(module, func_name)
        assert first.backend == "cbackend"
        artifacts = [name for name in os.listdir(isolated_cbackend)
                     if name.endswith(".so")]
        assert artifacts  # probe + kernel objects installed atomically
        # A repeat emits again but finds the object: no second cc run.
        cc_runs = get_registry().get("repro_cbackend_cc_total")
        built, found = cc_runs.value(result="ok"), \
            cc_runs.value(result="cached")
        second = CBackend().compile(module.clone(), func_name)
        assert second.backend == "cbackend" and second is not first
        assert second.source == first.source
        assert cc_runs.value(result="ok") == built
        assert cc_runs.value(result="cached") == found + 1
        inputs = golden_inputs("elementwise")
        np.testing.assert_array_equal(second.run(inputs)["c"],
                                      first.run(inputs)["c"])

    def test_artifact_is_keyed_by_source_not_by_module(
            self, isolated_cbackend, monkeypatch):
        """Regression: ``<key>.so`` was keyed by the input module, so a
        changed emitter kept loading what the old one had built."""
        needs_working_cc()
        func_name, module = lower_optimized(GOLDEN["elementwise"])
        inputs = golden_inputs("elementwise")
        first = CBackend().compile(module, func_name)
        np.testing.assert_array_equal(
            first.run(inputs)["c"], inputs["a"] * inputs["b"] + 2.0)
        generate = CEmitter.generate
        monkeypatch.setattr(
            CEmitter, "generate",
            lambda self: generate(self).replace("(2.0)", "(3.0)"))
        second = CBackend().compile(module, func_name)
        assert second.source != first.source
        np.testing.assert_array_equal(
            second.run(inputs)["c"], inputs["a"] * inputs["b"] + 3.0)
        objects = [name for name in os.listdir(isolated_cbackend)
                   if name.endswith(".so")]
        assert len(objects) == 3    # the probe and one per source

    def test_arena_allocation_failure_raises(self, isolated_cbackend):
        needs_working_cc()
        session = PipelineSession()
        with pytest.raises(EverestError, match="could not allocate"):
            session.execute(ARENA_HOG, ARENA_HOG_INPUTS, backend="cbackend")
        # ... and the process is alive to run the next kernel.
        inputs = golden_inputs("elementwise")
        result = session.execute(GOLDEN["elementwise"], inputs,
                                 backend="cbackend")
        np.testing.assert_array_equal(
            result.outputs["c"], inputs["a"] * inputs["b"] + 2.0)

    def test_concurrent_runs_of_one_kernel_are_bitwise(self):
        """The arena is per call: threads sharing one cached kernel (the
        daemon) must not share scratch memory."""
        needs_working_cc()
        source = """
kernel k {
  index i: 20000, j: 8
  input a[i, j]: f64
  input b[i, j]: f64
  output t
  output out
  t = a * b + a
  out = sum[j](t * b - a)
}
"""
        func_name, module = lower_optimized(source)
        kernel = compile_affine(module, func_name, backend="cbackend")
        assert kernel.backend == "cbackend" and kernel.arena_bytes > 0
        rng = np.random.default_rng(5)
        cases = [{"a": rng.normal(size=(20000, 8)),
                  "b": rng.normal(size=(20000, 8))} for _ in range(4)]
        reference = compile_affine(module, func_name, backend="compiled")
        expected = [reference.run(case) for case in cases]
        failures = []

        def worker(index):
            for _ in range(6):
                got = kernel.run(cases[index % 4])
                want = expected[index % 4]
                if not all(np.array_equal(got[name], want[name])
                           for name in want):
                    failures.append(index)

        threads = [threading.Thread(target=worker, args=(index,))
                   for index in range(2 * (os.cpu_count() or 2) + 2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_cc_span_carries_the_plan(self, isolated_cbackend):
        needs_working_cc()
        func_name, module = lower_optimized(GOLDEN["chain"])
        tracer = enable()
        try:
            kernel = CBackend().compile(module, func_name)
        finally:
            disable()
        attrs = [span.attrs for span in tracer.spans()
                 if span.name == "cbackend.cc"][-1]
        assert kernel.backend == "cbackend" and kernel.fused_groups == 1
        for fact in ("arena_bytes", "arena_slots", "fused_groups",
                     "contracted_buffers"):
            assert attrs[fact] == getattr(kernel, fact)

    def test_fuzz_exec_200_seeds_through_cbackend(self):
        """200 random kernels, generated C vs. interpreter, bit-for-bit
        raw and optimized (a probe-rejected libm op is a recorded
        fallback, still checked bitwise)."""
        from irfuzz import check_executor

        for seed in range(200):
            check_executor(seed, backend="cbackend")

    def test_gather_wraps_negative_semantics(self, isolated_cbackend):
        # Golden gather uses in-range indices; the emitted C must match
        # numpy's advanced indexing bit-for-bit either way.
        func_name, module = lower_optimized(GOLDEN["gather"])
        inputs = golden_inputs("gather")
        expected = run_affine(module, func_name, inputs)
        kernel = CBackend().compile(module, func_name)
        got = kernel.run(inputs)
        np.testing.assert_array_equal(got["c"], expected["c"])


def input_writer(write):
    """A hand-built affine function ``(a, y)`` that copies ``a`` into
    ``y`` and then writes ``a`` itself: with a ``memref.store`` of zeros
    in a nest, or a ``memref.copy`` from a scratch buffer."""
    module = Module()
    ref = T.MemRefType((4,), T.f64)
    entry = Block([ref, ref])
    module.append(Operation.create(
        "func.func", [], [],
        {"sym_name": "writer",
         "function_type": T.FunctionType((ref, ref), ()),
         "kernel_lang": "affine", "arg_names": ["a", "y"],
         "num_outputs": 1},
        [Region([entry])]))
    builder = Builder.at_end(entry)
    a_arg, y_arg = entry.args
    builder.create("memref.copy", [a_arg, y_arg], [])
    if write == "store":
        body = Block([T.index])
        builder.create("affine.for", [], [],
                       {"lower": 0, "upper": 4, "step": 1}, [Region([body])])
        inner = Builder.at_end(body)
        zero = inner.create("arith.constant", [], [T.f64],
                            {"value": 0.0}).result
        inner.create("memref.store", [zero, a_arg, body.args[0]], [])
        inner.create("affine.yield", [], [])
    else:
        scratch = builder.create("memref.alloc", [], [ref]).result
        builder.create("memref.copy", [scratch, a_arg], [])
    builder.create("func.return", [], [])
    verify(module)
    return module


BORROW = """
kernel k {
  index i: 5, j: 3
  input a[i, j]: f64
  input b[i, j]: f64
  output t
  output out
  t = a * b - a
  out = sum[j](t * b + a)
}
"""


def _borrow_cases():
    rng = np.random.default_rng(21)
    base = rng.normal(size=(5, 3))
    wide = rng.normal(size=(5, 6))
    ints = [[1, -2, 3], [4, 5, -6], [7, 8, 9], [0, 1, 2], [3, -4, 5]]
    frozen = np.frombuffer(base.tobytes()).reshape(5, 3)
    return {
        "fortran": {"a": np.asfortranarray(base), "b": base},
        "strided": {"a": wide[:, ::2], "b": base},
        "int-list": {"a": ints, "b": base},
        "read-only": {"a": frozen, "b": base},
        "same-array": {"a": base, "b": base},
    }


class TestBorrowedInputs:
    """Executors borrow their inputs as read-only views: a kernel never
    writes its inputs, a kernel that would is refused, and outputs are
    fresh arrays."""

    @pytest.mark.parametrize("write", ["store", "copy"])
    def test_writing_an_input_is_refused(self, write, isolated_cbackend):
        module = input_writer(write)
        values = np.array([1.0, 2.0, 3.0, 4.0])
        for backend in ("interpreter", "compiled"):
            kernel = compile_affine(module, "writer", backend=backend)
            assert kernel.backend == backend
            with pytest.raises(ValueError, match="read-only"):
                kernel.run({"a": values})
        needs_working_cc()      # builds the probe before the listing
        built = sorted(os.listdir(isolated_cbackend))
        kernel = compile_affine(module, "writer", backend="cbackend")
        assert kernel.backend == "compiled"
        assert f"memref.{write} writes input 'a'" in kernel.fallback
        assert sorted(os.listdir(isolated_cbackend)) == built
        with pytest.raises(ValueError, match="read-only"):
            kernel.run({"a": values})
        np.testing.assert_array_equal(values, [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("case", sorted(_borrow_cases()))
    @pytest.mark.parametrize("backend",
                             ["interpreter", "compiled", "cbackend"])
    def test_layout_dtype_and_aliasing_edges(self, case, backend):
        inputs = _borrow_cases()[case]
        before = {name: np.array(value) for name, value in inputs.items()}
        plain = {name: np.array(value, dtype=np.float64, order="C")
                 for name, value in inputs.items()}
        func_name, module = lower_optimized(BORROW)
        kernel = compile_affine(module, func_name, backend=backend)
        got = kernel.run(inputs)
        want = kernel.run(plain)
        assert set(got) == {"t", "out"}
        for name in want:
            np.testing.assert_array_equal(got[name], want[name])
            for value in inputs.values():
                assert not np.shares_memory(got[name], value)
        for name, value in inputs.items():
            np.testing.assert_array_equal(np.asarray(value), before[name])
        if isinstance(inputs["a"], np.ndarray):
            # Only the bound view is read-only, never the caller's array.
            assert inputs["a"].flags.writeable == (case != "read-only")

    def test_threads_share_one_cached_cbackend_kernel_and_inputs(self):
        needs_working_cc()
        rng = np.random.default_rng(8)
        inputs = {"a": rng.normal(size=(5, 3)), "b": rng.normal(size=(5, 3))}
        before = {name: value.copy() for name, value in inputs.items()}
        session = PipelineSession()
        expected = session.execute(BORROW, inputs, backend="cbackend")
        assert expected.kernel.backend == "cbackend"
        results, errors = [], []

        def worker():
            try:
                for _ in range(20):
                    results.append(session.execute(
                        BORROW, inputs, backend="cbackend").outputs)
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(results) == 160
        for outputs in results:
            for name, value in expected.outputs.items():
                np.testing.assert_array_equal(outputs[name], value)
        for name, value in inputs.items():
            np.testing.assert_array_equal(value, before[name])
            assert value.flags.writeable


class TestCLI:
    def test_run_compiled_parallel(self, tmp_path, capsys):
        from repro.basecamp.cli import main

        source = tmp_path / "k.ekl"
        source.write_text(GOLDEN["chain"])
        code = main(["run", str(source), "--random-seed", "1",
                     "--backend", "compiled-parallel", "--time"])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=compiled-parallel" in out

    def test_run_has_no_jobs_option(self, tmp_path, capsys):
        from repro.basecamp.cli import main

        source = tmp_path / "k.ekl"
        source.write_text(GOLDEN["chain"])
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(source), "--random-seed", "1",
                  "--backend", "compiled-parallel", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_run_cbackend_prints_the_plan(self, tmp_path, capsys):
        needs_working_cc()
        from repro.basecamp.cli import main

        source = tmp_path / "k.ekl"
        source.write_text(GOLDEN["contraction"])
        assert main(["run", str(source), "--random-seed", "1",
                     "--backend", "cbackend", "--time"]) == 0
        out = capsys.readouterr().out
        assert "backend=cbackend (1 fused group(s) / " in out
        assert "contracted buffer(s), " in out and "arena=32B/1 slots" in out

    def test_run_unknown_backend_lists_available(self, tmp_path, capsys):
        from repro.basecamp.cli import main

        source = tmp_path / "k.ekl"
        source.write_text(GOLDEN["elementwise"])
        code = main(["run", str(source), "--random-seed", "1",
                     "--backend", "copmiled"])
        assert code != 0
        err = capsys.readouterr().err
        assert "unknown executor backend" in err
        assert "compiled-parallel" in err
