"""``exec_stream``: stream a large kernel through the generated-C backend.

One op is ``session.execute(CHAIN, inputs, backend="cbackend")`` on a
150 000 x 8 elementwise chain (1.2 M f64 elements).  Native kernel
execution dominates; the compiler layers do nothing after set-up, which
pays the one ``cc`` build.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Optional, Tuple

import numpy as np

from bench.loadgen import Block, timed_ops
from bench.spans import Recorder
from bench.workloads import Base

import repro.tensorpipe.codegen
from repro.apps.wrf.rrtmg import sample_inputs
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.pipeline import PipelineSession
from repro.tensorpipe.affine_interp import AffineInterpreter

ROWS, COLS = 150_000, 8

CHAIN = """
kernel chain {{
  index i: {rows}, j: {cols}
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  t2 = t1 * t1 + t0
  t3 = t2 * b + t1
  out = sum[j](t3 * t2)
}}
"""

NUMPY_BACKENDS = ("compiled", "compiled-parallel", "compiled-arena")


def reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The chain kernel written by hand in numpy."""
    t0 = a * b + a
    t1 = t0 * b - a
    t2 = t1 * t1 + t0
    t3 = t2 * b + t1
    return (t3 * t2).sum(axis=1)


def _median_run_s(kernel, inputs, runs: int) -> float:
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel.run(inputs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


class Workload(Base):
    name = "exec_stream"
    NATIVE = True
    COUNTED_BLOCKS, COUNTED_BLOCK_OPS = 10, 6

    def setup(self, seed: int, recorder: Recorder) -> None:
        self.recorder = recorder
        self.rng = np.random.default_rng(seed)
        self.source = CHAIN.format(rows=ROWS, cols=COLS)
        self.inputs = {"a": self.rng.normal(size=(ROWS, COLS)),
                       "b": self.rng.normal(size=(ROWS, COLS))}
        self.expected = reference(self.inputs["a"], self.inputs["b"])
        self.session = PipelineSession()
        start = time.perf_counter()
        first = self.session.execute(self.source, self.inputs,
                                     backend="cbackend")
        self.first_execute_s = time.perf_counter() - start
        # A fallback off cbackend must not be timed as if it were native
        # code: every op then counts as failed.
        self.native = first.kernel.backend == "cbackend" \
            and not first.kernel.fallback

    def instrument(self) -> None:
        self.recorder.patch(repro.tensorpipe.codegen.CompiledKernel, "run",
                            "tensorpipe.exec")

    def _op(self):
        with self.recorder.span("op"):
            return 0, self.session.execute(self.source, self.inputs,
                                           backend="cbackend")

    def block(self, ops: Optional[int] = None) -> Block:
        latencies, kinds, results = timed_ops(self._op, ops)
        return Block(latencies, kinds, lambda: sum(
            not self._correct(result) for result in results))

    def _correct(self, result) -> bool:
        return self.native and result.kernel.backend == "cbackend" \
            and np.allclose(result.outputs["out"], self.expected,
                            rtol=1e-12, atol=1e-12)

    def finish(self) -> Tuple[int, int]:
        """Bitwise agreement with the reference interpreter on a 1/100
        instance of the same kernel (the interpreter is too slow for the
        full one)."""
        rows = ROWS // 100
        source = CHAIN.format(rows=rows, cols=COLS)
        inputs = {"a": self.rng.normal(size=(rows, COLS)),
                  "b": self.rng.normal(size=(rows, COLS))}
        result = self.session.execute(source, inputs, backend="cbackend")
        lowered = self.session.lower(source)
        expected = AffineInterpreter(
            lowered.module, lowered.kernel.name).run(inputs)
        same = result.kernel.backend == "cbackend" and all(
            np.array_equal(result.outputs[name], expected[name])
            for name in expected)
        return 1, 0 if same else 1

    def layers(self) -> Dict[str, float]:
        _, own, _ = self.recorder.per_op()
        lowered = self.session.lower(self.source)
        payload = (lowered.kernel, lowered.module)
        metrics: Dict[str, float] = {
            # The first execute lowers once and builds the shared object
            # into an empty disk cache; both only ever run in set-up.
            "tensorpipe.cc_build_ms": 1e3 * self.first_execute_s,
            "pipeline.execute_overhead_us": 1e6 * own["op"],
            "tensorpipe.exec_ms.cbackend": 1e3 * own["tensorpipe.exec"],
        }
        fallbacks = 0 if self.native else 1
        for backend in NUMPY_BACKENDS:
            _, kernel = self.session.run_stage(
                "execute", payload, key=lowered.key,
                params={"backend": backend})
            fallbacks += bool(kernel.fallback) or kernel.backend != backend
            kernel.run(self.inputs)
            metrics[f"tensorpipe.exec_ms.{backend}"] = \
                1e3 * _median_run_s(kernel, self.inputs, 5)
            if backend == "compiled-arena":
                metrics["tensorpipe.arena_bytes"] = kernel.arena_bytes
        metrics["tensorpipe.flops_per_call"] = kernel.flops
        metrics["tensorpipe.gflops.cbackend"] = \
            kernel.flops / own["tensorpipe.exec"] / 1e9
        # Computed from buffer sizes, not measured: inputs read once and
        # the output written once.
        metrics["tensorpipe.bytes_per_call"] = \
            sum(array.nbytes for array in self.inputs.values()) \
            + self.expected.nbytes
        # Dispatch-bound counterpart: the small Fig. 3 kernel, where the
        # per-call overhead of a backend is all there is.
        small = self.session.lower(FIG3_MAJOR_ABSORBER)
        small_inputs = sample_inputs()
        for backend in ("compiled", "cbackend"):
            _, kernel = self.session.run_stage(
                "execute", (small.kernel, small.module), key=small.key,
                params={"backend": backend})
            fallbacks += bool(kernel.fallback) or kernel.backend != backend
            kernel.run(small_inputs)
            metrics[f"tensorpipe.small_call_us.{backend}"] = \
                1e6 * _median_run_s(kernel, small_inputs, 200)
        metrics["tensorpipe.fallbacks"] = fallbacks
        return metrics
