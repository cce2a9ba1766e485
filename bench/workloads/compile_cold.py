"""``compile_cold``: compile never-seen kernels; every cache access misses.

One op is ``PipelineSession.compile`` (parse, lowering, canonicalize/fuse,
hls) plus the ``execute`` stage (``compiled`` codegen) of one generated
kernel on a shared session.  The compiler stack does all the work;
executors, serve and engine do none.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

import numpy as np

from bench import gen
from bench.loadgen import Block, timed_ops
from bench.spans import Recorder
from bench.workloads import Base

import repro.frontends.ekl
import repro.frontends.ekl.lower
import repro.hls
import repro.ir
import repro.tensorpipe
import repro.tensorpipe.codegen
from repro.frontends.ekl import parse_kernel, run_kernel
from repro.pipeline import PipelineSession
from repro.tensorpipe.codegen import compile_cache_stats, count_flops

STAGES = ("frontend-parse", "dialect-lowering", "canonicalize", "hls",
          "execute")

#: Every this-many-th kernel is also run and compared with the EKL
#: reference interpreter.
RUN_EVERY = 16


def _count_ops(module) -> int:
    return sum(1 for _ in module.walk())


class Workload(Base):
    name = "compile_cold"
    #: Two cycles of the pinned corpus: the same work on every seed.
    COUNTED_BLOCKS, COUNTED_BLOCK_OPS = 10, gen.CYCLE // 5

    def setup(self, seed: int, recorder: Recorder) -> None:
        self.recorder = recorder
        self.kernels = gen.kernels(seed)
        self.data_rng = np.random.default_rng(seed)
        self.session = PipelineSession()
        self.flops_checked = self.flops_matched = 0
        # One compile outside the timed phase performs the program's lazy
        # imports and dialect registration.  It is not taken from the
        # stream, so that the ops that follow are whole cycles of it.
        self._compile(gen.render(gen.SHAPES[0], "prime",
                                 random.Random(seed)))

    def instrument(self) -> None:
        """Record a span per stage and per layer function (traced child)."""
        recorder, session = self.recorder, self.session

        def stage_counts(span, args, result):
            span.args.update(ops_in=_count_ops(args[0]),
                             ops_out=_count_ops(result))

        for stage in STAGES:
            original = session.registry.get(stage)
            session.register(
                stage,
                recorder.wrap(original.fn, f"stage:{stage}",
                              stage_counts if stage == "canonicalize"
                              else None),
                replace=True, description=original.description,
                cacheable=original.cacheable)
        # The stage bodies import these names when they run, so replacing
        # the attribute is seen; if that ever stops holding the time shows
        # up as the enclosing stage's self time instead of vanishing.
        patch = recorder.patch
        patch(repro.frontends.ekl, "parse_kernel", "frontends.parse")
        patch(repro.frontends.ekl.lower, "lower_kernel_to_ekl",
              "frontends.ekl_lower")
        patch(repro.frontends.ekl.lower, "lower_ekl_to_esn",
              "frontends.ekl_lower")
        patch(repro.tensorpipe, "lower_esn_to_teil", "tensorpipe.lower")
        patch(repro.tensorpipe, "lower_teil_to_affine", "tensorpipe.lower")
        patch(repro.ir, "verify_typed", "ir.verify_typed")
        patch(repro.ir.CanonicalizePass, "run", "ir.canonicalize")
        patch(repro.ir.FusionPass, "run", "ir.fusion",
              lambda span, args, result:
              span.args.update(fused=args[0].fused))
        patch(repro.hls, "synthesize_kernel", "hls.synthesize")
        patch(repro.tensorpipe.codegen, "compile_affine",
              "tensorpipe.codegen")

    def _compile(self, source: str):
        with self.recorder.span("op"):
            result = self.session.compile(source)
            _, kernel = self.session.run_stage(
                "execute", (result.kernel, result.module), key=result.key,
                params={"backend": "compiled"})
        return result, kernel

    def _op(self):
        number, index, source = next(self.kernels)
        return index, (number, gen.SHAPES[index], source,
                       *self._compile(source))

    def block(self, ops: Optional[int] = None) -> Block:
        latencies, kinds, results = timed_ops(self._op, ops)
        return Block(latencies, kinds, lambda: sum(
            not self._correct(*result) for result in results))

    def _correct(self, number, shape, source, result, kernel) -> bool:
        func = result.module.lookup(result.kernel.name)
        self.flops_checked += 1
        if result.report.flops != count_flops(func):
            return False
        self.flops_matched += 1
        if kernel.backend != "compiled" or kernel.fallback:
            return False
        if number % RUN_EVERY:
            return True
        inputs = gen.inputs_for(shape, self.data_rng)
        expected = run_kernel(parse_kernel(source), inputs)
        got = kernel.run(inputs)
        return set(got) == set(expected) and all(
            np.allclose(got[name], expected[name], rtol=1e-9, atol=1e-12)
            for name in expected)

    def layers(self) -> Dict[str, float]:
        """Per-layer metrics from the spans of the traced blocks."""
        spans = self.recorder.spans
        ops, own, inclusive = self.recorder.per_op()
        metrics = {
            f"{layer}_ms": 1e3 * own.get(layer, 0.0)
            for layer in ("frontends.parse", "frontends.ekl_lower",
                          "tensorpipe.lower", "ir.verify_typed",
                          "ir.canonicalize", "ir.fusion", "hls.synthesize",
                          "tensorpipe.codegen")
        }
        for stage in STAGES:
            metrics[f"pipeline.stage_ms.{stage}"] = \
                1e3 * inclusive.get(f"stage:{stage}", 0.0)
        # What the stage functions and the session spend outside the layer
        # functions: with these two, the metrics add up to the op latency.
        metrics["pipeline.stage_glue_ms"] = 1e3 * sum(
            own.get(f"stage:{stage}", 0.0) for stage in STAGES)
        metrics["pipeline.overhead_ms"] = 1e3 * own["op"]
        for count in ("ops_in", "ops_out"):
            metrics[f"ir.{count}"] = sum(
                span.args[count] for span in spans
                if span.name == "stage:canonicalize") / ops
        metrics["ir.fused_buffers"] = sum(
            span.args["fused"] for span in spans
            if span.name == "ir.fusion") / ops
        metrics["hls.flops_match_share"] = \
            self.flops_matched / self.flops_checked
        entries, hits = compile_cache_stats()
        metrics["tensorpipe.codegen_cache_hit_share"] = \
            hits / (hits + entries) if hits + entries else 0.0
        return metrics
