"""Built-in pipeline stages: the Fig. 2 SDK flow as composable phases.

Each function here implements one :class:`repro.pipeline.Stage`:

========================  =====================================================
``frontend-parse``        EKL source text -> kernel AST (§V-A1)
``dialect-lowering``      kernel AST -> verified ``affine`` module (Fig. 5)
``canonicalize``          affine module -> canonicalized and fused module;
                          each sub-pass is a ``pass`` span while tracing
                          is on
``execute``               affine module -> :class:`CompiledKernel`, the
                          vectorized-numpy CPU executor (the HLS flow's
                          host-side analog)
``hls``                   affine module -> :class:`KernelReport`, optionally
                          under a custom data format (§V-B)
``olympus``               kernel report -> DSE points, best config and the
                          generated :class:`SystemArchitecture` (§V-C)
``schedule``              system architecture -> EVP deployment IR and a HEFT
                          schedule on the testbed cluster (§VI-A)
========================  =====================================================

The stage payload dataclasses (:class:`CompileResult`,
:class:`ExecutionResult`, :class:`OlympusResult`, :class:`DeploymentPlan`)
are the session's public result types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import PipelineError
from repro.pipeline.stage import Stage


@dataclass
class CompileResult:
    """Frontend + lowering (+ optional HLS) output for one kernel."""

    source: str
    kernel: Any = None            # repro.frontends.ekl.ast.Kernel
    module: Any = None            # repro.ir.Module (affine)
    report: Any = None            # repro.hls.KernelReport
    key: str = ""                 # fingerprint of the last completed stage


@dataclass
class ExecutionResult:
    """A kernel execution through the compiled (or interpreter) backend."""

    kernel: Any = None            # repro.tensorpipe.codegen.CompiledKernel
    outputs: Dict[str, Any] = field(default_factory=dict)
    seconds: float = 0.0
    key: str = ""                 # fingerprint of the execute stage

    @property
    def backend(self) -> str:
        return self.kernel.backend if self.kernel is not None else "?"


@dataclass
class OlympusResult:
    """Design-space exploration + system generation output."""

    device_name: str
    points: List[Tuple[Any, Any, Any]] = field(default_factory=list)
    best: Any = None              # ArchConfig
    system: Any = None            # SystemArchitecture
    ir: Any = None                # olympus-dialect Module
    key: str = ""                 # fingerprint of the olympus stage


@dataclass
class DeploymentPlan:
    """EVP deployment IR plus the runtime schedule of the system."""

    deployment_ir: Any = None     # evp-dialect Module
    schedule: Any = None          # repro.runtime.ScheduleResult
    cluster_nodes: int = 0


# -- stage implementations -------------------------------------------------------------
#
# Heavy SDK imports stay inside the stage bodies: importing repro.pipeline
# must stay cheap (the basecamp CLI imports it for --help).


def stage_frontend_parse(source: str) -> Any:
    """``frontend-parse``: EKL text -> kernel AST."""
    from repro.frontends.ekl import parse_kernel

    return parse_kernel(source)


def stage_dialect_lowering(kernel: Any, *, canonicalize: bool = True) -> Any:
    """``dialect-lowering``: ekl -> esn -> teil -> affine, then verify.

    With ``canonicalize`` (the default) the *intermediate* lowering steps
    canonicalize their output; the final affine module is left raw so the
    session's ``canonicalize`` stage performs — and times — the
    affine-level optimization itself.  ``canonicalize=False`` is the
    fully raw chain (``--opt-level 0``).

    The stage boundary runs the *typed* verifier
    (:func:`repro.ir.verifier.verify_typed`): beyond structural checks,
    the abstract interpreter re-derives every result's shape/dtype, so a
    lowering miscompile is rejected here without executing anything.
    """
    import repro.dialects  # noqa: F401 (registration side effect)
    from repro.frontends.ekl.lower import (
        lower_ekl_to_esn,
        lower_kernel_to_ekl,
    )
    from repro.ir import verify_typed
    from repro.tensorpipe import lower_esn_to_teil, lower_teil_to_affine

    module = lower_teil_to_affine(
        lower_esn_to_teil(
            lower_ekl_to_esn(lower_kernel_to_ekl(kernel),
                             canonicalize=canonicalize),
            canonicalize=canonicalize,
        ),
        canonicalize=False,
    )
    verify_typed(module)
    return module


def stage_canonicalize(module: Any, *, opt_level: int = 1) -> Any:
    """``canonicalize``: run the optimization pipeline on a lowered module.

    Optimizes ``module`` in place and returns it: the session hands it an
    uncached raw lowering that nothing else holds.  ``opt_level`` 0 is the
    identity; 1 canonicalizes, then fuses.  Each sub-pass runs in a
    ``canonicalize/{rewrite,fuse}`` span
    (category ``pass``) so ``basecamp pipeline`` can show where
    optimization time went.
    """
    import repro.dialects  # noqa: F401 (registration side effect)
    from repro.ir import CanonicalizePass, FusionPass, verify_typed
    from repro.telemetry.trace import get_tracer

    if opt_level <= 0:
        return module
    tracer = get_tracer()
    with tracer.span("canonicalize/rewrite", category="pass"):
        CanonicalizePass().run(module)
    fusion = FusionPass()
    with tracer.span("canonicalize/fuse", category="pass") as span:
        fusion.run(module)
        span.set("detail", f"{fusion.fused} buffer(s)")
    verify_typed(module)
    return module


def stage_execute(payload: Tuple[Any, Any], *,
                  backend: str = "compiled") -> Any:
    """``execute``: (kernel, affine module) -> :class:`CompiledKernel`.

    Compiles the lowered module to the vectorized-numpy executor
    (:mod:`repro.tensorpipe.codegen`); the artifact is cacheable — the
    actual runs over input data happen outside the stage cache (see
    :meth:`PipelineSession.execute`).  ``backend="interpreter"`` pins the
    reference interpreter instead (baseline and differential runs).
    """
    from repro.tensorpipe.codegen import compile_affine

    kernel, module = payload
    return compile_affine(module, kernel.name, backend=backend)


def stage_hls(payload: Tuple[Any, Any], *,
              number_format: Optional[str] = None,
              clock_mhz: float = 300.0) -> Any:
    """``hls``: (kernel, affine module) -> :class:`KernelReport`.

    ``number_format`` is a compact spec string (``"f32"``, ``"fixed<8.8>"``,
    ``"posit<16,1>"``; ``None`` means the default f64) so that the stage
    parameters stay fingerprintable.
    """
    from repro.hls import synthesize_kernel
    from repro.numerics import make_format

    kernel, module = payload
    fmt = make_format(number_format) if number_format else None
    return synthesize_kernel(module, kernel.name, number_format=fmt,
                             clock_mhz=clock_mhz)


def stage_olympus(report: Any, *, device: str = "alveo-u55c",
                  max_replicas: Optional[int] = None,
                  system_name: Optional[str] = None) -> OlympusResult:
    """``olympus``: kernel report -> DSE points (in candidate
    enumeration order) + generated system."""
    from repro.olympus import OlympusGenerator
    from repro.platforms import device_by_name

    generator = OlympusGenerator(device_by_name(device))
    points = generator.explore(report, max_replicas)
    best = min(points, key=lambda p: p[1].total)[0]
    system = generator.generate(system_name or f"{report.name}_system",
                                [report], {report.name: best})
    return OlympusResult(device, points, best, system,
                         generator.emit_ir(system))


def stage_schedule(olympus: OlympusResult, *,
                   nodes: int = 4) -> DeploymentPlan:
    """``schedule``: system -> EVP deployment IR + HEFT cluster schedule."""
    from repro.olympus import lower_olympus_to_evp
    from repro.runtime import ResourceRequest, RuntimeEngine, default_cluster

    if olympus.system is None:
        raise PipelineError("schedule stage needs a generated system "
                            "(run the olympus stage first)")
    engine = RuntimeEngine(default_cluster(nodes), policy="heft")
    for instance in olympus.system.instances:
        seconds = olympus.system.estimates[instance.name].total
        engine.submit(lambda: None,
                      resources=ResourceRequest(fpga=True,
                                                fpga_seconds=seconds),
                      output_bytes=instance.report.bytes_out,
                      name=instance.name)
    return DeploymentPlan(lower_olympus_to_evp(olympus.ir), engine.run(),
                          nodes)


def builtin_stages() -> List[Stage]:
    """The stages of the default registry."""
    return [
        Stage("frontend-parse", stage_frontend_parse,
              "EKL source text -> kernel AST"),
        Stage("dialect-lowering", stage_dialect_lowering,
              "kernel AST -> verified affine module", cacheable=False),
        Stage("canonicalize", stage_canonicalize,
              "fold/DCE/CSE, then fusion, on the lowered module"),
        Stage("execute", stage_execute,
              "affine module -> compiled CPU executor (vectorized numpy)"),
        Stage("hls", stage_hls,
              "affine module -> HLS kernel report"),
        Stage("olympus", stage_olympus,
              "kernel report -> DSE + system architecture"),
        Stage("schedule", stage_schedule,
              "system architecture -> deployment IR + HEFT schedule"),
    ]
