"""High-level synthesis engine (the Vitis HLS / Bambu role, paper §IV, §V-B).

Pipeline: lowered ``affine`` functions are scheduled nest by nest
(:mod:`repro.hls.scheduling`), costed (:mod:`repro.hls.resources`), and
reported (:class:`repro.hls.synth.KernelReport`), which Olympus and the
runtime read.

Custom numeric formats (:mod:`repro.numerics`) plug in through the
``number_format`` parameter: the same kernel re-synthesized with ``f32``,
fixed point or posit arithmetic yields different latency/resource points —
the accuracy/cost trade-off highlighted by the paper.
"""

from repro.hls.resources import OpCost, ResourceBudget, cost_of
from repro.hls.scheduling import BodyDFG, Schedule, asap, alap, build_dfg, list_schedule
from repro.hls.synth import (
    ExecutorCrossCheck,
    HLSEngine,
    KernelReport,
    NestReport,
    cross_check_executor,
    synthesize_kernel,
)

__all__ = [
    "OpCost",
    "ResourceBudget",
    "cost_of",
    "BodyDFG",
    "Schedule",
    "asap",
    "alap",
    "build_dfg",
    "list_schedule",
    "ExecutorCrossCheck",
    "HLSEngine",
    "KernelReport",
    "NestReport",
    "cross_check_executor",
    "synthesize_kernel",
]
