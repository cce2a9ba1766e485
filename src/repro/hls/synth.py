"""The HLS engine driver: affine functions -> scheduled kernels -> reports.

Fills the role Vitis HLS / Bambu play in the EVEREST SDK (paper §IV): each
lowered ``affine`` function is analyzed nest by nest, every innermost body
is list-scheduled and pipelined, and the result is a
:class:`KernelReport` — latency in cycles, initiation intervals, functional
units and FPGA resources — the currency Olympus, the autotuner and the
runtime trade in.

Fig. 5 draws two rungs below ``affine``, ``fsm`` and ``hw``; here they are
the report's fields (per-nest trip count, II, depth and unit counts, the
port width), not IR that something would have to parse back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import HLSError
from repro.hls.resources import (
    SHARABLE_CLASSES,
    OpCost,
    ResourceBudget,
    cost_of,
)
from repro.hls.scheduling import build_dfg, check_unit_count, list_schedule
from repro.ir import Module, Operation, types as T
from repro.ir.fusion import loop_bounds, perfect_nest, trip_count
from repro.numerics import NumberFormat, format_bits
from repro.numerics.fixed_point import FixedPointFormat
from repro.numerics.float_formats import FloatFormat
from repro.numerics.posit import PositFormat
from repro.tensorpipe.affine_interp import FLOAT_OPS
from repro.tensorpipe.arena import default_element_bytes, plan_arena

_LOOP_OVERHEAD = 2  # cycles to enter/flush one pipelined nest


@dataclass
class NestReport:
    """Synthesis result of one loop nest."""

    trip_count: int
    depth: int
    ii: int
    res_mii: int
    rec_mii: int
    units: Dict[str, int]
    body_ops: int
    unit_costs: Dict[str, OpCost] = field(default_factory=dict)
    fixed_resources: ResourceBudget = field(default_factory=ResourceBudget)
    flops: int = 0

    @property
    def cycles(self) -> int:
        if self.trip_count == 0:
            return 0
        return self.depth + (self.trip_count - 1) * self.ii + _LOOP_OVERHEAD


@dataclass
class KernelReport:
    """Synthesis report of one kernel (one affine function)."""

    name: str
    nests: List[NestReport] = field(default_factory=list)
    resources: ResourceBudget = field(default_factory=ResourceBudget)
    bytes_in: int = 0
    bytes_out: int = 0
    port_width_bits: int = 64
    clock_mhz: float = 300.0
    number_format: str = "f64"
    #: Peak on-chip scratch footprint of the kernel's local buffers under
    #: the static arena plan (:func:`repro.tensorpipe.arena.plan_arena`):
    #: lifetime-disjoint ``memref.alloc`` buffers share bytes.  With the
    #: default f64 format this equals the compiled ``compiled-arena``
    #: executor's ``arena_bytes`` exactly; custom number formats rescale
    #: it by their element widths.
    planned_arena_bytes: int = 0
    planned_arena_slots: int = 0
    #: Sum of the nests' cycles, and that latency at ``clock_mhz``.
    #: These totals are out of the repr, which lists the nests they sum.
    total_cycles: int = field(default=0, repr=False)
    latency_seconds: float = field(default=0.0, repr=False)
    #: Floating-point operations per kernel invocation, from the nest
    #: model (trip counts x float body ops); the compiled CPU executor
    #: computes the same quantity independently from the loop tree
    #: (:func:`repro.tensorpipe.codegen.count_flops`) and the two are
    #: cross-checked by the test suite.
    flops: int = field(default=0, repr=False)

    def summary(self) -> str:
        lines = [
            f"kernel {self.name}: {self.total_cycles} cycles "
            f"({self.latency_seconds * 1e6:.1f} us @ {self.clock_mhz} MHz, "
            f"format {self.number_format})",
            f"  resources: LUT={self.resources.lut} FF={self.resources.ff} "
            f"DSP={self.resources.dsp} BRAM={self.resources.bram}",
            f"  data: in={self.bytes_in}B out={self.bytes_out}B "
            f"scratch-arena={self.planned_arena_bytes}B "
            f"({self.planned_arena_slots} buffers)",
        ]
        for i, nest in enumerate(self.nests):
            lines.append(
                f"  nest {i}: trip={nest.trip_count} II={nest.ii} "
                f"depth={nest.depth} (resMII={nest.res_mii}, "
                f"recMII={nest.rec_mii})"
            )
        return "\n".join(lines)


def _format_ir_type(fmt: Optional[NumberFormat]) -> Optional[T.Type]:
    if fmt is None:
        return None
    if isinstance(fmt, FloatFormat):
        return {"f64": T.f64, "f32": T.f32, "f16": T.f16,
                "bf16": T.bf16}[fmt.name]
    if isinstance(fmt, FixedPointFormat):
        return fmt.ir_type()
    if isinstance(fmt, PositFormat):
        return fmt.ir_type()
    raise HLSError(f"unsupported number format {fmt!r}")


class HLSEngine:
    """Synthesizes affine functions into kernel reports."""

    def __init__(self, clock_mhz: float = 300.0,
                 mem_ports: int = 2,
                 number_format: Optional[NumberFormat] = None):
        check_unit_count("mem_ports", mem_ports)
        self.clock_mhz = clock_mhz
        self.mem_ports = mem_ports
        self.number_format = number_format
        self._format_type = _format_ir_type(number_format)

    # -- public API ---------------------------------------------------------------

    def synthesize(self, module: Module, func_name: str) -> KernelReport:
        """Synthesize one affine-level function."""
        from repro.telemetry.trace import get_tracer
        tracer = get_tracer()
        with tracer.span("hls.synthesize", category="compile") as span:
            if tracer.enabled:
                span.attrs.update(func=func_name,
                                  clock_mhz=self.clock_mhz)
            report = self._synthesize(module, func_name)
            span.set("nests", len(report.nests))
        return report

    def _synthesize(self, module: Module, func_name: str) -> KernelReport:
        func = module.lookup(func_name)
        if func.attr("kernel_lang") != "affine":
            raise HLSError(f"{func_name}: not an affine-level function "
                           "(run the teil lowering first)")
        report = KernelReport(
            name=func_name, clock_mhz=self.clock_mhz,
            number_format=str(self.number_format) if self.number_format
            else "f64",
        )
        entry = func.regions[0].entry
        num_outputs = func.attr("num_outputs") or 0
        args = entry.args
        for i, arg in enumerate(args):
            ref = arg.type
            if isinstance(ref, T.MemRefType):
                size = self._buffer_bytes(ref)
                if i < len(args) - num_outputs:
                    report.bytes_in += size
                else:
                    report.bytes_out += size
        for op in entry.operations:
            if op.name == "affine.for":
                nest = self._synthesize_nest(op)
                report.nests.append(nest)
                report.total_cycles += nest.cycles
                report.flops += nest.flops
                # Shared units (muls, dividers, memory ports) are sized for
                # the achieved II; everything else is one unit per body op.
                for family, count in nest.units.items():
                    cost = nest.unit_costs.get(family)
                    if cost is not None:
                        report.resources.add(cost, count)
                report.resources = report.resources.merged(
                    nest.fixed_resources
                )
            elif op.name == "memref.alloc":
                ref = op.results[0].type
                report.resources.bram += self._bram_blocks(ref)
        # Port width: widest element among the argument buffers.
        widths = [
            T.bitwidth(self._cost_element(a.type.element))
            for a in args if isinstance(a.type, T.MemRefType)
        ]
        report.port_width_bits = max(widths, default=64)
        report.latency_seconds = report.total_cycles / (self.clock_mhz * 1e6)
        plan = plan_arena(func, element_bytes=self._arena_element_bytes)
        report.planned_arena_bytes = plan.total_bytes
        report.planned_arena_slots = len(plan.slots)
        return report

    # -- internals -----------------------------------------------------------------

    def _cost_element(self, element: T.Type) -> T.Type:
        """Numeric-format override: float elements re-typed for costing."""
        if self._format_type is not None and isinstance(element, T.FloatType):
            return self._format_type
        return element

    def _arena_element_bytes(self, element: T.Type) -> int:
        """Element width for the arena plan.

        The default format plans exactly what the numpy executors
        allocate (so ``planned_arena_bytes`` equals the
        ``compiled-arena`` backend's footprint); a custom number format
        substitutes its own storage widths.
        """
        if self._format_type is None:
            return default_element_bytes(element)
        try:
            bits = T.bitwidth(self._cost_element(element))
        except Exception:
            bits = 64
        return (bits + 7) // 8

    def _buffer_bytes(self, ref: T.MemRefType) -> int:
        element = self._cost_element(ref.element)
        try:
            bits = T.bitwidth(element)
        except Exception:
            bits = 64
        count = 1
        for dim in ref.shape:
            count *= dim if dim is not None else 1
        return count * ((bits + 7) // 8)

    def _bram_blocks(self, ref: T.MemRefType) -> int:
        # One BRAM18 holds 18 Kb = 2304 bytes.
        return max(1, math.ceil(self._buffer_bytes(ref) / 2304))

    def _element_of(self, op: Operation) -> T.Type:
        if op.name == "memref.store":
            ty = op.operands[0].type
        elif op.results:
            ty = op.results[0].type
        elif op.operands:
            ty = op.operands[0].type
        else:
            ty = T.i32
        if isinstance(ty, T.MemRefType):
            ty = ty.element
        return self._cost_element(ty)

    def _synthesize_nest(self, loop: Operation) -> NestReport:
        loops, ops = perfect_nest(loop)
        trip = 1
        for level in loops:
            lower, upper, step = loop_bounds(level)
            trip *= trip_count(lower, upper, step or 1)
        body_ops = [op for op in ops if op.name != "affine.for"]
        flops = trip * sum(1 for op in body_ops if op.name in FLOAT_OPS)
        # Imperfect nest bodies: inner loops contribute their own trip.
        for inner in [op for op in ops if op.name == "affine.for"]:
            inner_report = self._synthesize_nest(inner)
            flops += trip * inner_report.flops
            body_ops.extend(_innermost_ops(inner))
        dfg = build_dfg(body_ops, self._element_of)
        schedule = list_schedule(dfg, {"mem": self.mem_ports})
        unit_costs: Dict[str, OpCost] = {}
        fixed = ResourceBudget()
        for node in dfg.nodes:
            if node.family in SHARABLE_CLASSES:
                best = unit_costs.get(node.family)
                if best is None or node.cost.lut > best.lut:
                    unit_costs[node.family] = node.cost
            else:
                fixed.add(node.cost)
        return NestReport(
            trip_count=trip,
            depth=max(schedule.depth, 1),
            ii=schedule.ii,
            res_mii=schedule.res_mii,
            rec_mii=schedule.rec_mii,
            units=schedule.units,
            body_ops=dfg.size,
            unit_costs=unit_costs,
            fixed_resources=fixed,
            flops=flops,
        )


def synthesize_kernel(module: Module, func_name: str,
                      number_format: Optional[NumberFormat] = None
                      ) -> KernelReport:
    """One-call synthesis entry point, at the default 300 MHz clock."""
    return HLSEngine(number_format=number_format).synthesize(module,
                                                             func_name)

