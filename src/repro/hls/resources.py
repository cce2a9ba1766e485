"""FPGA resource and latency cost model for HLS operators.

Per-operation costs (pipeline latency in cycles and LUT/FF/DSP/BRAM usage)
approximate Vitis HLS characterization on UltraScale+ parts at ~300 MHz.
Absolute numbers are not the point — *relative* costs drive every decision
the SDK makes (scheduling, II, replication counts, format trade-offs), and
those relations (f64 ≫ f32 ≫ fixed; div ≫ mul ≫ add) are faithful.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.types import (
    FixedPointType,
    FloatType,
    IndexType,
    IntegerType,
    PositType,
    Type,
)
from repro.platforms.resources import OpCost, ResourceBudget  # noqa: F401

# Cost tables keyed by operator class and numeric family.
_FLOAT_COSTS: Dict[str, Dict[int, OpCost]] = {
    "add": {64: OpCost(7, 650, 750), 32: OpCost(4, 390, 400),
            16: OpCost(3, 200, 220)},
    "mul": {64: OpCost(8, 350, 650, dsp=11), 32: OpCost(4, 120, 250, dsp=3),
            16: OpCost(3, 80, 150, dsp=1)},
    "div": {64: OpCost(36, 3200, 3600), 32: OpCost(16, 800, 900),
            16: OpCost(10, 400, 450)},
    "cmp": {64: OpCost(2, 120, 100), 32: OpCost(1, 66, 60),
            16: OpCost(1, 40, 40)},
    "math": {64: OpCost(40, 5200, 4800, dsp=26),
             32: OpCost(20, 1700, 1500, dsp=9),
             16: OpCost(12, 900, 800, dsp=4)},
}

_INT_COSTS: Dict[str, OpCost] = {
    "add": OpCost(1, 64, 64),
    "mul": OpCost(3, 60, 120, dsp=4),
    "div": OpCost(36, 1800, 2000),
    "cmp": OpCost(1, 40, 20),
    "logic": OpCost(1, 32, 32),
    "shift": OpCost(1, 70, 64),
}

# Posit operators synthesize to decode/operate/encode datapaths; costs from
# posit-HLS literature (Murillo et al.): roughly 2-3x fixed point, below
# same-width IEEE floats.
_POSIT_COSTS: Dict[str, OpCost] = {
    "add": OpCost(4, 420, 400),
    "mul": OpCost(5, 300, 320, dsp=2),
    "div": OpCost(18, 1400, 1300),
    "cmp": OpCost(1, 60, 40),
}

_MEM_COST = OpCost(2, 30, 40)  # BRAM port access
_SELECT_COST = OpCost(1, 48, 32)
_CAST_COST = OpCost(1, 40, 40)


def _float_bits(ty: Type) -> int:
    if isinstance(ty, FloatType):
        return ty.bits
    return 64


def _family(op_name: str) -> str:
    last = op_name.split(".")[-1]
    if last in ("addf", "subf", "addi", "subi", "maximumf", "minimumf",
                "maxsi", "minsi"):
        return "add"
    if last in ("mulf", "muli"):
        return "mul"
    if last in ("divf", "divsi", "remsi", "powf"):
        return "div"
    if last in ("cmpf", "cmpi"):
        return "cmp"
    if last in ("andi", "ori", "xori"):
        return "logic"
    if last in ("shli", "shrsi"):
        return "shift"
    if op_name.startswith("math."):
        return "math"
    if last == "select":
        return "select"
    if last in ("index_cast", "sitofp", "fptosi", "truncf", "extf", "cast",
                "negf"):
        return "cast"
    if op_name in ("memref.load", "memref.store"):
        return "mem"
    return "misc"


def cost_of(op_name: str, element: Type) -> OpCost:
    """Cost of one operator on a given element type."""
    family = _family(op_name)
    if family == "mem":
        return _MEM_COST
    if family == "select":
        return _SELECT_COST
    if family in ("cast", "misc"):
        return _CAST_COST
    if isinstance(element, (IntegerType, IndexType)) or (
        isinstance(element, FixedPointType)
    ):
        table_key = family if family in _INT_COSTS else "add"
        return _INT_COSTS[table_key]
    if isinstance(element, PositType):
        return _POSIT_COSTS.get(family, _POSIT_COSTS["add"])
    bits = _float_bits(element)
    bucket = 64 if bits >= 64 else (32 if bits >= 32 else 16)
    if family == "math":
        return _FLOAT_COSTS["math"][bucket]
    return _FLOAT_COSTS.get(family, _FLOAT_COSTS["add"])[bucket]


# Resource classes that constrain scheduling: how many ops of a class can
# issue per cycle before extra units must be instantiated.
SHARABLE_CLASSES = ("mul", "div", "math", "mem")
