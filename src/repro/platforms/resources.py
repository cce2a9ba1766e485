"""FPGA resource vectors: what a device offers and what an operator costs.

A leaf of the platform layer — it imports nothing from ``repro`` — so the
device catalog and the runtime above it describe an FPGA without loading
the HLS engine that fills these tallies in (:mod:`repro.hls.resources`
re-exports both names next to its cost tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class OpCost:
    """Cost of one hardware operator instance."""

    latency: int  # pipeline depth in cycles
    lut: int
    ff: int
    dsp: int = 0
    bram: int = 0


@dataclass
class ResourceBudget:
    """A mutable resource tally (also used for device capacities)."""

    lut: int = 0
    ff: int = 0
    dsp: int = 0
    bram: int = 0
    uram: int = 0

    def add(self, cost: OpCost, count: int = 1) -> None:
        self.lut += cost.lut * count
        self.ff += cost.ff * count
        self.dsp += cost.dsp * count
        self.bram += cost.bram * count

    def fits_in(self, capacity: "ResourceBudget") -> bool:
        return (self.lut <= capacity.lut and self.ff <= capacity.ff
                and self.dsp <= capacity.dsp and self.bram <= capacity.bram)

    def utilization(self, capacity: "ResourceBudget") -> Dict[str, float]:
        return {
            "lut": self.lut / capacity.lut if capacity.lut else 0.0,
            "ff": self.ff / capacity.ff if capacity.ff else 0.0,
            "dsp": self.dsp / capacity.dsp if capacity.dsp else 0.0,
            "bram": self.bram / capacity.bram if capacity.bram else 0.0,
        }

    def scaled(self, factor: int) -> "ResourceBudget":
        return ResourceBudget(self.lut * factor, self.ff * factor,
                              self.dsp * factor, self.bram * factor,
                              self.uram * factor)

    def merged(self, other: "ResourceBudget") -> "ResourceBudget":
        return ResourceBudget(self.lut + other.lut, self.ff + other.ff,
                              self.dsp + other.dsp, self.bram + other.bram,
                              self.uram + other.uram)
