"""Memory system timing models: device memory channels and on-chip PLMs.

The EVEREST compiler's data-management optimizations (§V-C) all trade
against these models: a DMA transfer's duration depends on channel
bandwidth and the fraction of the bus width actually carrying payload
(which is what Iris-style packing improves); PLM (BRAM) buffers provide
single-cycle access but consume block RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import PlatformError
from repro.platforms.device import MemoryChannelSpec


@dataclass
class TransferEstimate:
    """Timing of one bulk transfer."""

    bytes: int
    seconds: float
    effective_gbps: float
    bus_efficiency: float


class MemoryChannelModel:
    """Timing model of one device memory (HBM stack or DDR bank group)."""

    def __init__(self, spec: MemoryChannelSpec, clock_mhz: float = 300.0):
        self.spec = spec
        self.clock_mhz = clock_mhz

    def transfer(self, num_bytes: int, lanes: int = 1,
                 payload_bits_per_beat: Optional[int] = None
                 ) -> TransferEstimate:
        """Time to move ``num_bytes`` using ``lanes`` parallel channels.

        ``payload_bits_per_beat`` models packing efficiency: a kernel
        reading one f64 per 512-bit beat wastes 7/8 of the bus; packed
        layouts raise the payload towards the full width.
        """
        if num_bytes < 0:
            raise PlatformError("negative transfer size")
        lanes = max(1, min(lanes, self.spec.channels))
        width = self.spec.bus_width_bits
        payload = payload_bits_per_beat or width
        payload = max(1, min(payload, width))
        efficiency = payload / width
        peak = self.spec.bandwidth_gbps * 1e9 * (lanes / self.spec.channels)
        effective = peak * efficiency
        latency = self.spec.latency_cycles / (self.clock_mhz * 1e6)
        seconds = latency + (num_bytes / effective if effective else 0.0)
        return TransferEstimate(num_bytes, seconds,
                                effective / 1e9, efficiency)


@dataclass
class PLMConfig:
    """A private local memory (on-chip buffer) configuration."""

    name: str
    bytes: int
    banks: int = 1
    double_buffered: bool = False

    @property
    def footprint_bytes(self) -> int:
        return self.bytes * (2 if self.double_buffered else 1)

    @property
    def bram_blocks(self) -> int:
        # 18 Kb BRAM = 2304 bytes; banking splits the capacity, double
        # buffering doubles it.
        import math

        per_bank = math.ceil(self.footprint_bytes / max(1, self.banks) / 2304)
        return max(1, per_bank) * max(1, self.banks)

    @property
    def ports(self) -> int:
        """Concurrent accesses per cycle (2 ports per bank on BRAM)."""
        return 2 * max(1, self.banks)

