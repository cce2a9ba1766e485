"""FPGA device catalog: the EVEREST target platforms (paper §III).

Models the three device families the project deployed on:

* **AMD Alveo u55c / u280** — PCIe-attached data-center cards with HBM2,
  driven through the Xilinx Runtime (XRT);
* **IBM cloudFPGA** — network-attached FPGAs connected directly to a
  10 Gb/s TCP/UDP network stack (no host CPU in the data path).

Resource counts follow the public data sheets; they gate Olympus's
replication decisions and the runtime's placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import PlatformError
from repro.platforms.resources import ResourceBudget


@dataclass(frozen=True)
class MemoryChannelSpec:
    """One external memory system attached to the FPGA."""

    kind: str  # "hbm" | "ddr"
    channels: int
    bytes_per_channel: int
    bandwidth_gbps: float  # aggregate, GB/s
    latency_cycles: int
    bus_width_bits: int = 512


@dataclass(frozen=True)
class FPGADevice:
    """A concrete FPGA card model."""

    name: str
    resources: ResourceBudget
    memories: Dict[str, MemoryChannelSpec]
    clock_mhz: float = 300.0
    # Host attachment: PCIe bandwidth, or None for network-attached parts.
    pcie_gbps: Optional[float] = None
    network_gbps: Optional[float] = None
    shell_overhead: ResourceBudget = field(
        default_factory=lambda: ResourceBudget(lut=120_000, ff=160_000,
                                               dsp=0, bram=200)
    )

    @property
    def is_network_attached(self) -> bool:
        return self.network_gbps is not None and self.pcie_gbps is None

    def usable_resources(self) -> ResourceBudget:
        """Device resources after the static shell is subtracted."""
        return ResourceBudget(
            lut=self.resources.lut - self.shell_overhead.lut,
            ff=self.resources.ff - self.shell_overhead.ff,
            dsp=self.resources.dsp - self.shell_overhead.dsp,
            bram=self.resources.bram - self.shell_overhead.bram,
            uram=self.resources.uram,
        )

    def default_memory(self) -> MemoryChannelSpec:
        for preferred in ("hbm", "ddr"):
            if preferred in self.memories:
                return self.memories[preferred]
        return next(iter(self.memories.values()))


def alveo_u55c() -> FPGADevice:
    """AMD Alveo u55c: 16 GB HBM2, PCIe Gen3 x16."""
    return FPGADevice(
        name="alveo-u55c",
        resources=ResourceBudget(lut=1_304_000, ff=2_607_000, dsp=9024,
                                 bram=4032, uram=960),
        memories={
            "hbm": MemoryChannelSpec("hbm", 32, 512 * 2**20, 460.0, 120),
        },
        clock_mhz=300.0,
        pcie_gbps=16.0,
    )


def alveo_u280() -> FPGADevice:
    """AMD Alveo u280: 8 GB HBM2 plus 32 GB DDR4."""
    return FPGADevice(
        name="alveo-u280",
        resources=ResourceBudget(lut=1_079_000, ff=2_607_000, dsp=9024,
                                 bram=4032, uram=960),
        memories={
            "hbm": MemoryChannelSpec("hbm", 32, 256 * 2**20, 460.0, 120),
            "ddr": MemoryChannelSpec("ddr", 2, 16 * 2**30, 38.0, 200,
                                     bus_width_bits=512),
        },
        clock_mhz=300.0,
        pcie_gbps=16.0,
    )


def cloudfpga_node() -> FPGADevice:
    """IBM cloudFPGA node (Kintex UltraScale KU060, network-attached)."""
    return FPGADevice(
        name="cloudfpga-ku060",
        resources=ResourceBudget(lut=331_000, ff=663_000, dsp=2760,
                                 bram=2160, uram=0),
        memories={
            "ddr": MemoryChannelSpec("ddr", 2, 4 * 2**30, 19.0, 200),
        },
        clock_mhz=156.0,
        pcie_gbps=None,
        network_gbps=10.0,
        shell_overhead=ResourceBudget(lut=60_000, ff=90_000, dsp=0, bram=150),
    )


CATALOG = {
    "alveo-u55c": alveo_u55c,
    "alveo-u280": alveo_u280,
    "cloudfpga-ku060": cloudfpga_node,
}


def device_by_name(name: str) -> FPGADevice:
    """Look a device up in the catalog."""
    if name not in CATALOG:
        raise PlatformError(
            f"unknown device {name!r}; available: {sorted(CATALOG)}"
        )
    return CATALOG[name]()
