"""Target platform models (paper §III): devices, memories, networks.

The EVEREST nodes carry PCIe-attached AMD Alveo cards (u55c, u280) and
network-attached IBM cloudFPGA nodes on a 10 Gb/s fabric.  Everything is
a timing/resource model — the substitution for real hardware documented
in DESIGN.md.  The runtime engine's event clock is the only simulated
clock.
"""

from repro.platforms.device import (
    CATALOG,
    FPGADevice,
    MemoryChannelSpec,
    alveo_u55c,
    alveo_u280,
    cloudfpga_node,
    device_by_name,
)
from repro.platforms.memory import (
    MemoryChannelModel,
    PLMConfig,
    TransferEstimate,
)
from repro.platforms.network import LinkModel

__all__ = [
    "CATALOG",
    "FPGADevice",
    "MemoryChannelSpec",
    "alveo_u55c",
    "alveo_u280",
    "cloudfpga_node",
    "device_by_name",
    "MemoryChannelModel",
    "PLMConfig",
    "TransferEstimate",
    "LinkModel",
]
