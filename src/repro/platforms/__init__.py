"""Target platform models (paper §III): devices, memories, networks, XRT.

The EVEREST nodes carry PCIe-attached AMD Alveo cards (u55c, u280, driven
by an XRT-like API) and network-attached IBM cloudFPGA nodes on a 10 Gb/s
fabric.  Everything is a timing/resource model — the substitution for real
hardware documented in DESIGN.md.  A :class:`SimClock` times one XRT
device's transfers and kernel runs; the runtime engine keeps its own event
clock for the cluster.
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
    PCIeModel,
    PLMConfig,
    TransferEstimate,
)
from repro.platforms.network import LinkModel
from repro.platforms.xrt import (
    BufferObject,
    KernelHandle,
    RunHandle,
    SimClock,
    XRTDevice,
)

__all__ = [
    "CATALOG",
    "FPGADevice",
    "MemoryChannelSpec",
    "alveo_u55c",
    "alveo_u280",
    "cloudfpga_node",
    "device_by_name",
    "MemoryChannelModel",
    "PCIeModel",
    "PLMConfig",
    "TransferEstimate",
    "LinkModel",
    "BufferObject",
    "KernelHandle",
    "RunHandle",
    "SimClock",
    "XRTDevice",
]
