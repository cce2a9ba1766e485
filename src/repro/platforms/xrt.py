"""An XRT-like host runtime for the simulated FPGA devices.

Mirrors the Xilinx Runtime programming model the Alveo nodes use
(paper §III): load an ``xclbin`` (here: a compiled
:class:`~repro.olympus.arch_gen.SystemArchitecture`), allocate buffer
objects, migrate them between host and device, and launch kernels.  All
of one device's timing flows through a :class:`SimClock`, so its timeline
is coherent across transfers and kernel runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import PlatformError
from repro.platforms.device import FPGADevice
from repro.platforms.memory import MemoryChannelModel, PCIeModel


class SimClock:
    """A simulated wall clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0
        self.events: List[tuple] = []

    def advance(self, seconds: float, label: str = "") -> float:
        if seconds < 0:
            raise PlatformError("cannot advance the clock backwards")
        self.now += seconds
        if label:
            self.events.append((self.now, label, seconds))
        return self.now


@dataclass
class BufferObject:
    """A device buffer object (XRT ``xrt::bo`` equivalent)."""

    bo_id: int
    size_bytes: int
    memory_bank: str
    host_data: Optional[np.ndarray] = None
    device_data: Optional[np.ndarray] = None
    resident: bool = False


@dataclass
class KernelHandle:
    """A loaded kernel: its report plus a host-callable implementation."""

    name: str
    cycles: int
    clock_mhz: float
    implementation: Optional[Callable] = None
    invocation_overhead_us: float = 12.0

    @property
    def runtime_seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6) \
            + self.invocation_overhead_us * 1e-6


class XRTDevice:
    """One opened device, XRT style."""

    _ids = itertools.count()

    def __init__(self, device: FPGADevice, clock: Optional[SimClock] = None):
        self.device = device
        self.clock = clock or SimClock()
        if device.pcie_gbps is None:
            raise PlatformError(
                f"{device.name} is network-attached; use repro.dosa"
            )
        self.pcie = PCIeModel(device.pcie_gbps)
        self.memory = MemoryChannelModel(device.default_memory(),
                                         device.clock_mhz)
        self.kernels: Dict[str, KernelHandle] = {}
        self.buffers: Dict[int, BufferObject] = {}
        self.loaded_xclbin: Optional[str] = None
        self.busy_seconds = 0.0

    # -- xclbin ---------------------------------------------------------------

    def load_xclbin(self, name: str,
                    kernels: Dict[str, KernelHandle]) -> None:
        """Program the device ("bitstream configuration", paper §IV)."""
        # Full-device reconfiguration takes tens of ms on Alveo parts.
        self.clock.advance(0.040, f"program {name}")
        self.loaded_xclbin = name
        self.kernels = dict(kernels)

    # -- buffer objects ----------------------------------------------------------

    def alloc_bo(self, size_bytes: int, bank: str = "hbm") -> BufferObject:
        bo = BufferObject(next(self._ids), size_bytes, bank)
        self.buffers[bo.bo_id] = bo
        return bo

    def write_bo(self, bo: BufferObject, data: np.ndarray) -> None:
        if data.nbytes > bo.size_bytes:
            raise PlatformError(
                f"bo {bo.bo_id}: writing {data.nbytes}B into "
                f"{bo.size_bytes}B buffer"
            )
        bo.host_data = np.array(data, copy=True)

    def sync_bo_to_device(self, bo: BufferObject) -> float:
        if bo.host_data is None:
            raise PlatformError(f"bo {bo.bo_id}: nothing written")
        estimate = self.pcie.transfer(bo.host_data.nbytes)
        self.clock.advance(estimate.seconds, f"h2d bo{bo.bo_id}")
        bo.device_data = np.array(bo.host_data, copy=True)
        bo.resident = True
        return estimate.seconds

    def sync_bo_from_device(self, bo: BufferObject) -> float:
        if bo.device_data is None:
            raise PlatformError(f"bo {bo.bo_id}: no device data")
        estimate = self.pcie.transfer(bo.device_data.nbytes)
        self.clock.advance(estimate.seconds, f"d2h bo{bo.bo_id}")
        bo.host_data = np.array(bo.device_data, copy=True)
        return estimate.seconds

    # -- kernel execution -----------------------------------------------------------

    def run(self, kernel_name: str, *buffer_objects: BufferObject,
            host_args: tuple = ()) -> "RunHandle":
        """Launch a kernel on device-resident buffers."""
        if kernel_name not in self.kernels:
            raise PlatformError(
                f"kernel {kernel_name!r} not in loaded xclbin "
                f"{self.loaded_xclbin!r}"
            )
        handle = self.kernels[kernel_name]
        for bo in buffer_objects:
            if not bo.resident:
                raise PlatformError(
                    f"bo {bo.bo_id} not synced to device before launch"
                )
        seconds = handle.runtime_seconds
        self.clock.advance(seconds, f"run {kernel_name}")
        self.busy_seconds += seconds
        outputs = None
        if handle.implementation is not None:
            arrays = [bo.device_data for bo in buffer_objects]
            outputs = handle.implementation(*arrays, *host_args)
        return RunHandle(kernel_name, seconds, outputs)


@dataclass
class RunHandle:
    """Completion record of one kernel launch."""

    kernel: str
    seconds: float
    outputs: object = None

    def wait(self) -> object:
        return self.outputs
