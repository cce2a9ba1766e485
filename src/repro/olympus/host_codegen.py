"""Host-code generation: the driver side of an Olympus architecture.

Olympus generates "host code drivers to move data from host to device and
initiate execution on the device" (§V-C).  Here the driver is generated as
executable Python source against the XRT-like API — and as a ready-made
callable (:func:`build_driver`) wired to a simulated device.  Only the
tests call it: the runtime engine prices an FPGA task with its own cost
model and never runs this host code.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.olympus.arch_gen import SystemArchitecture
from repro.platforms.xrt import KernelHandle, SimClock, XRTDevice


def generate_driver_source(system: SystemArchitecture) -> str:
    """Generate the host driver as Python source text."""
    lines = [
        '"""Auto-generated by Olympus: host driver for '
        f'{system.name} on {system.device.name}."""',
        "",
        "import numpy as np",
        "from repro.platforms import XRTDevice, KernelHandle, SimClock,"
        " device_by_name",
        "",
        "",
        f"def run(inputs, kernels):",
        f"    device = XRTDevice(device_by_name({system.device.name!r}),"
        " SimClock())",
        f"    device.load_xclbin({system.name!r}, kernels)",
        "    results = {}",
    ]
    for instance in system.instances:
        name = instance.name
        lines.extend([
            f"    # kernel {name}: x{instance.config.replicas} replicas, "
            f"{instance.lanes} lanes, "
            f"{'double-buffered' if instance.config.double_buffered else 'single-buffered'}",
            f"    bo_in = device.alloc_bo({instance.report.bytes_in})",
            f"    device.write_bo(bo_in, inputs[{name!r}])",
            "    device.sync_bo_to_device(bo_in)",
            f"    bo_out = device.alloc_bo({instance.report.bytes_out})",
            "    bo_out.device_data = np.zeros("
            f"{max(1, instance.report.bytes_out // 8)})",
            "    bo_out.resident = True",
            f"    run_handle = device.run({name!r}, bo_in, bo_out)",
            "    device.sync_bo_from_device(bo_out)",
            f"    results[{name!r}] = run_handle.outputs",
        ])
    lines.append("    return results, device.clock.now")
    return "\n".join(lines) + "\n"


def build_driver(system: SystemArchitecture,
                 implementations: Optional[Dict[str, Callable]] = None,
                 clock: Optional[SimClock] = None) -> Callable:
    """Build a callable host driver bound to a simulated device.

    The returned function takes ``{kernel_name: input_array}`` and returns
    ``(outputs, elapsed_simulated_seconds)``.  Kernel functional behaviour
    comes from ``implementations`` (e.g. the EKL interpreter); timing comes
    from the HLS reports and the Olympus latency model.
    """
    clock = clock or SimClock()
    device = XRTDevice(system.device, clock)
    handles = {}
    for instance in system.instances:
        impl = (implementations or {}).get(instance.name)
        # Replication divides the effective cycle count (data parallelism).
        cycles = instance.report.total_cycles // instance.config.replicas
        handles[instance.name] = KernelHandle(
            instance.name, cycles, system.device.clock_mhz, impl
        )
    device.load_xclbin(system.name, handles)

    def run(inputs: Dict[str, np.ndarray]):
        start = clock.now
        results = {}
        for instance in system.instances:
            name = instance.name
            data = np.asarray(inputs[name])
            bo_in = device.alloc_bo(max(data.nbytes, 1))
            device.write_bo(bo_in, data)
            device.sync_bo_to_device(bo_in)
            bo_out = device.alloc_bo(max(instance.report.bytes_out, 1))
            bo_out.device_data = np.zeros(
                max(1, instance.report.bytes_out // 8)
            )
            bo_out.resident = True
            handle = device.run(name, bo_in, bo_out)
            device.sync_bo_from_device(bo_out)
            results[name] = handle.outputs
        return results, clock.now - start

    run.device = device  # expose for inspection in tests
    return run
