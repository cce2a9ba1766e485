"""Olympus: platform-aware FPGA system architecture generation (§V-C).

Olympus takes per-kernel HLS reports, a configuration for each and the
FPGA platform description, and generates "a custom infrastructure for
data movement and organization":

* **PLM buffers** for kernel operands, optionally **double-buffered** so
  transfers overlap compute (read/execute/write pipelining), and a
  scratch PLM sized by the compiler's arena plan, where buffers with
  disjoint lifetimes already share bytes (PLM sharing, Pilato et al.);
* **kernel replication** with the memory bus divided into **lanes** so each
  replica gets private bandwidth (Soldavini et al., TRETS 2023);
* **data packing** (Iris, :func:`pack_stream`) raising bus payload
  efficiency.

:meth:`OlympusGenerator.explore` enumerates a kernel's design space; the
pipeline's ``olympus`` stage picks the lowest-latency point and hands it
to :meth:`OlympusGenerator.generate`.  The generated architecture is both
a Python object (:class:`SystemArchitecture`, that stage's product) and
``olympus`` dialect IR; the host side is the ``evp`` deployment sequence
:func:`lower_olympus_to_evp` emits (the Fig. 5 ``olympus -> evp`` edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.dialects import register_lowering
from repro.errors import OlympusError
from repro.hls.resources import ResourceBudget
from repro.hls.synth import KernelReport
from repro.ir import Builder, Module, Operation, types as T
from repro.ir.core import Block, Region
from repro.platforms.device import FPGADevice
from repro.platforms.memory import MemoryChannelModel, PLMConfig


@dataclass
class ArchConfig:
    """One point in Olympus's design space for a single kernel."""

    replicas: int = 1
    double_buffered: bool = True
    packed: bool = True
    plm_banks: int = 2

    def label(self) -> str:
        return (f"r{self.replicas}"
                f"{'_db' if self.double_buffered else ''}"
                f"{'_pack' if self.packed else ''}")


@dataclass
class LatencyBreakdown:
    """Per-invocation timing of one accelerated kernel."""

    transfer_in: float
    compute: float
    transfer_out: float
    double_buffered: bool

    # Tiles processed per invocation under read/execute/write pipelining.
    TILES = 8

    @property
    def total(self) -> float:
        stages = (self.transfer_in, self.compute, self.transfer_out)
        if self.double_buffered:
            # Classic tiled-pipeline makespan with T tiles: each stage is
            # split into T chunks, so  max(s) + (sum(s) - max(s)) / T.
            bottleneck = max(stages)
            return bottleneck + (sum(stages) - bottleneck) / self.TILES
        return sum(stages)


@dataclass
class KernelInstance:
    """A kernel placed on the device with a chosen configuration."""

    report: KernelReport
    config: ArchConfig
    plms: List[PLMConfig] = field(default_factory=list)
    lanes: int = 1
    bus_efficiency: float = 1.0

    @property
    def name(self) -> str:
        return self.report.name

    def resources(self) -> ResourceBudget:
        total = self.report.resources.scaled(self.config.replicas)
        for plm in self.plms:
            total.bram += plm.bram_blocks * self.config.replicas
        return total


@dataclass
class SystemArchitecture:
    """A complete generated FPGA system for one application."""

    name: str
    device: FPGADevice
    instances: List[KernelInstance] = field(default_factory=list)
    estimates: Dict[str, LatencyBreakdown] = field(default_factory=dict)

    def resources(self) -> ResourceBudget:
        total = ResourceBudget()
        for instance in self.instances:
            total = total.merged(instance.resources())
        return total

    def fits(self) -> bool:
        return self.resources().fits_in(self.device.usable_resources())


def pack_stream(element_bits: int, bus_bits: int = 512) -> Tuple[int, float]:
    """Iris-style vector packing of a homogeneous stream (Soldavini et
    al., ASPDAC 2023): elements per bus beat and bus efficiency."""
    if element_bits <= 0:
        raise OlympusError("element width must be positive")
    per_beat = max(1, bus_bits // element_bits)
    efficiency = min(1.0, per_beat * element_bits / bus_bits)
    return per_beat, efficiency


class OlympusGenerator:
    """Generates a :class:`SystemArchitecture` for a set of kernels."""

    def __init__(self, device: FPGADevice):
        self.device = device
        self.memory = MemoryChannelModel(device.default_memory(),
                                         device.clock_mhz)

    # -- estimation --------------------------------------------------------------

    def estimate(self, report: KernelReport,
                 config: ArchConfig) -> Tuple[LatencyBreakdown,
                                              KernelInstance]:
        """Latency and the configured instance for one design point."""
        spec = self.device.default_memory()
        max_lanes = spec.channels
        lanes = min(config.replicas, max_lanes)
        element_bits = report.port_width_bits
        if config.packed:
            _, efficiency = pack_stream(element_bits, spec.bus_width_bits)
            payload = int(spec.bus_width_bits * efficiency)
        else:
            payload = element_bits  # one element per beat
        t_in = self.memory.transfer(report.bytes_in, lanes=lanes,
                                    payload_bits_per_beat=payload).seconds
        t_out = self.memory.transfer(report.bytes_out, lanes=lanes,
                                     payload_bits_per_beat=payload).seconds
        compute = report.latency_seconds / config.replicas
        breakdown = LatencyBreakdown(t_in, compute, t_out,
                                     config.double_buffered)
        plms = [
            PLMConfig("in_tile",
                      max(1, report.bytes_in // max(1, config.replicas)),
                      banks=config.plm_banks,
                      double_buffered=config.double_buffered),
            PLMConfig("out_tile",
                      max(1, report.bytes_out // max(1, config.replicas)),
                      banks=config.plm_banks,
                      double_buffered=config.double_buffered),
        ]
        if report.planned_arena_bytes > 0:
            # Kernel-local scratch sized by the compiler's static arena
            # plan (lifetime-disjoint buffers already share bytes there);
            # never double-buffered — it holds no stream tiles.
            plms.append(PLMConfig("scratch", report.planned_arena_bytes,
                                  banks=1, double_buffered=False))
        instance = KernelInstance(report, config, plms, lanes,
                                  payload / spec.bus_width_bits)
        return breakdown, instance

    # -- design-space exploration -------------------------------------------------

    def candidate_configs(self) -> List[ArchConfig]:
        """The enumeration order of the kernel design space: replicas in
        powers of two up to the device's memory channels."""
        channels = self.device.default_memory().channels
        configs = []
        replicas = 1
        while replicas <= channels:
            for double_buffered in (False, True):
                for packed in (False, True):
                    configs.append(
                        ArchConfig(replicas, double_buffered, packed))
            replicas *= 2
        return configs

    def explore(self, report: KernelReport) -> List[
            Tuple[ArchConfig, LatencyBreakdown, ResourceBudget]]:
        """Enumerate feasible configurations (the kernel's design space),
        in :meth:`candidate_configs` order."""
        budget = self.device.usable_resources()
        points = []
        for config in self.candidate_configs():
            breakdown, instance = self.estimate(report, config)
            resources = instance.resources()
            if resources.fits_in(budget):
                points.append((config, breakdown, resources))
        if not points:
            raise OlympusError(
                f"kernel {report.name} does not fit on {self.device.name} "
                "in any configuration"
            )
        return points

    # -- generation --------------------------------------------------------------

    def generate(self, name: str, reports: List[KernelReport],
                 configs: Dict[str, ArchConfig]) -> SystemArchitecture:
        """Build the system architecture for a set of kernels, each in
        the configuration ``configs`` names for it."""
        system = SystemArchitecture(name, self.device)
        for report in reports:
            config = configs.get(report.name)
            if config is None:
                raise OlympusError(
                    f"system {name}: no configuration for kernel "
                    f"{report.name}")
            breakdown, instance = self.estimate(report, config)
            system.instances.append(instance)
            system.estimates[report.name] = breakdown
        if not system.fits():
            raise OlympusError(
                f"system {name} exceeds {self.device.name} resources: "
                f"{system.resources()}"
            )
        return system

    # -- IR emission ----------------------------------------------------------------

    def emit_ir(self, system: SystemArchitecture) -> Module:
        """Emit the architecture as ``olympus`` dialect IR."""
        module = Module()
        body = Block()
        system_op = Operation.create(
            "olympus.system", [], [],
            {"sym_name": system.name, "platform": system.device.name},
            [Region([body])],
        )
        module.append(system_op)
        builder = Builder.at_end(body)
        for instance in system.instances:
            kernel = builder.create(
                "olympus.kernel", [], [T.NoneOpType()],
                {"callee": instance.name,
                 "replicas": instance.config.replicas,
                 "ii": instance.report.nests[0].ii
                 if instance.report.nests else 1,
                 "cycles": instance.report.total_cycles},
            )
            for plm in instance.plms:
                plm_op = builder.create(
                    "olympus.plm", [], [T.NoneOpType()],
                    {"bytes": plm.bytes, "banks": plm.banks,
                     "double_buffered": plm.double_buffered},
                )
                builder.create(
                    "olympus.dma", [plm_op.results[0], kernel.results[0]], [],
                    {"lanes": instance.lanes},
                )
        return module


# -- Fig. 5 lowering edges ------------------------------------------------------------


@register_lowering("olympus", "evp")
def lower_olympus_to_evp(module: Module, node: str = "node0") -> Module:
    """Emit the EVEREST-platform deployment sequence for a system."""
    out = Module()
    body = Block()
    deploy_region = Operation.create(
        "func.func", [], [],
        {"sym_name": "deployment",
         "function_type": T.FunctionType((), ())},
        [Region([body])],
    )
    out.append(deploy_region)
    builder = Builder.at_end(body)
    for system_op in module.body:
        if system_op.name != "olympus.system":
            continue
        deploy = builder.create(
            "evp.deploy", [], [T.NoneOpType()],
            {"node": node, "system": system_op.attr("sym_name")},
        )
        for op in system_op.regions[0].entry:
            if op.name == "olympus.kernel":
                builder.create(
                    "evp.launch", [], [T.NoneOpType()],
                    {"kernel": op.attr("callee")},
                )
        builder.create("evp.barrier", [], [])
    builder.create("func.return", [], [])
    return out
