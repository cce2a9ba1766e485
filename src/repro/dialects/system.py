"""System-side dialects: ``dfg``, ``olympus`` and ``evp``.

* ``dfg`` — deterministic dataflow graphs produced from ConDRust programs:
  a graph op whose region holds ``dfg.node`` calls wired by SSA values.
* ``olympus`` — system-level FPGA architecture description: kernel
  instances, private local memories (PLMs) and DMA engines, annotated with
  the optimizations Olympus applied.
* ``evp`` — EVEREST platform integration: deployment and kernel launches
  against a concrete node/bitstream.

Fig. 5's ``fsm`` and ``hw`` rungs are not modelled as IR: what the HLS
engine knows about a kernel's controller and datapath is its
:class:`repro.hls.synth.KernelReport`, which Olympus and the runtime read
directly.
"""

from __future__ import annotations

from repro.ir.dialect import VARIADIC, register_dialect


def register() -> None:
    """Register the system-side dialects (idempotent)."""
    dfg = register_dialect("dfg", "deterministic dataflow graphs (ConDRust)")
    if "graph" not in dfg:
        dfg.op("graph", "a dataflow graph; block args are graph inputs",
               num_operands=0, num_results=0, num_regions=1,
               required_attrs={"sym_name": "graph name"},
               traits=("symbol",))
        dfg.op("node", "one dataflow node (a function application)",
               num_results=VARIADIC,
               required_attrs={"callee": "implementation symbol"})
        dfg.op("output", "graph outputs", num_results=0,
               traits=("terminator",))

    olympus = register_dialect("olympus", "system-level FPGA architecture")
    if "system" not in olympus:
        olympus.op("system", "a generated FPGA system architecture",
                   num_operands=0, num_results=0, num_regions=1,
                   required_attrs={"sym_name": "system name",
                                   "platform": "target platform name"},
                   traits=("symbol",))
        olympus.op("kernel", "an instantiated accelerator kernel",
                   num_results=1,
                   required_attrs={"callee": "kernel symbol",
                                   "replicas": "replication factor"})
        olympus.op("plm", "private local memory buffer", num_operands=0,
                   num_results=1,
                   required_attrs={"bytes": "capacity",
                                   "banks": "bank count",
                                   "double_buffered": "ping-pong flag"})
        olympus.op("dma", "DMA engine between memories", num_operands=2,
                   num_results=0,
                   required_attrs={"lanes": "bus lanes used"})

    evp = register_dialect("evp", "EVEREST platform deployment")
    if "deploy" not in evp:
        evp.op("deploy", "program a bitstream onto a node's FPGA",
               num_operands=0, num_results=1,
               required_attrs={"node": "cluster node", "system": "system symbol"})
        evp.op("launch", "launch a deployed kernel", num_results=VARIADIC,
               required_attrs={"kernel": "kernel instance name"})
        evp.op("barrier", "wait for completion", num_results=0)


register()
