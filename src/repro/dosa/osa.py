"""Operation Set Architectures (OSA).

Ringlein et al. ("Advancing Compilation of DNNs for FPGAs using Operation
Set Architectures", IEEE CAL 2023) propose treating the set of operations a
DNN accelerator implements like an ISA: a compiler can then target any
engine that *covers* the model's operation set.  The paper uses this level
(the ``jabbah`` dialect) to converge ML frontends and to distribute models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List

from repro.errors import EverestError
from repro.frontends.onnx_front import Model


@dataclass(frozen=True)
class OperationSet:
    """The operation set one accelerator engine implements."""

    name: str
    ops: FrozenSet[str]
    # Sustained throughput per op kind, in MACs per cycle.
    macs_per_cycle: int = 64
    clock_mhz: float = 156.0

    def layer_seconds(self, macs: int) -> float:
        cycles = macs / self.macs_per_cycle
        return cycles / (self.clock_mhz * 1e6)


# The operation set of the cloudFPGA DNN engine (conv-centric inference set).
OSA_CLOUDFPGA = OperationSet(
    name="cloudfpga-haddoc-like",
    ops=frozenset({"conv2d", "relu", "maxpool2", "flatten", "dense"}),
    macs_per_cycle=64,
    clock_mhz=156.0,
)


def coverage(model: Model, operation_set: OperationSet) -> Dict[str, bool]:
    """Which model layers the operation set covers."""
    return {layer.name: layer.kind in operation_set.ops
            for layer in model.layers}


def require_coverage(model: Model, operation_set: OperationSet) -> None:
    missing: List[str] = [
        layer.name for layer in model.layers
        if layer.kind not in operation_set.ops
    ]
    if missing:
        raise EverestError(
            f"operation set {operation_set.name!r} does not cover: {missing}"
        )
