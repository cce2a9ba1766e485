"""DNN partitioning across network-attached FPGAs (the DOSA core).

Splits a sequential model into contiguous per-node partitions balancing
compute (MACs).  One pipeline model times the plan: each rank computes its
partition and sends its activation tensor to the next rank over the
10 Gb/s link (ZRLMPI's hand-off), so throughput is limited by the slowest
stage — compute- or communication-bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.dosa.osa import OperationSet, OSA_CLOUDFPGA, require_coverage
from repro.errors import EverestError
from repro.frontends.onnx_front import Model, run_layer
from repro.platforms.network import LinkModel


@dataclass
class Partition:
    """One contiguous run of layers assigned to one FPGA rank."""

    rank: int
    layer_indices: List[int]
    macs: int
    output_bytes: int


@dataclass
class PartitionPlan:
    """A complete model-to-ranks assignment."""

    model: Model
    partitions: List[Partition]
    operation_set: OperationSet

    @property
    def num_ranks(self) -> int:
        return len(self.partitions)

    def stage_compute_seconds(self, partition: Partition) -> float:
        return self.operation_set.layer_seconds(partition.macs)

    def stage_comm_seconds(self, partition: Partition,
                           link: LinkModel) -> float:
        if partition.rank == self.num_ranks - 1:
            return 0.0
        return link.message_seconds(partition.output_bytes)

    def bottleneck_seconds(self, link: Optional[LinkModel] = None) -> float:
        """Steady-state time per inference (pipeline bottleneck stage)."""
        link = link or LinkModel()
        return max(
            max(self.stage_compute_seconds(p), self.stage_comm_seconds(p, link))
            for p in self.partitions
        )

    def throughput_fps(self, link: Optional[LinkModel] = None) -> float:
        return 1.0 / self.bottleneck_seconds(link)


def partition_model(model: Model, num_ranks: int,
                    operation_set: OperationSet = OSA_CLOUDFPGA
                    ) -> PartitionPlan:
    """Balance contiguous layer runs across ``num_ranks`` by MAC count."""
    if num_ranks < 1:
        raise EverestError("need at least one rank")
    if num_ranks > len(model.layers):
        raise EverestError(
            f"{num_ranks} ranks for {len(model.layers)} layers"
        )
    require_coverage(model, operation_set)
    macs = [model.layer_macs(i) for i in range(len(model.layers))]
    partitions: List[Partition] = []
    start = 0
    running = 0
    rank = 0
    remaining_total = sum(macs)
    for i, layer_macs in enumerate(macs):
        running += layer_macs
        remaining_layers = len(macs) - i - 1
        ranks_after_this = num_ranks - rank - 1
        # Adaptive balance target: remaining work over remaining ranks.
        target = remaining_total / (num_ranks - rank)
        must_close = remaining_layers == ranks_after_this
        want_close = (running >= target and ranks_after_this > 0
                      and remaining_layers >= ranks_after_this)
        if (must_close or want_close) and ranks_after_this >= 0 \
                and rank < num_ranks - 1:
            out_shape = model.shape_after(i)
            partitions.append(Partition(
                rank, list(range(start, i + 1)), running,
                int(np.prod(out_shape)) * 4,  # f32 activations
            ))
            remaining_total -= running
            rank += 1
            start = i + 1
            running = 0
    out_shape = model.output_shape()
    partitions.append(Partition(
        rank, list(range(start, len(macs))), running,
        int(np.prod(out_shape)) * 4,
    ))
    if len(partitions) != num_ranks:
        raise EverestError(
            f"partitioning produced {len(partitions)} ranks, "
            f"wanted {num_ranks}"
        )
    return PartitionPlan(model, partitions, operation_set)


def simulate_pipeline(plan: PartitionPlan, batch: List[np.ndarray],
                      link: Optional[LinkModel] = None) -> dict:
    """Functionally execute a batch through the partitioned pipeline.

    Each sample runs partition by partition through ``run_layer``, so the
    outputs are bit-identical to single-node inference.  The timing is the
    plan's pipeline model: the first sample crosses every stage, and each
    later one finishes one bottleneck stage after the one before it.
    """
    link = link or LinkModel()
    outputs: List[np.ndarray] = []
    for sample in batch:
        activation = sample
        for partition in plan.partitions:
            for layer_index in partition.layer_indices:
                activation = run_layer(plan.model.layers[layer_index],
                                       activation)
        outputs.append(activation)
    n = len(batch)
    first = sum(
        plan.stage_compute_seconds(p) + plan.stage_comm_seconds(p, link)
        for p in plan.partitions
    )
    makespan = first + (n - 1) * plan.bottleneck_seconds(link) if n else 0.0
    return {
        "outputs": outputs,
        "makespan_seconds": makespan,
        "messages": (plan.num_ranks - 1) * n,
        "bytes_on_wire": n * sum(p.output_bytes for p in plan.partitions[:-1]),
        "throughput_fps": n / makespan if makespan else float("inf"),
    }
