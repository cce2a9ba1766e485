"""Probabilistic Time-Dependent Routing (PTDR), paper §II-D and §VIII.

"(4) Probabilistic Time Dependent Routing to infer correct arrival times"
— and §VIII: "We also implemented the PTDR kernel on a compute cluster
with Alveo u55c FPGAs".  PTDR samples many Monte-Carlo traversals of a
route; each segment's speed is drawn from its time-dependent distribution
at the simulated arrival time, yielding a travel-time *distribution*
(median, p95...) rather than a point estimate.

The kernel is embarrassingly parallel over samples — exactly why the
project offloaded it;
``tests/claims/test_use_cases.py::test_ptdr_runs_on_the_virtualized_fpga_node``
compares this CPU implementation with the same kernel scheduled by the
runtime engine as an FPGA task, priced with the SR-IOV access-path
overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.apps.traffic.models import (
    INTERVALS_PER_DAY,
    diurnal_congestion,
)
from repro.apps.traffic.roadnet import RoadNetwork
from repro.errors import EverestError


@dataclass
class SegmentSpeedModel:
    """Time-dependent speed distribution of one segment: a per-interval
    (mean, std) table."""

    length_m: float
    interval_mean: np.ndarray  # (96,)
    interval_std: np.ndarray   # (96,)

    def sample_speeds(self, t_seconds: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
        """Vectorized speed draw for an array of arrival times."""
        intervals = (t_seconds // 900).astype(int) % INTERVALS_PER_DAY
        mean = self.interval_mean[intervals]
        std = self.interval_std[intervals]
        return np.clip(rng.normal(mean, std), 0.5, None)


def synthetic_segment_models(network: RoadNetwork, route: Sequence[int],
                             seed: int = 0) -> List[SegmentSpeedModel]:
    """Plausible diurnal speed models for a route (no FCD required)."""
    rng = np.random.default_rng(seed)
    models = []
    intervals = np.arange(INTERVALS_PER_DAY) * 900.0
    for segment_id in route:
        seg = network.segment(segment_id)
        factor = np.array([diurnal_congestion(t) for t in intervals])
        base = seg.speed_limit_ms * rng.uniform(0.75, 0.95)
        mean = base * factor
        models.append(SegmentSpeedModel(
            length_m=seg.length_m,
            interval_mean=mean,
            interval_std=np.maximum(mean * rng.uniform(0.1, 0.25), 0.3),
        ))
    return models


@dataclass
class TravelTimeDistribution:
    """The PTDR output for one departure time."""

    samples_s: np.ndarray

    @property
    def median_s(self) -> float:
        return float(np.median(self.samples_s))

    def percentile_s(self, q: float) -> float:
        return float(np.percentile(self.samples_s, q))

    @property
    def buffer_index(self) -> float:
        """(p95 - median) / median — the planning safety margin."""
        median = self.median_s
        return (self.percentile_s(95) - median) / median if median else 0.0


def ptdr_montecarlo(models: Sequence[SegmentSpeedModel],
                    departure_s: float, samples: int = 1000,
                    seed=0) -> TravelTimeDistribution:
    """Monte-Carlo traversal: all samples advance segment by segment.

    Vectorized over samples: at each segment every sample draws a speed at
    its *own* current clock — the time dependency that distinguishes PTDR
    from a convolution of static distributions.  ``seed`` is anything
    :func:`numpy.random.default_rng` accepts (an int or a
    :class:`numpy.random.SeedSequence`).
    """
    if not models:
        raise EverestError("empty route")
    rng = np.random.default_rng(seed)
    clocks = np.full(samples, departure_s, dtype=np.float64)
    for model in models:
        speeds = model.sample_speeds(clocks, rng)
        clocks += model.length_m / speeds
    return TravelTimeDistribution(clocks - departure_s)


def ptdr_flops_per_sample(models: Sequence[SegmentSpeedModel]) -> int:
    """Rough FLOP count per MC sample (drives the FPGA offload model)."""
    # Per segment: normal draw (~10), divide, add.
    return len(models) * 12
