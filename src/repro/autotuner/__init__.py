"""Dynamic autotuning: the mARGOt framework (paper §VI-C)."""

from repro.autotuner.margot import (
    Constraint,
    Knob,
    MargotManager,
    Metric,
    MetricMonitor,
    OperatingPoint,
    Rank,
)

__all__ = [
    "Constraint",
    "Knob",
    "MargotManager",
    "Metric",
    "MetricMonitor",
    "OperatingPoint",
    "Rank",
]
