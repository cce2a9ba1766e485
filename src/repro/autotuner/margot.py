"""mARGOt: the EVEREST dynamic autotuning framework (paper §VI-C).

mARGOt (Gadioli et al., IEEE TC 2019) selects, at run time, the best
*configuration* of an application from a list of known **operating
points**.  The vocabulary maps directly onto the paper's description:

* **knobs** — variables the library controls (application parameters or
  code variants, e.g. ``variant = cpu | fpga``, ``tile = 64``);
* **metrics** — observable properties (execution time, energy, error);
* **operating points** — knob settings with their *expected* metric values
  (from design-space exploration or profiling);
* **constraints** — prioritized bounds on metrics ("time ≤ 100 ms");
* **rank** — the objective used to order feasible points;
* **monitors** — runtime windows of observed metrics; the manager scales
  its expectations by the observed/expected ratio, which is how adaptation
  to the *execution environment* (CPU load, missing FPGA, data features)
  happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import AutotunerError


@dataclass(frozen=True)
class Knob:
    """One tunable variable and its admissible values."""

    name: str
    values: tuple

    def __post_init__(self) -> None:
        if not self.values:
            raise AutotunerError(f"knob {self.name!r} has no values")


@dataclass(frozen=True)
class Metric:
    """One observable property; ``minimize`` orients comparisons."""

    name: str
    minimize: bool = True


@dataclass
class OperatingPoint:
    """A configuration: knob settings plus expected metric values."""

    knobs: Dict[str, object]
    metrics: Dict[str, float]


@dataclass
class Constraint:
    """A prioritized bound on one metric (lower priority number = harder)."""

    metric: str
    upper_bound: Optional[float] = None
    lower_bound: Optional[float] = None
    priority: int = 1

    def satisfied(self, value: float) -> bool:
        if self.upper_bound is not None and value > self.upper_bound:
            return False
        if self.lower_bound is not None and value < self.lower_bound:
            return False
        return True


@dataclass
class Rank:
    """The objective: a weighted combination of metrics to minimize."""

    weights: Dict[str, float]

    def score(self, metrics: Dict[str, float]) -> float:
        try:
            return sum(w * metrics[m] for m, w in self.weights.items())
        except KeyError as missing:
            raise AutotunerError(f"rank references unknown metric {missing}")


class MetricMonitor:
    """A sliding-window monitor of one observed metric."""

    def __init__(self, name: str, window: int = 16):
        if window < 1:
            raise AutotunerError("monitor window must be positive")
        self.name = name
        self.window = window
        self.samples: List[float] = []

    def push(self, value: float) -> None:
        self.samples.append(float(value))
        if len(self.samples) > self.window:
            self.samples.pop(0)

    @property
    def average(self) -> Optional[float]:
        if not self.samples:
            return None
        return sum(self.samples) / len(self.samples)


class MargotManager:
    """The application-level autotuner instance.

    >>> manager = MargotManager(knowledge=op_list)
    >>> manager.add_constraint(Constraint("time_ms", upper_bound=50.0))
    >>> manager.set_rank(Rank({"energy_j": 1.0}))
    >>> config = manager.update()          # best feasible operating point
    >>> manager.observe("time_ms", 61.0)   # runtime feedback
    >>> config = manager.update()          # may switch variant
    """

    def __init__(self, knowledge: Sequence[OperatingPoint],
                 window: int = 16):
        if not knowledge:
            raise AutotunerError("the operating-point list is empty")
        self.knowledge: List[OperatingPoint] = list(knowledge)
        self.constraints: List[Constraint] = []
        self.rank = Rank({name: 1.0
                          for name in self.knowledge[0].metrics})
        self.monitors: Dict[str, MetricMonitor] = {}
        self.window = window
        self.current: Optional[OperatingPoint] = None
        # Per-metric calibration: observed / expected for the current point.
        self.calibration: Dict[str, float] = {}
        self.switches = 0

    # -- configuration -----------------------------------------------------------

    def add_constraint(self, constraint: Constraint) -> "MargotManager":
        self.constraints.append(constraint)
        self.constraints.sort(key=lambda c: c.priority)
        return self

    def set_rank(self, rank: Rank) -> "MargotManager":
        self.rank = rank
        return self

    # -- runtime feedback -----------------------------------------------------------

    def observe(self, metric: str, value: float) -> None:
        """Push one observation of a metric for the *current* point."""
        monitor = self.monitors.setdefault(
            metric, MetricMonitor(metric, self.window)
        )
        monitor.push(value)
        if self.current is not None and metric in self.current.metrics:
            expected = self.current.metrics[metric]
            if expected > 0 and monitor.average:
                self.calibration[metric] = monitor.average / expected

    def expected_metrics(self, point: OperatingPoint) -> Dict[str, float]:
        """The point's metrics scaled by runtime calibration factors."""
        return {
            name: value * self.calibration.get(name, 1.0)
            for name, value in point.metrics.items()
        }

    # -- the decision ------------------------------------------------------------------

    def update(self) -> OperatingPoint:
        """Select the best operating point for the current environment.

        Constraints are applied in priority order; when no point satisfies
        them all, the lowest-priority constraints are relaxed first (the
        mARGOt fallback semantics).
        """
        candidates = list(self.knowledge)
        applied: List[Constraint] = []
        for constraint in self.constraints:
            narrowed = [
                p for p in candidates
                if constraint.satisfied(
                    self.expected_metrics(p).get(constraint.metric,
                                                 float("inf")))
            ]
            if narrowed:
                candidates = narrowed
                applied.append(constraint)
            # else: relax this constraint (keep previous candidate set).
        best = min(candidates,
                   key=lambda p: self.rank.score(self.expected_metrics(p)))
        if self.current is not None and best is not self.current:
            self.switches += 1
        self.current = best
        return best

