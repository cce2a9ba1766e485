"""Estimators: pure functions from raw samples to the reported numbers.

Nothing here reads a clock or imports the program, so every rule the
benchmark's numbers depend on is unit-tested in ``bench/tests``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: Times of the two parts of :func:`bench.loadgen.calibrate` at the
#: reference host speed: (compute, native).  Latencies are reported as if
#: the host always ran at this speed; the constants only fix the unit, a
#: comparison of two commits cancels them.
CAL_REF_MS = (3.5, 3.0)

#: Percentiles a tail may be reported at, highest first, each with the
#: per-mille of samples beyond it (integers: the rule is exact).
TAIL_PERCENTILES = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100),
                    (75.0, 250))


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values`` (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(len(ordered), rank) - 1]


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than 40 samples not even p75 qualifies and the median is
    all the sample supports.
    """
    for percentile, beyond_per_mille in TAIL_PERCENTILES:
        if samples * beyond_per_mille >= 10 * 1000:
            return percentile
    return 50.0


#: (compute, native) calibration times, or (user, system) CPU time.
Pair = Tuple[float, float]


def host_speed(calibrations_s: Sequence[Pair], native: bool) -> float:
    """Reference calibration time / median measured one (below 1: the
    host is slower than the reference), of the part that resembles the
    workload: the ``native`` one where an op runs compiled loops over
    arrays, the compute one where it runs the interpreter.
    """
    part = 1 if native else 0
    return CAL_REF_MS[part] / 1e3 / statistics.median(
        calibration[part] for calibration in calibrations_s)


def normalise(seconds: float, speed: float, busy: float) -> float:
    """Rescale the CPU-busy part of an interval to reference host speed.

    ``busy`` is the fraction of the interval the process spent on a CPU.
    Time spent waiting (timers, sockets) does not shrink on a faster host
    and is left as wall time.
    """
    busy = min(1.0, busy)  # above 1: several busy threads
    return seconds * (busy * speed + 1.0 - busy)


def mix_latency(latencies_s: Sequence[float], kinds: Sequence[int]) -> float:
    """Median latency of each kind of op, averaged over the ops run.

    Ops of one kind do the same work, kinds differ (a 6- and a
    10-statement kernel); taking the median within a kind keeps which
    kinds happened to be sampled from moving the result.
    """
    by_kind: Dict[int, List[float]] = {}
    for latency, kind in zip(latencies_s, kinds):
        by_kind.setdefault(kind, []).append(latency)
    return sum(len(group) * statistics.median(group)
               for group in by_kind.values()) / len(latencies_s)


@dataclass
class Segment:
    """About 100 ms of ops bracketed by two calibrations."""

    latencies_s: List[float]
    kinds: List[int]
    cal_before_s: Pair
    cal_after_s: Pair
    cpu_s: Pair           # user and system CPU time of the ops
    wall_s: float


@dataclass
class Summary:
    """What a run of segments (a round, or one mode of the traced child)
    reduces to."""

    op_ms: float          # mix latency at reference host speed
    op_ms_raw: float      # the same, as the wall clock read it
    speed: float          # of the host, by the workload's kind of work
    shares: Pair          # user and system CPU time / wall time


def summarise(segments: Sequence[Segment], native: bool) -> Summary:
    """Normalise the mix latency of ``segments`` by the host speed and
    CPU share measured over the same stretch of time.

    Interference on this host comes in bursts shorter than a segment, so a
    single calibration says little about the ops next to it; the medians
    of ops and of calibrations over the same seconds do move together.
    """
    raw = mix_latency(
        [s for segment in segments for s in segment.latencies_s],
        [k for segment in segments for k in segment.kinds])
    speed = host_speed([segment.cal_before_s for segment in segments]
                       + [segments[-1].cal_after_s], native)
    wall = sum(segment.wall_s for segment in segments)
    shares = tuple(sum(segment.cpu_s[part] for segment in segments) / wall
                   for part in (0, 1))
    return Summary(1e3 * normalise(raw, speed, sum(shares)), 1e3 * raw,
                   speed, shares)


def spread(values: Sequence[float]) -> float:
    """(max − min) / median: the benchmark's own noise report."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


# -- span trees ----------------------------------------------------------------

#: (span id, parent id, name, start, end); parent 0 is "no parent".
SpanRow = Tuple[int, int, str, float, float]


def _covered(intervals: Iterable[Tuple[float, float]],
             lower: float, upper: float) -> float:
    """Length of the union of ``intervals`` clipped to [lower, upper]."""
    total = 0.0
    reach = lower
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, upper)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[SpanRow]) -> Dict[int, float]:
    """Per span id: its duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        span_id: (end - start) - _covered(children.get(span_id, ()),
                                          start, end)
        for span_id, _, _, start, end in spans
    }


def self_time_by_name(spans: Sequence[SpanRow]) -> Dict[str, float]:
    """Total self time per span name; sums to the roots' durations."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span_id, _, name, _, _ in spans:
        totals[name] = totals.get(name, 0.0) + own[span_id]
    return totals
