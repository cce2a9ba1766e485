"""The traffic model's time base: 15-minute intervals over a weekday.

Paper §II-D: the traffic model is "(a) macroscopic parameters for each
road segment (speed, flow, intensity) for each 15-minute interval over a
weekday and (b) coefficients of the prediction model for each road
segment".  Here those parameters are the per-interval speed tables of
:class:`~repro.apps.traffic.ptdr.SegmentSpeedModel`, shaped by
:func:`diurnal_congestion`.
"""

from __future__ import annotations

import numpy as np

INTERVALS_PER_DAY = 96  # 15-minute bins


def diurnal_congestion(t_seconds: float) -> float:
    """A weekday congestion factor: morning and evening peaks."""
    hour = (t_seconds / 3600.0) % 24
    morning = np.exp(-0.5 * ((hour - 8.0) / 1.2)**2)
    evening = np.exp(-0.5 * ((hour - 17.5) / 1.5)**2)
    return float(1.0 - 0.45 * max(morning, evening))
