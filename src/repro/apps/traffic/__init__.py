"""Traffic modeling and prediction use case (paper §II-D)."""

from repro.apps.traffic.mapmatch import (
    CandiVector,
    RoadSpeedVector,
    Trellis,
    build_trellis,
    interpolate,
    match_one,
    matching_accuracy,
    projection,
    viterbi,
)
from repro.apps.traffic.models import (
    INTERVALS_PER_DAY,
    GaussianMixture1D,
    SpeedCNN,
    SpeedProfile,
    diurnal_congestion,
)
from repro.apps.traffic.ptdr import (
    SegmentSpeedModel,
    TravelTimeDistribution,
    departure_profile,
    ptdr_montecarlo,
    synthetic_segment_models,
)
from repro.apps.traffic.roadnet import (
    GpsFix,
    RoadNetwork,
    Segment,
    Trajectory,
    generate_fcd,
    origin_destination_matrix,
)

__all__ = [
    "CandiVector",
    "RoadSpeedVector",
    "Trellis",
    "projection",
    "build_trellis",
    "viterbi",
    "interpolate",
    "match_one",
    "matching_accuracy",
    "INTERVALS_PER_DAY",
    "GaussianMixture1D",
    "SpeedCNN",
    "SpeedProfile",
    "diurnal_congestion",
    "SegmentSpeedModel",
    "TravelTimeDistribution",
    "departure_profile",
    "ptdr_montecarlo",
    "synthetic_segment_models",
    "GpsFix",
    "RoadNetwork",
    "Segment",
    "Trajectory",
    "generate_fcd",
    "origin_destination_matrix",
]
