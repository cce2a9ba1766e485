"""Road network and floating-car-data generation (paper §II-D).

The traffic ecosystem consumes "(a) floating car data (FCD) (from mobile
devices used in Sygic navigation) that define vehicle speeds on GPS
positions across the road network; (b) origin-destination matrix data
(ODM) (from mobile operators); (c) meteorological data".  Production FCD
is proprietary — the generator here drives synthetic vehicles over a road
graph and emits noisy GPS fixes *with ground truth*, which additionally
lets the map-matching accuracy be scored (DESIGN.md substitution).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.errors import EverestError


@dataclass(frozen=True)
class Segment:
    """One directed road segment."""

    segment_id: int
    start: Tuple[float, float]
    end: Tuple[float, float]
    speed_limit_ms: float

    @property
    def length_m(self) -> float:
        return float(np.hypot(self.end[0] - self.start[0],
                              self.end[1] - self.start[1]))

    def point_at(self, fraction: float) -> Tuple[float, float]:
        f = min(max(fraction, 0.0), 1.0)
        return (self.start[0] + f * (self.end[0] - self.start[0]),
                self.start[1] + f * (self.end[1] - self.start[1]))

    def project(self, x: float, y: float) -> Tuple[float, float]:
        """(distance, fraction along the segment) of the closest point."""
        dx, dy = (self.end[0] - self.start[0], self.end[1] - self.start[1])
        length2 = dx * dx + dy * dy
        if length2 == 0:
            return float(np.hypot(x - self.start[0], y - self.start[1])), 0.0
        t = ((x - self.start[0]) * dx + (y - self.start[1]) * dy) / length2
        t = min(max(t, 0.0), 1.0)
        px, py = self.start[0] + t * dx, self.start[1] + t * dy
        return float(np.hypot(x - px, y - py)), t


class RoadNetwork:
    """A grid city: the "MapCell" handed to the Fig. 4 pipeline."""

    def __init__(self, rows: int = 8, cols: int = 8,
                 block_m: float = 250.0, seed: int = 0):
        if rows < 2 or cols < 2:
            raise EverestError("network needs at least a 2x2 grid")
        rng = np.random.default_rng(seed)
        self.graph = nx.DiGraph()
        self.segments: Dict[int, Segment] = {}
        self.block_m = block_m
        coords: Dict[Tuple[int, int], Tuple[float, float]] = {}
        for r in range(rows):
            for c in range(cols):
                jitter = rng.normal(0, block_m * 0.05, 2)
                coords[(r, c)] = (c * block_m + jitter[0],
                                  r * block_m + jitter[1])
                self.graph.add_node((r, c), pos=coords[(r, c)])
        sid = 0
        for r in range(rows):
            for c in range(cols):
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr >= rows or cc >= cols:
                        continue
                    limit = float(rng.choice([8.3, 13.9, 13.9, 22.2]))
                    for (a, b) in (((r, c), (rr, cc)), ((rr, cc), (r, c))):
                        seg = Segment(sid, coords[a], coords[b], limit)
                        self.segments[sid] = seg
                        self.graph.add_edge(a, b, segment=sid,
                                            length=seg.length_m)
                        sid += 1

    def segment(self, segment_id: int) -> Segment:
        if segment_id not in self.segments:
            raise EverestError(f"unknown segment {segment_id}")
        return self.segments[segment_id]

    def candidates_near(self, x: float, y: float,
                        radius_m: float = 60.0) -> List[Tuple[int, float,
                                                              float]]:
        """Segments within ``radius_m``: (segment_id, distance, fraction)."""
        found = []
        for seg in self.segments.values():
            distance, fraction = seg.project(x, y)
            if distance <= radius_m:
                found.append((seg.segment_id, distance, fraction))
        found.sort(key=lambda item: item[1])
        return found

    def route_length_m(self, seg_a: int, seg_b: int) -> float:
        """Network distance from the end of ``seg_a`` to the end of
        ``seg_b`` (the transition distance used by the HMM)."""
        if seg_a == seg_b:
            return 0.0
        a_end = self._edge_nodes(seg_a)[1]
        b_end = self._edge_nodes(seg_b)[1]
        try:
            return float(nx.shortest_path_length(
                self.graph, a_end, b_end, weight="length"
            ))
        except nx.NetworkXNoPath:
            return float("inf")

    def _edge_nodes(self, segment_id: int):
        for a, b, data in self.graph.edges(data=True):
            if data["segment"] == segment_id:
                return a, b
        raise EverestError(f"segment {segment_id} not on the graph")

    def random_route(self, rng: np.random.Generator,
                     min_segments: int = 6) -> List[int]:
        """A random simple path, as segment ids."""
        nodes = list(self.graph.nodes)
        for _ in range(200):
            src = nodes[int(rng.integers(len(nodes)))]
            dst = nodes[int(rng.integers(len(nodes)))]
            if src == dst:
                continue
            try:
                path = nx.shortest_path(self.graph, src, dst,
                                        weight="length")
            except nx.NetworkXNoPath:
                continue
            if len(path) - 1 >= min_segments:
                return [self.graph.edges[a, b]["segment"]
                        for a, b in zip(path, path[1:])]
        raise EverestError("could not find a long-enough route")


@dataclass
class GpsFix:
    """One FCD point."""

    x: float
    y: float
    t_seconds: float
    true_segment: int  # ground truth (synthetic data only)


@dataclass
class Trajectory:
    """One vehicle's FCD trace: the Fig. 4 ``GpsVector``."""

    fixes: List[GpsFix]

    def positions(self) -> np.ndarray:
        return np.array([(f.x, f.y) for f in self.fixes])


def generate_fcd(network: RoadNetwork, route: List[int],
                 rng: np.random.Generator, gps_noise_m: float = 15.0,
                 sample_period_s: float = 10.0,
                 congestion: float = 1.0) -> Trajectory:
    """Drive a vehicle along a route, sampling noisy GPS fixes."""
    fixes: List[GpsFix] = []
    t = 0.0
    next_sample = 0.0
    for segment_id in route:
        seg = network.segment(segment_id)
        speed = max(1.5, seg.speed_limit_ms * congestion
                    * rng.uniform(0.6, 1.0))
        duration = seg.length_m / speed
        while next_sample <= t + duration:
            fraction = (next_sample - t) / duration
            px, py = seg.point_at(fraction)
            fixes.append(GpsFix(
                px + rng.normal(0, gps_noise_m),
                py + rng.normal(0, gps_noise_m),
                next_sample, segment_id,
            ))
            next_sample += sample_period_s
        t += duration
    if len(fixes) < 2:
        raise EverestError("trajectory too short; lower the sample period")
    return Trajectory(fixes)

