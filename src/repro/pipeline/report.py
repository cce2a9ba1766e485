"""Structured per-stage instrumentation of a pipeline session.

Every stage execution (or cache hit) appends a :class:`StageTiming` event
to the session's :class:`PipelineReport` — the SDK-level analogue of the
per-kernel :class:`repro.hls.KernelReport`.  The report answers "where did
this compile spend its time, and what did the cache save?".
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict


@dataclass
class StageTiming:
    """One stage execution event.

    ``aux`` marks informational sub-events (e.g. the per-pass timings the
    ``canonicalize`` stage emits); they appear in summaries but do not
    count toward the stage cache statistics or the total.
    """

    stage: str
    seconds: float
    cached: bool
    detail: str = ""
    aux: bool = False


#: How many events a report keeps.  A daemon's shared session records
#: four or five per request and nothing there reads them back, so the
#: store must not grow with uptime; one compile is a few dozen events.
MAX_EVENTS = 4096


@dataclass
class PipelineReport:
    """The timing/caching record of one session: its latest
    :data:`MAX_EVENTS` events, oldest dropped first.  Totals, hit/miss
    counts, :meth:`summary` and :meth:`as_dict` cover the events kept
    (``session.cache.stats`` counts every lookup since the start)."""

    events: Deque[StageTiming] = field(
        default_factory=lambda: deque(maxlen=MAX_EVENTS))

    def record(self, stage: str, seconds: float, *, cached: bool,
               detail: str = "", aux: bool = False) -> StageTiming:
        event = StageTiming(stage, seconds, cached, detail, aux)
        self.events.append(event)
        return event

    @property
    def total_seconds(self) -> float:
        return sum(e.seconds for e in self.events if not e.aux)

    @property
    def cache_hits(self) -> int:
        return sum(1 for e in self.events if e.cached and not e.aux)

    @property
    def cache_misses(self) -> int:
        return sum(1 for e in self.events if not e.cached and not e.aux)

    def stage_seconds(self) -> Dict[str, float]:
        """Total executed (non-cached) seconds per stage name."""
        totals: Dict[str, float] = {}
        for event in self.events:
            if not event.cached and not event.aux:
                totals[event.stage] = totals.get(event.stage, 0.0) \
                    + event.seconds
        return totals

    def as_dict(self) -> Dict[str, Any]:
        return {
            "total_seconds": self.total_seconds,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "events": [
                {"stage": e.stage, "seconds": e.seconds, "cached": e.cached,
                 "detail": e.detail, "aux": e.aux}
                for e in self.events
            ],
        }

    def summary(self) -> str:
        lines = [
            f"pipeline: {len(self.events)} stage events, "
            f"{self.total_seconds * 1e3:.1f} ms executed, "
            f"{self.cache_hits} cache hits / {self.cache_misses} misses"
        ]
        for event in self.events:
            mark = "cache" if event.cached else f"{event.seconds * 1e3:8.2f}ms"
            detail = f"  ({event.detail})" if event.detail else ""
            lines.append(f"  {event.stage:18s} {mark:>10s}{detail}")
        return "\n".join(lines)


class StageClock:
    """Context manager measuring one stage execution."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __enter__(self) -> "StageClock":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start
