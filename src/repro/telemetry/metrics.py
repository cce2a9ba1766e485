"""A thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-style data model, stdlib-only implementation:

* metric names match ``[a-zA-Z_:][a-zA-Z0-9_:]*`` and carry a help
  string and a fixed tuple of label *names*;
* each distinct label-*value* tuple owns an independent child series;
* counters only go up, gauges go anywhere, histograms count
  observations into fixed upper-bound buckets (plus the implicit
  ``+Inf``) and keep a running sum.

Every mutation takes the owning metric's lock, so concurrent writers
(serve handler threads, tile workers) never lose increments — the test
suite hammers one counter from 8 threads and asserts the exact total.
Rendering to Prometheus text exposition lives in
:mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import EverestError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram upper bounds (seconds-flavored, serve latencies).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)

LabelKey = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise EverestError(
            f"invalid metric name {name!r} (want [a-zA-Z_:][a-zA-Z0-9_:]*)")
    return name


def _check_labels(labels: Sequence[str]) -> Tuple[str, ...]:
    for label in labels:
        if not _LABEL_RE.match(label):
            raise EverestError(
                f"invalid label name {label!r} "
                "(want [a-zA-Z_][a-zA-Z0-9_]*)")
    return tuple(labels)


class Metric:
    """Common machinery: name/help/label bookkeeping + child locking."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.label_names = _check_labels(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, object]) -> LabelKey:
        if set(labels) != set(self.label_names):
            raise EverestError(
                f"metric {self.name!r} wants labels "
                f"{list(self.label_names)}, got {sorted(labels)}")
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(Metric):
    """A monotonically increasing series per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise EverestError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """Sum over every label set (the un-labeled marginal)."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            items = list(self._values.items())
        return [(dict(zip(self.label_names, key)), value)
                for key, value in items]


class Gauge(Metric):
    """A freely settable value per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            items = list(self._values.items())
        return [(dict(zip(self.label_names, key)), value)
                for key, value in items]


class _HistogramSeries:
    """One label set's state: bucket counts, running sum, total count."""

    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket distribution of observations per label set.

    ``buckets`` are the finite upper bounds (``le``); observations above
    the last bound only land in the implicit ``+Inf`` bucket.  Bucket
    counts are *cumulative* when rendered (Prometheus semantics) but
    stored per-interval internally.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b != b for b in bounds) \
                or list(bounds) != sorted(set(bounds)):
            raise EverestError(
                f"histogram {name!r} wants strictly increasing finite "
                f"buckets, got {list(buckets)!r}")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]  # +Inf is always implicit
        self.buckets = bounds
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets) + 1)
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            series.counts[index] += 1
            series.sum += value
            series.count += 1

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series.count if series is not None else 0

    def total_count(self) -> int:
        with self._lock:
            return sum(s.count for s in self._series.values())

    def sum_value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series.sum if series is not None else 0.0

    def cumulative_buckets(
            self, **labels: object
    ) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            counts = list(series.counts) if series is not None \
                else [0] * (len(self.buckets) + 1)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def samples(self) -> List[Tuple[Dict[str, str], _HistogramSeries]]:
        with self._lock:
            items = [(key, series) for key, series in self._series.items()]
        return [(dict(zip(self.label_names, key)), series)
                for key, series in items]


class MetricsRegistry:
    """A named collection of metrics; creation is idempotent.

    Asking for an existing name returns the existing instance when the
    kind and label names agree, and raises otherwise — two subsystems
    can safely share ``repro_cbackend_cc_total`` without coordination.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls: type, name: str, help: str,
                       labels: Sequence[str],
                       **kwargs: object) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) \
                        or existing.label_names != tuple(labels):
                    raise EverestError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels "
                        f"{list(existing.label_names)}")
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        metric = self._get_or_create(Counter, name, help, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        metric = self._get_or_create(Gauge, name, help, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get_or_create(Histogram, name, help, labels,
                                     buckets=tuple(buckets))
        assert isinstance(metric, Histogram)
        return metric

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[Metric]:
        """Registered metrics in name order (for exposition)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._metrics

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (codegen/cbackend/engine use it;
    each serve daemon additionally owns a private one)."""
    return _GLOBAL


def registries(*extra: MetricsRegistry) -> Iterable[MetricsRegistry]:
    """The default registry plus any service-private ones, deduplicated."""
    seen: List[MetricsRegistry] = []
    for registry in (*extra, _GLOBAL):
        if not any(registry is s for s in seen):
            seen.append(registry)
    return seen
