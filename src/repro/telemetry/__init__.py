"""Unified telemetry: hierarchical tracing + a metrics registry.

The SDK paper leans on runtime monitoring to drive adaptation (§VI); this
package is the reproduction's cross-layer observability spine.  Three
pieces, all stdlib-only and near-free when disabled:

* :mod:`repro.telemetry.trace` — hierarchical spans over a monotonic
  ``perf_counter`` clock (or the runtime engine's *simulated* clock),
  with a context-propagated current span.  The default tracer is a
  no-op singleton; ``basecamp pipeline``, ``run`` and ``runtime`` (and
  embedding code via :func:`enable`) install a recording one.
* :mod:`repro.telemetry.metrics` — a thread-safe registry of counters,
  gauges and fixed-bucket histograms (Prometheus-style naming); the
  serve daemon's ``/stats`` and ``GET /metrics`` are both views of it.
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (loads in
  Perfetto), the pipeline's stage table and Prometheus text exposition.

See ``docs/observability.md`` for the span model and naming rules.
"""

from repro.telemetry.log import (
    configure_logging,
    get_logger,
    kv,
    resolve_level,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.telemetry.trace import (
    VIRTUAL,
    WALL,
    NullTracer,
    Span,
    Tracer,
    current_span,
    disable,
    enable,
    get_tracer,
    set_tracer,
)
from repro.telemetry.export import (
    chrome_trace,
    prometheus_text,
    stage_summary,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "VIRTUAL",
    "WALL",
    "chrome_trace",
    "configure_logging",
    "current_span",
    "disable",
    "enable",
    "get_logger",
    "get_registry",
    "get_tracer",
    "kv",
    "prometheus_text",
    "resolve_level",
    "set_tracer",
    "stage_summary",
    "write_chrome_trace",
]
