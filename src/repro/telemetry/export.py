"""Telemetry exporters: Chrome trace-event JSON and Prometheus text.

Two consumers, two formats:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  trace-event format (the ``{"traceEvents": [...]}`` JSON object);
  the output loads directly in Perfetto (https://ui.perfetto.dev) and
  ``chrome://tracing``.  Wall-clock spans appear under the real
  process/thread tracks; virtual-clock spans (the runtime engine's
  simulated placements) appear under a synthetic "virtual clock"
  process whose "threads" are the cluster nodes, so both domains are
  visible in one timeline without conflating their time bases.
* :func:`prometheus_text` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` + samples); the serve daemon's
  ``GET /metrics`` body.

Stage timings are not rebuilt from spans: the always-on
:class:`~repro.pipeline.report.PipelineReport` is the one stage timing
record; the span tree is the tracing view of the same run.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Union

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.trace import VIRTUAL, Span, Tracer

#: Synthetic pid hosting virtual-clock spans in the Chrome trace; the
#: real process uses pid 1 (trace files are self-contained, so the
#: actual OS pid adds nothing but noise).
WALL_PID = 1
VIRTUAL_PID = 2


def _arg_value(value: object) -> Union[str, int, float, bool, None]:
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    return str(value)


def chrome_trace(spans: Union[Tracer, Iterable[Span]]) -> Dict[str, Any]:
    """Render spans as one Chrome trace-event JSON object.

    Every span becomes a complete event (``"ph": "X"``) with
    microsecond ``ts``/``dur``; process/thread metadata events
    (``"ph": "M"``) name the tracks.  Wall spans map real threads to
    tids; virtual spans get one tid per ``track`` (cluster node).
    """
    if isinstance(spans, Tracer):
        spans = spans.spans()
    events: List[Dict[str, Any]] = []
    wall_tids: Dict[str, int] = {}
    virtual_tids: Dict[str, int] = {}

    def tid_for(table: Dict[str, int], key: str) -> int:
        tid = table.get(key)
        if tid is None:
            tid = table[key] = len(table) + 1
        return tid

    for span in spans:
        virtual = span.clock == VIRTUAL
        if virtual:
            lane = span.track or "virtual"
            pid, tid = VIRTUAL_PID, tid_for(virtual_tids, lane)
        else:
            lane = span.thread_name or "main"
            pid, tid = WALL_PID, tid_for(wall_tids, lane)
        event: Dict[str, Any] = {
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": max(span.duration, 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "cat": span.category or "span",
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                **{key: _arg_value(value)
                   for key, value in span.attrs.items()},
            },
        }
        events.append(event)

    def metadata(pid: int, name: str,
                 tids: Dict[str, int]) -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "ts": 0.0, "pid": pid,
            "tid": 0, "args": {"name": name},
        }]
        for lane, tid in sorted(tids.items(), key=lambda kv: kv[1]):
            out.append({
                "name": "thread_name", "ph": "M", "ts": 0.0, "pid": pid,
                "tid": tid, "args": {"name": lane},
            })
        return out

    meta: List[Dict[str, Any]] = []
    if wall_tids:
        meta.extend(metadata(WALL_PID, "basecamp (wall clock)", wall_tids))
    if virtual_tids:
        meta.extend(metadata(VIRTUAL_PID, "runtime engine (simulated clock)",
                             virtual_tids))
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str,
                       spans: Union[Tracer, Iterable[Span]]) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    trace = chrome_trace(spans)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return len(trace["traceEvents"])


# -- Prometheus text exposition ----------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_src(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"'
                    for name, value in sorted(labels.items()))
    return "{" + body + "}"


def prometheus_text(*registries: MetricsRegistry) -> str:
    """Render registries in the Prometheus text exposition format.

    Several registries may be passed (the serve daemon renders its
    private registry plus the process-global one); names must not
    collide across them.
    """
    lines: List[str] = []
    seen: Dict[str, bool] = {}
    for registry in registries:
        for metric in registry.collect():
            if metric.name in seen:
                continue
            seen[metric.name] = True
            if metric.help:
                lines.append(f"# HELP {metric.name} "
                             f"{_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                samples = metric.samples()
                if not samples and not metric.label_names:
                    samples = [({}, 0.0)]
                for labels, value in samples:
                    lines.append(f"{metric.name}{_labels_src(labels)} "
                                 f"{_format_value(value)}")
            elif isinstance(metric, Histogram):
                for labels, _series in metric.samples():
                    for bound, cumulative in \
                            metric.cumulative_buckets(**labels):
                        le = dict(labels)
                        le["le"] = _format_value(bound)
                        lines.append(
                            f"{metric.name}_bucket{_labels_src(le)} "
                            f"{cumulative}")
                    lines.append(
                        f"{metric.name}_sum{_labels_src(labels)} "
                        f"{_format_value(metric.sum_value(**labels))}")
                    lines.append(
                        f"{metric.name}_count{_labels_src(labels)} "
                        f"{metric.count(**labels)}")
    return "\n".join(lines) + "\n"
