"""Tests for the unified telemetry subsystem (``repro.telemetry``).

Four layers, tested bottom-up:

* the span tracer — hierarchical parenting through ``contextvars``,
  explicit-parent override for worker threads, the disabled null
  tracer's invariants;
* the metrics registry — exact totals under an 8-thread hammer,
  idempotent registration, Prometheus data-model validation;
* the exporters — Chrome trace-event JSON schema (what Perfetto
  loads), the stage table (``stage_summary``), Prometheus text
  exposition;
* the integrations — PipelineSession stage spans with cache /
  single-flight attribution, the serve daemon's ``GET /metrics`` body
  agreeing with ``/stats``, the ``span_id`` echo, what a request pays
  for tracing that is switched off (a pinned call count), and the
  Retry-After EWMA floor regression.
"""

import gc
import io
import json
import logging
import math
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.basecamp.serve import (
    BasecampServer,
    BasecampService,
    ServiceSaturated,
)
from repro.errors import EverestError
from repro.pipeline import PipelineSession
from repro.telemetry import trace
from repro.telemetry.export import (
    VIRTUAL_PID,
    WALL_PID,
    chrome_trace,
    prometheus_text,
    stage_summary,
    write_chrome_trace,
)
from repro.telemetry.log import (
    configure_logging,
    get_logger,
    kv,
    resolve_level,
)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import (
    NULL_TRACER,
    Tracer,
    current_span,
    disable,
    enable,
    get_tracer,
)

ADD = """
kernel add {
  index i: 6
  input a[i]: f64
  input b[i]: f64
  output c
  c = a + b
}
"""


@pytest.fixture(autouse=True)
def _restore_null_tracer():
    """No test leaks a recording tracer into the process default."""
    disable()
    yield
    disable()


# -- tracer ------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_record_parent_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
        spans = {s.name: s for s in tracer.spans()}
        assert spans["outer"].parent_id == 0
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].duration >= 0.0

    def test_completion_order_is_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_explicit_parent_overrides_context(self):
        """Worker threads don't inherit the submitter's contextvars; the
        instrumentation captures ``current_span()`` before submit and
        passes it explicitly — exactly this pattern."""
        tracer = Tracer()
        with tracer.span("submit") as submit:
            captured = current_span()

            def worker():
                assert current_span() is None  # fresh thread, no context
                with tracer.span("tile", parent=captured):
                    pass

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {s.name: s for s in tracer.spans()}
        assert spans["tile"].parent_id == submit.span_id
        assert spans["tile"].thread_name != spans["submit"].thread_name

    def test_exception_annotates_and_unwinds(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"
        assert current_span() is None

    def test_record_span_virtual_clock(self):
        tracer = Tracer()
        span = tracer.record_span("task:t0", 3.0, 7.5, track="node-1",
                                  category="task", attrs={"cores": 2})
        assert span.clock == "virtual"
        assert span.start == 3.0
        assert span.duration == 4.5
        assert span.track == "node-1"
        assert tracer.spans()[0] is span

    def test_enable_disable_swap_process_tracer(self):
        assert get_tracer() is NULL_TRACER
        recording = enable()
        assert get_tracer() is recording
        disable()
        assert get_tracer() is NULL_TRACER

    def test_null_tracer_invariants(self):
        null_span = NULL_TRACER.span("anything")
        assert NULL_TRACER.span("other") is null_span  # one singleton
        assert not NULL_TRACER.enabled
        assert null_span.span_id == 0  # falsy: the "tracing off" check
        with null_span as entered:
            entered.set("key", "value")
            entered.attrs["key"] = "value"
        assert null_span.attrs == {}  # writes never accumulate
        assert NULL_TRACER.spans() == []


# -- metrics -----------------------------------------------------------------


class TestMetrics:
    def test_counter_hammered_from_8_threads_is_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", labels=("side",))
        per_thread = 5000

        def hammer(i):
            side = "left" if i % 2 == 0 else "right"
            for _ in range(per_thread):
                counter.inc(side=side)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert counter.value(side="left") == 4 * per_thread
        assert counter.value(side="right") == 4 * per_thread
        assert counter.total() == 8 * per_thread

    def test_histogram_hammered_from_8_threads_is_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds",
                                       buckets=(0.01, 0.1, 1.0))
        per_thread = 2000

        def hammer(i):
            for j in range(per_thread):
                histogram.observe(0.005 if j % 2 == 0 else 0.5)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        total = 8 * per_thread
        assert histogram.count() == total
        assert histogram.sum_value() == pytest.approx(
            total // 2 * 0.005 + total // 2 * 0.5)
        buckets = dict(histogram.cumulative_buckets())
        assert buckets[0.01] == total // 2
        assert buckets[1.0] == total
        assert buckets[math.inf] == total  # cumulative, ends at count

    def test_registry_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "help", ("a",))
        assert registry.counter("x_total", "help", ("a",)) is first
        with pytest.raises(EverestError, match="already registered"):
            registry.gauge("x_total")
        with pytest.raises(EverestError, match="already registered"):
            registry.counter("x_total", labels=("b",))

    def test_invalid_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(EverestError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(EverestError, match="invalid label name"):
            registry.counter("ok_total", labels=("bad-label",))
        with pytest.raises(EverestError, match="strictly increasing"):
            registry.histogram("h_seconds", buckets=(1.0, 0.5))

    def test_counter_cannot_decrease_and_wants_exact_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("endpoint",))
        with pytest.raises(EverestError, match="cannot decrease"):
            counter.inc(-1, endpoint="x")
        with pytest.raises(EverestError, match="wants labels"):
            counter.inc()  # missing the endpoint label
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value() == 3


# -- exporters ---------------------------------------------------------------


def _trace_schema_check(trace):
    """Assert the Chrome trace-event contract Perfetto relies on."""
    assert set(trace) == {"traceEvents", "displayTimeUnit"}
    assert trace["displayTimeUnit"] == "ms"
    for event in trace["traceEvents"]:
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in event, f"event missing {key!r}: {event}"
        assert event["ph"] in ("X", "M")
        assert isinstance(event["name"], str)
        assert isinstance(event["ts"], (int, float))
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
            assert event["args"]["span_id"] >= 1
            assert event["args"]["parent_id"] >= 0
        else:
            assert event["name"] in ("process_name", "thread_name")
            assert "name" in event["args"]


class TestChromeTrace:
    def test_wall_and_virtual_spans_split_by_pid(self):
        tracer = Tracer()
        with tracer.span("compile", category="compile"):
            pass
        tracer.record_span("task:a", 0.0, 2.0, track="node-0")
        tracer.record_span("task:b", 1.0, 3.0, track="node-1")
        trace = chrome_trace(tracer)
        _trace_schema_check(trace)

        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["compile"]["pid"] == WALL_PID
        assert by_name["task:a"]["pid"] == VIRTUAL_PID
        # Distinct tracks get distinct virtual tids.
        assert by_name["task:a"]["tid"] != by_name["task:b"]["tid"]
        # Virtual timestamps are simulated-seconds in microseconds.
        assert by_name["task:a"]["ts"] == 0.0
        assert by_name["task:a"]["dur"] == 2e6

        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        lanes = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert {"node-0", "node-1"} <= lanes

    def test_non_scalar_attrs_stringified(self):
        tracer = Tracer()
        with tracer.span("s", attrs={"shape": (3, 4), "ok": True}):
            pass
        (event,) = [e for e in chrome_trace(tracer)["traceEvents"]
                    if e["ph"] == "X"]
        assert event["args"]["shape"] == "(3, 4)"
        assert event["args"]["ok"] is True

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), tracer)
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == count
        _trace_schema_check(loaded)


# One Prometheus text-format line: name, optional {labels}, value.
_PROM_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_PROM_SAMPLE = (r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
                rf"(\{{{_PROM_LABEL}(,{_PROM_LABEL})*\}})?"
                r" (NaN|[+-]Inf|-?[0-9].*)$")


def _prometheus_parse_check(text):
    import re

    pattern = re.compile(_PROM_SAMPLE)
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert pattern.match(line), f"unparseable sample line: {line!r}"


class TestPrometheusText:
    def test_counter_gauge_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests", ("ep",)).inc(ep="c")
        registry.gauge("depth", "queue depth").set(3)
        histogram = registry.histogram("lat_seconds", "latency",
                                       buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)

        text = prometheus_text(registry)
        _prometheus_parse_check(text)
        assert "# TYPE req_total counter" in text
        assert '\nreq_total{ep="c"} 1\n' in text
        assert "# TYPE depth gauge" in text
        assert "\ndepth 3\n" in text
        assert "# TYPE lat_seconds histogram" in text
        assert '\nlat_seconds_bucket{le="0.1"} 1\n' in text
        assert '\nlat_seconds_bucket{le="1"} 2\n' in text
        assert '\nlat_seconds_bucket{le="+Inf"} 2\n' in text
        assert "\nlat_seconds_count 2\n" in text
        assert "lat_seconds_sum 0.55" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labels=("v",)).inc(v='a"b\nc')
        text = prometheus_text(registry)
        assert 'e_total{v="a\\"b\\nc"} 1' in text
        _prometheus_parse_check(text)

    def test_duplicate_names_across_registries_rendered_once(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("shared_total").inc()
        second.counter("shared_total").inc(5)
        text = prometheus_text(first, second)
        assert text.count("# TYPE shared_total counter") == 1
        assert "shared_total 1" in text  # first registry wins


def _span(span_id, parent_id, name, duration, category, **attrs):
    return trace.Span(name, span_id, parent_id, 0.0, duration, attrs,
                      category=category)


class TestStageSummary:
    def test_a_stage_line_is_its_self_time(self):
        """``canonicalize`` runs the uncached ``dialect-lowering`` inside
        its own span: the table subtracts it, so the header counts the
        7 ms once, and a pass span is a line outside the total."""
        spans = [
            _span(3, 2, "stage:dialect-lowering", 0.007, "stage"),
            _span(4, 2, "canonicalize/fuse", 0.001, "pass",
                  detail="2 buffer(s)"),
            _span(2, 0, "stage:canonicalize", 0.010, "stage", detail="O1"),
            _span(5, 0, "stage:frontend-parse", 0.0001, "stage",
                  cached=True),
            _span(6, 0, "codegen.compile", 0.5, "compile"),
            _span(7, 0, "execute/run", 0.002, "exec"),
        ]
        assert stage_summary(spans).splitlines() == [
            "pipeline: 3 stage events, 10.0 ms executed, "
            "1 cache hits / 2 misses",
            "  dialect-lowering         7.00ms",
            "  canonicalize/fuse        1.00ms  (2 buffer(s))",
            "  canonicalize             3.00ms  (O1)",
            "  frontend-parse            cache",
            "  execute/run              2.00ms",
        ]

    def test_basecamp_pipeline_prints_it_without_trace(self, tmp_path,
                                                       capsys):
        import re

        from repro.basecamp.cli import main
        from repro.pipeline import reset_session

        source = tmp_path / "k.ekl"
        source.write_text(ADD)
        reset_session()
        try:
            assert main(["pipeline", str(source)]) == 0
        finally:
            reset_session()
        assert get_tracer() is NULL_TRACER
        out = capsys.readouterr().out
        header, *rows = out[out.index("pipeline:"):].splitlines()
        names = [row.split()[0] for row in rows]
        for name in ("frontend-parse", "dialect-lowering", "canonicalize",
                     "hls", "olympus", "schedule", "canonicalize/rewrite",
                     "canonicalize/fuse"):
            assert name in names
        assert "canonicalize/inline" not in names
        stage_ms = [float(row.split()[1].removesuffix("ms"))
                    for row in rows if "/" not in row.split()[0]]
        executed = float(re.search(r"([0-9.]+) ms executed",
                                   header).group(1))
        assert executed == pytest.approx(sum(stage_ms), abs=0.1)

    @pytest.mark.parametrize("text", [None, "kernel broken(x: [4]f64) -> {"])
    def test_a_failing_command_restores_the_null_tracer(self, tmp_path,
                                                        capsys, text):
        from repro.basecamp.cli import main

        source = tmp_path / "k.ekl"
        if text is not None:
            source.write_text(text)
        assert main(["pipeline", str(source)]) == 1
        assert "basecamp: error:" in capsys.readouterr().err
        assert get_tracer() is NULL_TRACER


# -- integrations ------------------------------------------------------------


class TestSessionInstrumentation:
    def test_cached_rerun_annotates_stage_spans(self):
        tracer = enable()
        session = PipelineSession()
        session.lower(ADD)
        first = {s.name for s in tracer.spans()
                 if s.category == "stage"}
        assert first  # the lowering pipeline emitted stage spans
        tracer.clear()
        session.lower(ADD)
        cached = [s for s in tracer.spans() if s.category == "stage"
                  and s.attrs.get("cached")]
        assert cached  # second run hits the session cache

    def test_execute_emits_run_span_under_stage_tree(self):
        # A source no other test compiles: the process-global executor
        # cache must miss so the codegen.compile span is emitted.
        source = ADD.replace("a + b", "a * 2.0 + b * 3.0")
        tracer = enable()
        PipelineSession().execute(source, {
            "a": [1.0] * 6, "b": [2.0] * 6})
        names = [s.name for s in tracer.spans()]
        assert "execute/run" in names
        assert any(n.startswith("stage:") for n in names)
        assert any(s.name == "codegen.compile" for s in tracer.spans())


class TestServeTelemetry:
    def test_metrics_text_agrees_with_stats(self):
        service = BasecampService()
        service.handle("compile", {"source": ADD})
        service.handle("compile", {"source": ADD})
        with pytest.raises(EverestError):
            service.handle("execute", {"source": ADD, "inputs": {}})

        stats = service.stats()["server"]
        assert stats["requests"] == 3
        assert stats["ok"] == 2
        assert stats["errors"] == 1

        text = service.metrics_text()
        _prometheus_parse_check(text)
        assert 'basecamp_requests_total{endpoint="compile"} 2' in text
        assert 'basecamp_responses_total{outcome="ok"} 2' in text
        assert 'basecamp_responses_total{outcome="error"} 1' in text
        # The latency histogram covers every admitted request —
        # its count must equal ok + errors from /stats.
        latency = service.metrics.get("basecamp_request_seconds")
        assert latency.total_count() == stats["ok"] + stats["errors"]
        assert 'basecamp_request_seconds_count{endpoint="compile"} 2' \
            in text

    def test_http_metrics_endpoint(self):
        server = BasecampServer(port=0).start()
        try:
            def post(endpoint, payload):
                request = urllib.request.Request(
                    f"{server.url}/{endpoint}",
                    data=json.dumps(payload).encode("utf-8"),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=30) as resp:
                    return json.loads(resp.read())

            post("compile", {"source": ADD})
            with urllib.request.urlopen(f"{server.url}/metrics",
                                        timeout=30) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == \
                    "text/plain; version=0.0.4; charset=utf-8"
                text = response.read().decode("utf-8")
        finally:
            server.shutdown()
        _prometheus_parse_check(text)
        assert 'basecamp_requests_total{endpoint="compile"} 1' in text
        assert "basecamp_active_requests" in text
        assert "repro_arena_planned_bytes" in text  # global registry too

    def test_request_span_tree_and_span_id_echo(self):
        tracer = enable()
        server = BasecampServer(port=0).start()
        try:
            request = urllib.request.Request(
                f"{server.url}/compile",
                data=json.dumps({"source": ADD}).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
        finally:
            server.shutdown()
            disable()
        spans = {s.span_id: s for s in tracer.spans()}
        request_spans = [s for s in spans.values()
                         if s.name == "request:compile"]
        assert len(request_spans) == 1
        root = request_spans[0]
        assert body["span_id"] == root.span_id  # echoed to the client
        assert root.attrs["status"] == 200
        # Stage spans hang off the request span (context propagation
        # across the handler thread).
        children = [s for s in spans.values()
                    if s.parent_id == root.span_id]
        assert children
        for span in spans.values():
            if span.category == "stage":
                parent = span
                while parent.parent_id:
                    parent = spans[parent.parent_id]
                assert parent is root

    def test_span_id_not_echoed_when_disabled(self):
        service = BasecampService()
        result = service.handle("compile", {"source": ADD})
        assert "span_id" not in result

    @pytest.mark.parametrize("endpoint, budget", [("execute", 8),
                                                  ("compile", 4)])
    def test_disabled_tracing_is_a_pinned_number_of_calls(self, endpoint,
                                                          budget):
        """The disabled contract as a count, not a wall-clock share: with
        the null tracer installed, one warm request runs ``budget``
        Python functions of ``telemetry/trace.py`` (a ``get_tracer`` per
        stage, plus the null ``execute/run`` span) out of a few hundred
        calls in all.  A new instrumentation site on the request path
        raises the count and has to re-pin it here."""
        service = BasecampService()
        payload = {"source": ADD, "random_seed": 0}
        service.handle(endpoint, payload)  # warm: every stage a cache hit

        def traced_calls():
            calls = []

            def hook(frame, event, arg):
                if event == "call" \
                        and frame.f_code.co_filename == trace.__file__:
                    calls.append(frame.f_code.co_name)

            # As in test_compile_budget: a collection mid-count would
            # run other libraries' gc callbacks.
            gc.collect()
            gc.disable()
            previous = sys.getprofile()
            sys.setprofile(hook)
            try:
                service.handle(endpoint, payload)
            finally:
                sys.setprofile(previous)
                gc.enable()
            return calls

        calls = traced_calls()
        assert calls == traced_calls(), "the count must repeat exactly"
        assert len(calls) <= budget, (
            f"one warm {endpoint} request made {len(calls)} calls into "
            f"telemetry/trace.py with tracing off (pinned at {budget}): "
            f"{calls}")


class TestRetryAfterFloor:
    """Regression: a burst of sub-millisecond requests used to decay
    the latency EWMA to ~0, flattening the Retry-After hint."""

    def test_release_floors_the_ewma(self):
        service = BasecampService(max_workers=1, queue_limit=0)
        service._admit()
        for _ in range(50):  # decay hard with zero-latency releases
            service._release(0.0)
            service._admit()
        service._release(0.0)
        assert service._ewma_seconds >= 0.001

    def test_saturated_hint_stays_in_clamp(self):
        service = BasecampService(max_workers=1, queue_limit=1)
        service._ewma_seconds = 0.0  # worst pre-floor state
        service._admit()
        service._admit()
        with pytest.raises(ServiceSaturated) as excinfo:
            service._admit()
        assert 1 <= excinfo.value.retry_after <= 30
        rejected = service.metrics.get("basecamp_responses_total")
        assert rejected.value(outcome="rejected") == 1


# -- logging -----------------------------------------------------------------


class TestLogging:
    def test_logfmt_line_shape(self):
        stream = io.StringIO()
        configure_logging("info", stream=stream)
        get_logger("serve").info("request done %s", kv(status=200))
        line = stream.getvalue().strip()
        assert line.startswith("ts=")
        assert " level=info logger=repro.serve msg=" in line
        assert "status=200" in line

    def test_kv_quotes_when_needed(self):
        assert kv(path="/compile") == "path=/compile"
        assert kv(msg="two words") == 'msg="two words"'
        assert kv(expr="a=b") == 'expr="a=b"'

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        root = configure_logging("debug", stream=stream)
        configure_logging("error", stream=stream)
        handlers = [h for h in root.handlers
                    if isinstance(h, logging.StreamHandler)]
        assert len(handlers) == 1  # retuned, not stacked
        assert root.level == logging.ERROR
        get_logger("x").warning("dropped")
        assert stream.getvalue() == ""

    def test_resolve_level_rejects_unknown(self):
        assert resolve_level("DEBUG") == logging.DEBUG
        with pytest.raises(EverestError, match="unknown log level"):
            resolve_level("loud")
