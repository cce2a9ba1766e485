"""``basecamp serve`` — the multi-tenant compile-and-run daemon.

The SDK's phases (PipelineSession stage caching, the executor backends,
the RuntimeEngine) normally live for one CLI invocation.  This module
keeps them alive behind a long-running HTTP daemon (stdlib
:class:`~http.server.ThreadingHTTPServer`, JSON request/response) so
many tenants share one process:

* **one cross-request session** — every ``compile``/``execute`` request
  runs through a single :class:`~repro.pipeline.PipelineSession`, so the
  content-hash stage cache is shared by all clients;
* **single-flight deduplication** — identical in-flight compiles execute
  their stages exactly once (the session's ``run_stage`` blocks waiters
  on the leader's result; see ``SingleFlightStats``);
* **admission control** — at most ``max_workers`` requests execute
  concurrently and at most ``queue_limit`` wait; beyond that the daemon
  rejects with ``429`` and a ``Retry-After`` hint derived from recent
  request latency.

Endpoints (all JSON): ``POST /compile``, ``/execute`` and ``/runtime``
take the fields :data:`SCHEMA` declares (one described task's are
:data:`TASK`, one injected node failure's :data:`FAILURE`) and reply
with HLS report scalars, the kernel's facts and output summaries, and
per-policy schedules; ``GET /stats``, ``/metrics`` and ``/healthz``
report counters and liveness.  ``basecamp run`` and ``basecamp
runtime`` are in-process :meth:`BasecampService.handle` calls, so both
transports share one validator and one set of messages.

Every counter lives in one service-private
:class:`~repro.telemetry.metrics.MetricsRegistry` that ``/stats`` (JSON)
and ``/metrics`` (Prometheus) both render.  With a recording tracer
installed each POST grows one span tree and its reply carries the root
``span_id``.  SDK errors map to ``400`` with ``{"error": ...}``,
saturation to ``429`` and anything unexpected to ``500``; see
``docs/serve.md``.
"""

from __future__ import annotations

import json
import logging
import math
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, NamedTuple, Optional, Tuple, Union

from repro.errors import EverestError, RequestRefused
from repro.pipeline import PipelineSession
from repro.telemetry.export import prometheus_text
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import MetricsRegistry, get_registry
from repro.telemetry.trace import get_tracer

_LOG = get_logger("serve")

#: Upper bound on request bodies: kernels and input arrays are small;
#: anything bigger is a client bug, not a workload.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Default daemon sizing: modest concurrency, a queue a few times deeper.
DEFAULT_MAX_WORKERS = 4
DEFAULT_QUEUE_LIMIT = 16

#: Largest synthetic workflow one ``/runtime`` request may ask for: a
#: request holds one of the ``max_workers`` slots until it is planned.
MAX_RUNTIME_TASKS = 10_000
MAX_RUNTIME_NODES = 256

#: The version of a request line: digits only, at most ten per number.
_HTTP_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


def _no_result(*dependencies) -> None:
    """The body of a task a ``/runtime`` request describes: the request
    asks where and when it would run, not for what it computes."""


class Field(NamedTuple):
    """One field of a request body or of a described task.

    ``kind``: the type its JSON value decodes to, or a tuple of them;
    ``float`` takes an integer too, and only ``bool`` takes ``true``.
    ``default``: what a missing field is, and a ``null`` where it is
    None; ``...`` (pydantic's spelling) makes the field required.
    ``low``/``high``: bounds of a number, which must be finite, or of a
    list's length; ``low=1`` refuses a blank string.
    ``entries``: ``(kind, noun)`` of a list's entries, ``str`` or a
    table keyed by its first row.
    ``error``: a required field's message for any refusal.
    """

    name: str
    kind: Any
    default: Any = ...
    low: Any = None
    high: Any = None
    entries: Optional[Tuple[Any, str]] = None
    error: str = ""


#: One task a ``/runtime`` request lists.  The defaults are
#: ``WorkflowTask``'s (``tests/test_serve.py`` holds them equal).
TASK = (
    Field("name", str, ..., 1, error="every task must be an object with "
                                     "a string 'name', got {!r}"),
    Field("after", list, [], entries=(str, "task names")),
    Field("fpga", bool, False),
    Field("fpga_seconds", float, 1e-3, 0.0),
    Field("cpu_flops", float, 1e9, 0.0),
    Field("cores", int, 1, 1),
    Field("output_bytes", int, 8192, 0),
)

#: One node failure a ``/runtime`` request injects, into the synthetic
#: and the described workflow alike: ``node`` goes down ``at`` simulated
#: seconds, and the engine reschedules what it held.
FAILURE = (
    Field("node", str, ..., 1, error="every failure must be an object "
                                     "with a string 'node', got {!r}"),
    Field("at", float, ..., 0.0, error="every failure needs a finite "
                                       "'at' >= 0 (simulated seconds), "
                                       "got {!r}"),
)

_SOURCE = Field("source", str, ..., 1,
                error="request needs a non-empty 'source' (EKL kernel text)")

#: The fields of each POST endpoint, checked by :func:`checked` before
#: its handler runs; ``docs/serve.md`` shows them as tables.
SCHEMA = {
    "compile": (_SOURCE, Field("number_format", str, None)),
    "execute": (_SOURCE, Field("backend", str, None, 1),
                Field("random_seed", int, None, 0),
                Field("inputs", dict, None),
                Field("full_outputs", bool, None)),
    "runtime": (Field("policy", str, "heft"),
                Field("nodes", int, 4, 1, MAX_RUNTIME_NODES),
                Field("tasks", (int, list), 60, 1, MAX_RUNTIME_TASKS,
                      entries=(TASK, "task")),
                Field("seed", int, 0, 0),
                Field("fpga_fraction", float, 0.0, 0.0, 1.0),
                Field("fail", list, [], entries=(FAILURE, "failure"))),
}


def checked(table: Tuple[Field, ...], body: Dict[str, Any],
            within: str = "") -> Dict[str, Any]:
    """The fields ``table`` declares, read from ``body`` and checked;
    other keys are ignored.  A refusal is a :class:`RequestRefused` (a
    400, or the CLI's usage error) naming the field and, for an entry
    ``within`` a list, its key.
    """
    if type(body) is not dict:  # an entry of a list of objects
        raise RequestRefused(table[0].error.format(body))
    fields: Dict[str, Any] = {}
    for row in table:
        value = body.get(row.name, row.default)
        kind, low, high, problem = type(value), row.low, row.high, ""
        kinds = row.kind if type(row.kind) is tuple else (row.kind,)
        if kind not in kinds and (kind is not int or float not in kinds):
            if value is None and row.default is None:
                fields[row.name] = None
                continue
            problem = "must be of type " + " or ".join(
                k.__name__ for k in kinds)
        elif kind is str:
            if low and not value.strip():
                problem = "must not be blank"
        elif kind is list:
            entries, noun = row.entries or (None, "")
            if low is not None and not low <= len(value) <= high:
                problem = f"must list {low} to {high} {row.name}"
                value = len(value)
            elif entries is str:
                wrong = [entry for entry in value if type(entry) is not str]
                if wrong:
                    problem, value = f"must list {noun}", wrong[0]
            elif entries:
                value = [checked(entries, entry, noun) for entry in value]
        elif kind is int or kind is float:
            if not -math.inf < value < math.inf:
                problem = "must be finite"
            elif (low is not None and value < low) \
                    or (high is not None and value > high):
                problem = "must be " + (f">= {low}" if high is None
                                        else f"in [{low}, {high}]")
        if problem and row.default is ...:
            raise RequestRefused(row.error.format(body))
        if problem:
            where = f"{within} {fields[table[0].name]!r}: " if within else ""
            raise RequestRefused(
                f"{where}{row.name!r} {problem}, got {value!r}")
        fields[row.name] = value
    return fields


def gather_inputs(module: Any, func_name: str,
                  explicit: Optional[Dict[str, Any]] = None,
                  random_seed: Optional[int] = None) -> Dict[str, Any]:
    """The input dict of one ``/execute`` run of ``func_name``.

    ``explicit`` binds arrays by argument name; with ``random_seed``
    every remaining float input is drawn uniform [0, 1) and every
    integer input is zero-filled (always in-range for gather tables).
    Unknown or missing names, and a bound value that is ragged or not
    numeric, raise :class:`EverestError`.
    """
    import numpy as np

    from repro.ir import types as T

    func = module.lookup(func_name)
    entry = func.regions[0].entry
    arg_names = func.attr("arg_names")
    num_outputs = func.attr("num_outputs") or 0
    explicit = dict(explicit or {})
    rng = np.random.default_rng(random_seed) \
        if random_seed is not None else None
    inputs: Dict[str, Any] = {}
    for i, arg in enumerate(entry.args[:len(entry.args) - num_outputs]):
        name = arg_names[i]
        ref = arg.type
        if name in explicit:
            try:
                value = np.asarray(explicit.pop(name))
            except ValueError:  # nested lists of unequal length
                value = None
            if value is None or value.dtype.kind not in "biuf":
                raise EverestError(
                    f"input {name!r} must be a rectangular array of numbers")
            inputs[name] = value
            continue
        if rng is None:
            raise EverestError(f"missing input {name!r} "
                               "(add it to 'inputs' or pass 'random_seed')")
        shape = tuple(ref.shape)
        if isinstance(ref.element, T.FloatType):
            inputs[name] = rng.uniform(0.0, 1.0, shape)
        else:
            inputs[name] = np.zeros(shape, dtype=np.int64)
    if explicit:
        raise EverestError("unknown input name(s): "
                           + ", ".join(sorted(explicit)))
    return inputs


class ServiceSaturated(EverestError):
    """The daemon's execute+queue capacity is full (HTTP 429).

    ``retry_after`` is the seconds hint clients should back off for,
    derived from an exponential moving average of recent request
    latency times the current queue depth.
    """

    def __init__(self, message: str, retry_after: int = 1):
        super().__init__(message)
        self.retry_after = retry_after


class BasecampService:
    """Endpoint logic, independent of the HTTP plumbing.

    Owns the shared :class:`PipelineSession` and the admission-control
    state.  Both transports call :meth:`handle`: the HTTP handler for a
    POST, and ``basecamp run`` and ``basecamp runtime`` in process.
    """

    def __init__(self, *, session: Optional[PipelineSession] = None,
                 max_workers: int = DEFAULT_MAX_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT):
        if max_workers < 1:
            raise EverestError(
                f"max_workers must be >= 1, got {max_workers}")
        if queue_limit < 0:
            raise EverestError(
                f"queue_limit must be >= 0, got {queue_limit}")
        self.session = session if session is not None else PipelineSession()
        self.max_workers = max_workers
        self.queue_limit = queue_limit
        self._workers = threading.Semaphore(max_workers)
        self._lock = threading.Lock()
        self._active = 0
        self._ewma_seconds = 0.05
        self._started = time.time()
        # All request accounting lives in a service-private registry;
        # /stats and /metrics are two renderings of it.
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter(
            "basecamp_requests_total",
            "POST requests received, by endpoint", ("endpoint",))
        self._responses = self.metrics.counter(
            "basecamp_responses_total",
            "Request outcomes (ok / error / rejected)", ("outcome",))
        self._latency = self.metrics.histogram(
            "basecamp_request_seconds",
            "Wall latency of admitted requests, by endpoint",
            ("endpoint",))
        self._gauges = {
            name: self.metrics.gauge(f"basecamp_{name}", help)
            for name, help in (
                ("active_requests", "Requests admitted and not yet done"),
                ("max_workers", "Concurrent-execution limit"),
                ("queue_limit", "Admission queue depth limit"),
                ("ewma_request_seconds",
                 "Exponential moving average of request latency"),
                ("uptime_seconds", "Seconds since service start"),
                ("cache_entries", "Stage-cache entries in the session"),
                ("cache_hits", "Stage-cache hits since start"),
                ("cache_misses", "Stage-cache misses since start"),
                ("singleflight_leaders", "Single-flight leader executions"),
                ("singleflight_waits", "Single-flight waiter joins"),
            )
        }

    # -- admission control -------------------------------------------------------------

    def _admit(self) -> None:
        with self._lock:
            if self._active >= self.max_workers + self.queue_limit:
                queued = self._active - self.max_workers
                hint = max(1, min(30, math.ceil(
                    self._ewma_seconds * max(1, queued)
                    / self.max_workers)))
                self._responses.inc(outcome="rejected")
                raise ServiceSaturated(
                    f"server saturated: {self.max_workers} executing, "
                    f"{queued} queued (queue limit {self.queue_limit}); "
                    f"retry in {hint}s", retry_after=hint)
            self._active += 1

    def _release(self, seconds: float) -> None:
        with self._lock:
            self._active -= 1
            # Floor the EWMA: sub-millisecond health-check-sized bodies
            # would otherwise decay it toward zero and the Retry-After
            # hint (ewma * queued / workers, ceil'd) would stop growing
            # with queue depth in any meaningful way.
            self._ewma_seconds = max(0.001, self._ewma_seconds
                                     + 0.2 * (seconds - self._ewma_seconds))

    # -- request dispatch --------------------------------------------------------------

    def handle(self, endpoint: str,
               payload: Dict[str, Any]) -> Dict[str, Any]:
        """Run one admitted request; raises :class:`EverestError` on
        bad parameters and :class:`ServiceSaturated` over capacity."""
        if endpoint not in SCHEMA:
            raise EverestError(f"unknown endpoint {endpoint!r}; "
                               f"available: {', '.join(SCHEMA)}")
        if not isinstance(payload, dict):
            raise EverestError("request body must be a JSON object")
        self._requests.inc(endpoint=endpoint)
        self._admit()
        start = time.perf_counter()
        try:
            with self._workers:  # blocking acquire == the bounded queue
                result = getattr(self, "_" + endpoint)(
                    checked(SCHEMA[endpoint], payload))
            self._responses.inc(outcome="ok")
            return result
        except Exception:
            # An EverestError is the client's 4xx, anything else the
            # 500 path; both are an "error" outcome, so that
            # requests == ok + errors + rejected holds.
            self._responses.inc(outcome="error")
            raise
        finally:
            elapsed = time.perf_counter() - start
            self._latency.observe(elapsed, endpoint=endpoint)
            self._release(elapsed)

    # -- endpoints: each reads what ``checked`` returned -------------------------------

    def _compile(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        result = self.session.compile(fields["source"],
                                      number_format=fields["number_format"])
        report = result.report
        return {
            "kernel": report.name,
            "key": result.key,
            "number_format": report.number_format,
            "total_cycles": report.total_cycles,
            "latency_seconds": report.latency_seconds,
            "flops": report.flops,
            "resources": {"lut": report.resources.lut,
                          "ff": report.resources.ff,
                          "dsp": report.resources.dsp,
                          "bram": report.resources.bram},
        }

    def _execute(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        import numpy as np

        lowered = self.session.lower(fields["source"])
        inputs = gather_inputs(lowered.module, lowered.kernel.name,
                               fields["inputs"], fields["random_seed"])
        # A null or missing backend is the default one.
        result = self.session.execute_lowered(
            lowered, inputs, backend=fields["backend"] or "compiled")
        kernel = result.kernel
        outputs: Dict[str, Any] = {}
        for name, value in result.outputs.items():
            value = np.asarray(value)
            entry: Dict[str, Any] = {
                "shape": list(value.shape),
                "dtype": str(value.dtype),
                "mean": float(value.mean()) if value.size else 0.0,
            }
            if fields["full_outputs"]:
                entry["values"] = value.tolist()
            outputs[name] = entry
        return {
            "kernel": kernel.func_name,
            "key": result.key,
            "backend": kernel.backend,
            "fallback": kernel.fallback or "",
            "seconds": result.seconds,
            "flops": kernel.flops,
            "arena_bytes": kernel.arena_bytes,
            "arena_slots": kernel.arena_slots,
            "fused_groups": kernel.fused_groups,
            "contracted_buffers": kernel.contracted_buffers,
            "vectorized_nests": kernel.vectorized_nests,
            "scalar_nests": kernel.scalar_nests,
            "outputs": outputs,
        }

    def _runtime(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        from repro.runtime import default_cluster
        from repro.runtime.engine import (
            POLICIES,
            RuntimeEngine,
            synthetic_workflow,
        )

        nodes, tasks, policy, failures = fields["nodes"], fields["tasks"], \
            fields["policy"], fields["fail"]
        policies = sorted(POLICIES) if policy == "all" else [policy]
        spec = None
        if type(tasks) is list:
            from repro.workflows import lexis

            spec = lexis.WorkflowSpec("request")
            for task in tasks:
                try:  # a name listed twice
                    spec.add(lexis.WorkflowTask(
                        fn=_no_result,
                        location="fpga" if task.pop("fpga") else "hpc",
                        **task))
                except EverestError as error:
                    raise EverestError(
                        f"task {task['name']!r}: {error}") from None
            tasks = len(tasks)
        results = []
        for name in policies:
            cluster = default_cluster(nodes)
            if spec is not None:
                engine = lexis.LexisPlatform(cluster, name).deploy(spec)
            else:
                engine = RuntimeEngine(cluster, policy=name)
                synthetic_workflow(engine, n_tasks=tasks, seed=fields["seed"],
                                   fpga_fraction=fields["fpga_fraction"])
            for failure in failures:
                engine.fail_node_at(failure["at"], failure["node"])
            outcome = engine.run()
            row = {
                "policy": name,
                "makespan": outcome.makespan,
                "transfers_seconds": outcome.transfers_seconds,
                "rescheduled": outcome.rescheduled_tasks,
            }
            if spec is not None:
                row["placements"] = {
                    engine.graph.tasks[task_id].name: {
                        "node": placed.node, "start": placed.start,
                        "finish": placed.finish, "cores": placed.cores}
                    for task_id, placed in outcome.placements.items()}
                row["utilization"] = outcome.utilization(cluster).utilization
            results.append(row)
        return {"nodes": nodes, "tasks": tasks, "results": results}

    # -- introspection -----------------------------------------------------------------

    def _refresh_gauges(self) -> Dict[str, float]:
        """Sample point-in-time state into the gauges (scrape time);
        returns the values by gauge name."""
        cache, flight = self.session.cache, self.session.singleflight
        with self._lock:
            active, ewma = self._active, self._ewma_seconds
        sampled = {
            "active_requests": active, "max_workers": self.max_workers,
            "queue_limit": self.queue_limit, "ewma_request_seconds": ewma,
            "uptime_seconds": time.time() - self._started,
            "cache_entries": len(cache), "cache_hits": cache.stats.hits,
            "cache_misses": cache.stats.misses,
            "singleflight_leaders": flight.leaders,
            "singleflight_waits": flight.waits}
        for name, value in sampled.items():
            self._gauges[name].set(value)
        return sampled

    def stats(self) -> Dict[str, Any]:
        sampled = self._refresh_gauges()
        cache = self.session.cache
        return {
            "server": {
                "requests": int(self._requests.total()),
                "ok": int(self._responses.value(outcome="ok")),
                "rejected": int(self._responses.value(outcome="rejected")),
                "errors": int(self._responses.value(outcome="error")),
                **{endpoint: int(self._requests.value(endpoint=endpoint))
                   for endpoint in SCHEMA},
                "active": sampled["active_requests"],
                "max_workers": self.max_workers,
                "queue_limit": self.queue_limit,
                "ewma_request_seconds": sampled["ewma_request_seconds"],
                "uptime_seconds": sampled["uptime_seconds"],
            },
            "cache": {"entries": sampled["cache_entries"],
                      "hits": sampled["cache_hits"],
                      "misses": sampled["cache_misses"],
                      "hit_rate": cache.stats.hit_rate},
            "singleflight": {"leaders": sampled["singleflight_leaders"],
                             "waits": sampled["singleflight_waits"]},
        }

    def metrics_text(self) -> str:
        """The service-private plus process-global registries rendered
        in Prometheus text exposition (the ``GET /metrics`` body)."""
        self._refresh_gauges()
        return prometheus_text(self.metrics, get_registry())


class _Handler(BaseHTTPRequestHandler):
    """JSON-over-HTTP front of one :class:`BasecampService`."""

    # Set by the server factory.
    service: BasecampService
    protocol_version = "HTTP/1.1"
    #: ``(second, text)`` of the last ``Date`` header: one format a second.
    _date = (0, "")

    def log_message(self, fmt, *args):  # noqa: D102 (stdlib signature)
        # BaseHTTPRequestHandler writes straight to stderr; route the
        # per-request chatter through the structured logger at debug
        # instead, so --log-level governs it (at the default warning the
        # line is not formatted at all).
        if _LOG.isEnabledFor(logging.DEBUG):
            _LOG.debug("%s %s", self.address_string(), fmt % args)

    def parse_request(self) -> bool:
        """The stdlib's request-line checks, then the header fields into
        ``self.headers``, a dict keyed by lower-case name; a head the
        daemon cannot frame is a 400 (a 431 past 100 fields or 64 KiB)."""
        self.command, self.request_version = None, "HTTP/0.9"
        self.close_connection = True
        self.requestline = str(self.raw_requestline,
                               "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            match = _HTTP_VERSION.fullmatch(version)
            if match is None:
                return self.send_error(
                    400, f"Bad request version ({version!r})")
            number = int(match[1]), int(match[2])
            if number >= (2, 0):
                return self.send_error(
                    505, f"Invalid HTTP version ({version[5:]})")
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            return self.send_error(
                400, f"Bad request syntax ({self.requestline!r})")
        self.command, self.path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if self.command != "GET":
                return self.send_error(
                    400, f"Bad HTTP/0.9 request type ({self.command!r})")
        if self.path.startswith("//"):  # not an absolute URI (gh-87389)
            self.path = "/" + self.path.lstrip("/")
        self.headers = headers = {}
        for _ in range(101):
            line = self.rfile.readline(65537)
            if len(line) > 65536:
                return self.send_error(431, "Line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            text = line.decode("iso-8859-1")
            name, colon, value = text.partition(":")
            key = name.lower()
            if not colon or not name or name != name.strip():
                problem = (f"malformed header line {text.rstrip()!r}: a "
                           "field is 'Name: value' on one line")
            elif key == "transfer-encoding":
                problem = f"{name} is not supported; send Content-Length"
            elif key == "content-length" and key in headers:
                problem = "more than one Content-Length header"
            else:
                headers.setdefault(key, value.strip())
                continue
            return self.send_error(400, problem)
        else:
            return self.send_error(431, "Too many headers")
        self.close_connection = {"close": True, "keep-alive": False}.get(
            headers.get("connection", "").lower(), self.close_connection)
        if headers.get("expect", "").lower() == "100-continue" \
                and self.request_version >= "HTTP/1.1":
            self.handle_expect_100()
        return True

    def send_error(self, code, message=None, explain=None) -> bool:
        """Any refusal (the stdlib's 414 and 501 too) as JSON, closing the
        connection; False, what a refused :meth:`parse_request` returns."""
        self.close_connection = True
        self._reply(code, {"error": message or self.responses[code][0]},
                    headers={"Connection": "close"})
        return False

    def _reply(self, status: int, body: Union[Dict[str, Any], str],
               headers: Optional[Dict[str, str]] = None,
               content_type: str = "application/json") -> None:
        """Send one reply, head and body in one write (as two segments, a
        keep-alive reply waits out Nagle plus a ~40 ms delayed ACK); a
        dict body is JSON-encoded, a str goes out verbatim under
        ``content_type``."""
        text = body if isinstance(body, str) else json.dumps(body)
        data = text.encode("utf-8")
        self.log_request(status)
        now = int(time.time())
        if self._date[0] != now:
            _Handler._date = (now, self.date_time_string(now))
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\nDate: {self._date[1]}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n")
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        # Unbuffered (the stdlib's ``wbufsize = 0``): a vanished client
        # raises here, inside the caller's try block.
        self.wfile.write(head.encode("latin-1") + b"\r\n" + data)

    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path == "/healthz":
            self._reply(200, {"status": "ok"})
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        elif self.path == "/metrics":
            self._reply(200, self.service.metrics_text(),
                        content_type="text/plain; version=0.0.4; "
                                     "charset=utf-8")
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}; "
                                       "GET /healthz, /stats, /metrics, or "
                                       "POST /compile, /execute, /runtime"})

    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        endpoint = self.path.lstrip("/")
        tracer = get_tracer()
        with tracer.span(f"request:{endpoint}", category="request") as span:
            if tracer.enabled:
                span.attrs["endpoint"] = endpoint
            self._do_post(endpoint, span)

    def _do_post(self, endpoint: str, span) -> None:
        try:
            declared = self.headers.get("content-length") or 0
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if not 0 <= length <= MAX_BODY_BYTES:
                # Body left unread: send_error drops the connection.
                status, reason = (413, "request body too large") \
                    if length > 0 else \
                    (400, f"invalid Content-Length header {declared!r}")
                span.set("status", status)
                self.send_error(status, reason)
                return
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw.decode("utf-8") or "{}")
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                span.set("status", 400)
                self._reply(400, {"error": f"invalid JSON body: {error}"})
                return
            result = self.service.handle(endpoint, payload)
            span.set("status", 200)
            if span.span_id:
                # Tracing is on: tie the response to its span tree.
                result["span_id"] = span.span_id
            self._reply(200, result)
        except ServiceSaturated as error:
            span.set("status", 429)
            self._reply(429, {"error": str(error),
                              "retry_after": error.retry_after},
                        headers={"Retry-After": str(error.retry_after)})
        except EverestError as error:
            span.set("status", 400)
            self._reply(400, {"error": str(error)})
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as error:  # noqa: BLE001 — daemon must not die
            span.set("status", 500)
            self._reply(500, {"error": f"internal error: "
                                       f"{type(error).__name__}: {error}"})


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer tuned for many short-lived tenant connections.

    The stdlib default listen backlog of 5 overflows under a burst of
    concurrent clients, and the kernel's SYN retransmit then shows up as
    a spurious ~1s latency cliff; admission control (not the accept
    queue) is the daemon's intended backpressure mechanism.
    """

    daemon_threads = True
    request_queue_size = 128


class BasecampServer:
    """A :class:`ThreadingHTTPServer` bound to one :class:`BasecampService`.

    ``port=0`` binds an ephemeral port (see :attr:`address`).  Use
    :meth:`start` for a background thread (tests, benchmarks) or
    :meth:`serve_forever` to occupy the calling thread (the CLI).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8642, *,
                 session: Optional[PipelineSession] = None,
                 max_workers: int = DEFAULT_MAX_WORKERS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT):
        if not 0 <= port <= 65535:
            raise EverestError(f"port must be in [0, 65535], got {port}")
        self.service = BasecampService(session=session,
                                       max_workers=max_workers,
                                       queue_limit=queue_limit)
        handler = type("BoundHandler", (_Handler,),
                       {"service": self.service})
        self._httpd = _Server((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "BasecampServer":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="basecamp-serve", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving, join the background thread, close the socket."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._httpd.server_close()
