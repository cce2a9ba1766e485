"""Tests for the ``basecamp serve`` multi-tenant daemon.

Service-level tests drive :class:`BasecampService.handle` directly;
HTTP-level tests boot a real :class:`BasecampServer` on an ephemeral
port and exercise concurrency: single-flight deduplication of identical
in-flight compiles, and admission-control rejection (429 + Retry-After)
when the executor saturates.
"""

import builtins
import http.client
import json
import logging
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.basecamp.serve import (
    FAILURE,
    MAX_BODY_BYTES,
    MAX_RUNTIME_NODES,
    MAX_RUNTIME_TASKS,
    SCHEMA,
    TASK,
    BasecampServer,
    BasecampService,
    ServiceSaturated,
)
from repro.errors import EverestError
from repro.pipeline import PipelineSession
from repro.runtime import default_cluster
from repro.runtime.engine import RuntimeEngine
from repro.workflows import LexisPlatform, WorkflowSpec, WorkflowTask

ADD = """
kernel add {
  index i: 6
  input a[i]: f64
  input b[i]: f64
  output c
  c = a + b
}
"""

SCALE = """
kernel scale {
  index i: 6
  input a[i]: f64
  output c
  c = a * 3.0
}
"""

#: 160,000 iterations per nest: above the tile threshold, so
#: ``compiled-parallel`` fans every nest out to the tile pool.
CHAIN = """
kernel chain {
  index i: 20000, j: 8
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = sin(t0) - b
  out = t1 * t1 + t0
}
"""


#: A described ``/runtime`` workflow: a chain whose last step is offloaded.
WORKFLOW = [
    {"name": "ingest", "cpu_flops": 2e9},
    {"name": "simulate", "after": ["ingest"], "cores": 4, "cpu_flops": 8e9},
    {"name": "predict", "after": ["simulate"], "fpga": True,
     "fpga_seconds": 1e-3, "output_bytes": 64},
]


#: Six tasks in a chain, 0.4 simulated seconds each on a default node.
STEPS = [{"name": "t0"}] + [{"name": f"t{i}", "after": [f"t{i - 1}"]}
                            for i in range(1, 6)]

#: The ``CompiledKernel`` facts an ``/execute`` reply carries.
FACTS = ("flops", "arena_bytes", "arena_slots", "fused_groups",
         "contracted_buffers", "vectorized_nests", "scalar_nests")


def described(*tasks, **fields):
    """A ``/runtime`` body listing ``tasks`` (dicts; a bare string is a
    task of that name with every default)."""
    return {"tasks": [{"name": task} if isinstance(task, str) else task
                      for task in tasks], **fields}


def _breakages(row):
    """(label, value, reason, what the refusal says it got) for each way
    to break ``row``; a reason of None is an entry's own refusal."""
    kinds = row.kind if isinstance(row.kind, tuple) else (row.kind,)
    typed = "must be of type " + " or ".join(k.__name__ for k in kinds)
    wrong = 5 if str in kinds else "x"
    yield "type", wrong, typed, wrong
    if row.default is not None:
        yield "null", None, typed, None
    low, high = row.low, row.high
    if int in kinds or float in kinds:
        unbounded = "must be finite" if float in kinds else typed
        yield "bool", True, typed, True
        yield "nan", float("nan"), unbounded, float("nan")
        yield "inf", float("inf"), unbounded, float("inf")
        bounds = f"must be >= {low}" if high is None \
            else f"must be in [{low}, {high}]"
        if low is not None:
            yield "low-1", low - 1, bounds, low - 1
        if high is not None:
            yield "high+1", high + 1, bounds, high + 1
    if str in kinds and low:
        yield "blank", "", "must not be blank", ""
    if list in kinds and low is not None:
        length = f"must list {low} to {high} {row.name}"
        yield "short", [{}] * (low - 1), length, low - 1
        yield "long", [{}] * (high + 1), length, high + 1
    if row.entries:
        entries, noun = row.entries
        yield "entry", [5], f"must list {noun}" if entries is str else None, 5


def schema_cases():
    """One refused body per way to break each row of the declared
    request schema (``serve.SCHEMA``, ``serve.TASK`` for a task of a
    described ``/runtime`` workflow and ``serve.FAILURE`` for a failure it
    injects), with the whole message it gets."""
    for owner, table in [*SCHEMA.items(), ("task", TASK),
                         ("failure", FAILURE)]:
        for row in table:
            for label, value, reason, got in _breakages(row):
                if owner == "task":
                    holder = {"name": "a"} if row.name != "name" else {}
                    holder[row.name] = value
                    endpoint, body, where = "runtime", described(holder), \
                        "task 'a': "
                elif owner == "failure":
                    holder = {"node": "node0", "at": 1.0, row.name: value}
                    endpoint, body = "runtime", {"fail": [holder]}
                else:
                    endpoint, where = owner, ""
                    body = holder = dict(
                        {} if owner == "runtime" else {"source": ADD},
                        **{row.name: value})
                named = row.name
                if row.default is ...:
                    message = row.error.format(holder)
                elif reason is None:  # an entry that is not an object
                    key = row.entries[0][0]
                    message, named = key.error.format(got), key.name
                else:
                    message = f"{where}{row.name!r} {reason}, got {got!r}"
                yield pytest.param(endpoint, body, named, message,
                                   id=f"{owner}.{row.name}-{label}")


def post(url, endpoint, payload, timeout=30):
    """POST JSON; returns (status, decoded body, headers)."""
    request = urllib.request.Request(
        f"{url}/{endpoint}", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), \
                dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def get(url, path, timeout=30):
    try:
        with urllib.request.urlopen(f"{url}{path}",
                                    timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def server():
    """A started ephemeral-port server, shut down after the test."""
    instance = BasecampServer(port=0).start()
    try:
        yield instance
    finally:
        instance.shutdown()


@pytest.fixture(scope="module")
def shared_server():
    """One server for the tests that read only counter differences (a
    shutdown waits out ``serve_forever``'s half-second poll)."""
    instance = BasecampServer(port=0).start()
    try:
        yield instance
    finally:
        instance.shutdown()


def outcome_of(server, endpoint, payload):
    """POST once; returns (status, body, what the request added to the
    ``/stats`` counters), having checked that nothing is left active."""
    before = server.service.stats()["server"]
    status, body, _ = post(server.url, endpoint, payload)
    after = server.service.stats()["server"]
    assert after["active"] == 0
    return status, body, {
        name: after[name] - before[name]
        for name in ("requests", "ok", "errors", "rejected")
        if after[name] != before[name]}


class TestService:
    def test_compile_reports_kernel_and_key(self):
        service = BasecampService()
        result = service.handle("compile", {"source": ADD})
        assert result["kernel"] == "add"
        assert len(result["key"]) == 64
        assert result["total_cycles"] > 0
        assert result["number_format"] == "f64"
        assert set(result["resources"]) == {"lut", "ff", "dsp", "bram"}

    def test_compile_with_number_format(self):
        service = BasecampService()
        base = service.handle("compile", {"source": ADD})
        fixed = service.handle(
            "compile", {"source": ADD, "number_format": "fixed<8.8>"})
        assert fixed["number_format"].startswith("fixed")
        assert fixed["key"] != base["key"]

    def test_execute_with_seed_and_full_outputs(self):
        service = BasecampService()
        result = service.handle("execute", {
            "source": ADD, "random_seed": 0, "full_outputs": True})
        expected = PipelineSession().execute(
            ADD, _seeded_inputs(service, ADD, 0))
        np.testing.assert_array_equal(
            np.array(result["outputs"]["c"]["values"]),
            expected.outputs["c"])
        assert result["backend"] == "compiled"
        assert result["outputs"]["c"]["shape"] == [6]

    @pytest.mark.parametrize("backend", ["compiled", "compiled-arena"])
    def test_execute_reply_carries_the_kernel_facts(self, backend):
        """What ``basecamp run`` prints of the kernel is in the reply."""
        service = BasecampService()
        reply = service.handle("execute", {
            "source": CHAIN, "random_seed": 0, "backend": backend})
        kernel = PipelineSession().execute(
            CHAIN, _seeded_inputs(service, CHAIN, 0), backend=backend).kernel
        assert {name: reply[name] for name in FACTS} == {
            name: getattr(kernel, name) for name in FACTS}
        assert reply["flops"] > 0
        assert (reply["arena_bytes"] > 0) == (backend == "compiled-arena")

    def test_execute_with_explicit_inputs(self):
        service = BasecampService()
        a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        b = [1.0] * 6
        result = service.handle("execute", {
            "source": ADD, "inputs": {"a": a, "b": b},
            "full_outputs": True})
        assert result["outputs"]["c"]["values"] == \
            [x + 1.0 for x in a]

    def test_requests_cannot_grow_the_tile_pool(self):
        """A ``jobs`` field once sized the pool, which only grew and
        kept every replaced pool's threads: seven requests took the
        process from 3 to 702 threads.  It is an unknown key now."""
        from repro.tensorpipe.parallel import TILE_THRESHOLD, WORKERS

        assert 20000 * 8 > TILE_THRESHOLD
        service = BasecampService()
        request = {"source": CHAIN, "backend": "compiled-parallel",
                   "random_seed": 0}
        before = threading.active_count()
        counts, means = [], set()
        for n in range(10):
            result = service.handle(
                "execute", dict(request, jobs=8000) if n % 2 else request)
            assert result["backend"] == "compiled-parallel"
            means.add(result["outputs"]["out"]["mean"])
            counts.append(threading.active_count())
        assert len(means) == 1
        assert counts[-1] == counts[0] <= before + WORKERS

    def test_execute_missing_input_rejected(self):
        service = BasecampService()
        with pytest.raises(EverestError, match="missing input"):
            service.handle("execute", {"source": ADD})

    def test_runtime_all_policies(self):
        service = BasecampService()
        result = service.handle(
            "runtime", {"policy": "all", "tasks": 8, "nodes": 2})
        names = [entry["policy"] for entry in result["results"]]
        assert len(names) >= 3 and names == sorted(names)
        assert all(entry["makespan"] > 0 for entry in result["results"])

    def test_runtime_described_workflow(self):
        service = BasecampService()
        result = service.handle("runtime", {
            "policy": "all", "nodes": 2, "tasks": WORKFLOW,
            "name": "etl", "no-such-key": [1]})
        assert (result["nodes"], result["tasks"]) == (2, 3)
        names = [row["policy"] for row in result["results"]]
        assert names == ["heft", "min-load", "round-robin"]
        cluster = default_cluster(2)
        for row in result["results"]:
            placed = row["placements"]
            assert list(placed) == ["ingest", "simulate", "predict"]
            assert placed["ingest"]["finish"] <= placed["simulate"]["start"]
            assert placed["simulate"]["finish"] <= placed["predict"]["start"]
            assert placed["simulate"]["cores"] == 4
            assert cluster.node(placed["predict"]["node"]).has_fpga
            assert row["makespan"] == placed["predict"]["finish"] > 0
            assert set(row["utilization"]) == {"node0", "node1"}
            assert row["rescheduled"] == 0
        assert service.stats()["server"]["ok"] == 1

    @pytest.mark.parametrize("policy", ["heft", "min-load", "round-robin"])
    def test_described_workflow_survives_an_injected_failure(self, policy):
        """A ``fail`` entry takes ``node`` down ``at`` simulated seconds:
        what it held is rescheduled, and no placement left on it runs at
        or after that time."""
        failure = {"node": "node0", "at": 1.0}
        body = described(*STEPS, policy=policy, nodes=2)
        calm = BasecampService().handle("runtime", body)
        [row] = BasecampService().handle(
            "runtime", dict(body, fail=[failure]))["results"]
        assert row["rescheduled"] > 0
        assert row["makespan"] > calm["results"][0]["makespan"]
        placed = row["placements"]
        assert list(placed) == [step["name"] for step in STEPS]
        kept = [name for name, where in placed.items()
                if where["node"] == failure["node"]]
        assert kept and all(placed[name]["finish"] < failure["at"]
                            for name in kept)

    def test_failing_an_unknown_node_is_refused_before_the_run(
            self, monkeypatch):
        def ran(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(RuntimeEngine, "run", ran)
        for body in (described(*STEPS), {"tasks": 8}):
            with pytest.raises(EverestError,
                               match="name='node9': unknown node"):
                BasecampService().handle("runtime", dict(
                    body, policy="all", nodes=2,
                    fail=[{"node": "node9", "at": 1.0}]))

    def test_task_defaults_are_workflow_tasks(self):
        """The daemon imports ``repro.workflows`` only once a described
        workflow arrives, so the task table spells its defaults out."""
        task = WorkflowTask("t", lambda *deps: None)
        assert {row.name: row.default for row in TASK[1:]} == {
            "after": task.after, "fpga": task.location == "fpga",
            "fpga_seconds": task.fpga_seconds, "cpu_flops": task.cpu_flops,
            "cores": task.cores, "output_bytes": task.output_bytes}

    @pytest.mark.parametrize("payload, named", [
        (described(*(f"t{i}" for i in range(MAX_RUNTIME_TASKS + 1))),
         f"'tasks' must list 1 to {MAX_RUNTIME_TASKS} tasks, got "
         f"{MAX_RUNTIME_TASKS + 1}"),
        (described(*WORKFLOW, nodes=MAX_RUNTIME_NODES + 1), "'nodes'"),
    ])
    def test_runtime_caps_hold_before_anything_is_planned(
            self, monkeypatch, payload, named):
        def planned(*args, **kwargs):
            raise AssertionError("the request reached the planner")

        monkeypatch.setattr(LexisPlatform, "deploy", planned)
        with pytest.raises(EverestError, match=named):
            BasecampService().handle("runtime", payload)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(EverestError, match="unknown endpoint"):
            BasecampService().handle("frobnicate", {})

    def test_missing_source_rejected(self):
        with pytest.raises(EverestError, match="source"):
            BasecampService().handle("compile", {})

    def test_compile_misses_three_stages(self):
        service = BasecampService()
        first = service.handle("compile", {"source": ADD})
        assert service.handle("compile", {"source": ADD})["key"] == \
            first["key"]
        # parse, canonicalize, hls: the raw lowering is not a cache entry.
        assert service.session.cache.stats.misses == 3

    @pytest.mark.parametrize("endpoint", ["compile", "execute"])
    def test_an_opt_level_key_is_ignored(self, endpoint):
        """``opt_level`` is no field: like any undeclared key nothing
        reads it, whatever its value, and it selects no cache entry."""
        service = BasecampService()
        body = {"source": ADD, "random_seed": 0} \
            if endpoint == "execute" else {"source": ADD}
        plain = service.handle(endpoint, body)
        misses = service.session.cache.stats.misses
        for value in (0, 1, "zzz"):
            reply = service.handle(endpoint, dict(body, opt_level=value))
            assert reply["key"] == plain["key"]
            if endpoint == "execute":
                assert reply["outputs"] == plain["outputs"]
            else:
                assert reply == plain
        assert service.session.cache.stats.misses == misses

    def test_sizing_validated(self):
        with pytest.raises(EverestError):
            BasecampService(max_workers=0)
        with pytest.raises(EverestError):
            BasecampService(queue_limit=-1)

    @pytest.mark.parametrize("port", [-1, 65536, 70000])
    def test_port_out_of_range_is_refused(self, port):
        """Like ``max_workers=0``, an error naming the option (so
        ``basecamp serve --port 70000`` exits 1); it used to be bind()'s
        raw OverflowError traceback."""
        with pytest.raises(EverestError) as error:
            BasecampServer(port=port)
        assert str(error.value) == f"port must be in [0, 65535], got {port}"

    def test_stats_shape(self):
        service = BasecampService()
        service.handle("compile", {"source": ADD})
        stats = service.stats()
        assert stats["server"]["requests"] == 1
        assert stats["server"]["ok"] == 1
        assert stats["cache"]["entries"] > 0
        assert {"leaders", "waits"} == set(stats["singleflight"])

    def test_warm_execute_lowers_once(self, tracer):
        """The lowering that names the kernel's inputs is the one the
        ``execute`` stage runs on: a warm request is one warm-index hit
        for the lowering and one for the kernel, and no stage runs."""
        service = BasecampService()
        request = {"source": ADD, "random_seed": 0}
        service.handle("execute", request)
        tracer.clear()
        service.handle("execute", request)
        warm = [span for span in tracer.spans()
                if span.category in ("stage", "exec")]
        assert all(span.attrs.get("cached") for span in warm
                   if span.category == "stage")
        assert Counter(span.name for span in warm) == {
            "stage:warm": 2, "execute/run": 1}
        assert [span.attrs["detail"] for span in warm
                if span.name == "stage:warm"] == ["lower", "execute"]

    def test_cache_counters_count_warm_hits_as_stage_hits(self):
        """A warm request counts the stage hits it stands for: after this
        sequence ``/stats`` reads what the stage chain alone would count,
        and every reply carries the key the chain computes."""
        service = BasecampService()
        keys = [service.handle("compile", body)["key"] for body in (
            {"source": ADD}, {"source": ADD},
            {"source": ADD, "number_format": "f32"})]
        keys += [service.handle("execute", {"source": ADD,
                                            "random_seed": 0})["key"]
                 for _ in range(2)]
        cache = service.stats()["cache"]
        assert (cache["hits"], cache["misses"], cache["entries"]) == \
            (10, 5, 5)
        f64, f32, executed = (
            "8c81eca282328056e5332aabd7c740279a5a27d06fd9e27d2817abe16e099344",
            "8f2f03a6a0d96637f612aa816c46b4eb7118a8051470bc508c6fc144bed48ba9",
            "efe0502eba464d303995e6724d82434887957098d46d57f4b10cc80b7664d06e")
        assert keys == [f64, f64, f32, executed, executed]

    def test_warm_daemon_keeps_no_per_request_record(self):
        """A long-lived daemon's memory does not grow with its request
        count: after warm-up, 1,000 more ``/execute`` requests leave
        under 64 KiB of new live allocations (a record of a few hundred
        bytes per request would be hundreds of KiB)."""
        import gc
        import tracemalloc

        service = BasecampService()
        request = {"source": ADD, "random_seed": 0}
        for _ in range(400):
            service.handle("execute", dict(request))
        gc.collect()
        tracemalloc.start()
        try:
            for _ in range(1000):
                service.handle("execute", dict(request))
            gc.collect()
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024, f"{grown} bytes kept by 1,000 requests"


def _seeded_inputs(service, source, seed):
    from repro.basecamp.serve import gather_inputs

    lowered = service.session.lower(source)
    return gather_inputs(lowered.module, lowered.kernel.name, {}, seed)


class TestHTTP:
    def test_healthz_and_stats(self, server):
        status, body = get(server.url, "/healthz")
        assert (status, body) == (200, {"status": "ok"})
        status, body = get(server.url, "/stats")
        assert status == 200
        assert body["server"]["requests"] == 0

    @pytest.mark.parametrize("level", [logging.DEBUG, logging.WARNING])
    def test_request_line_is_formatted_only_when_logged(
            self, shared_server, caplog, monkeypatch, level):
        """The per-request line is logged at DEBUG; at the default
        WARNING it is dropped before the client address is looked up."""
        from repro.basecamp import serve

        looked_up = []
        address_string = serve._Handler.address_string
        monkeypatch.setattr(
            serve._Handler, "address_string",
            lambda handler: looked_up.append(1) or address_string(handler))
        logger = logging.getLogger("repro.serve")
        caplog.set_level(level, logger=logger.name)
        logger.addHandler(caplog.handler)  # "repro" may not propagate
        try:
            assert get(shared_server.url, "/healthz")[0] == 200
        finally:
            logger.removeHandler(caplog.handler)
        lines = [record.getMessage() for record in caplog.records
                 if record.name == logger.name]
        if level == logging.DEBUG:
            assert any('"GET /healthz HTTP/1.1" 200' in line
                       for line in lines), lines
            assert looked_up
        else:
            assert lines == [] and looked_up == []

    def test_unknown_path_404(self, server):
        status, body = get(server.url, "/nope")
        assert status == 404
        assert "unknown path" in body["error"]

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/compile", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert "invalid JSON" in json.loads(excinfo.value.read())["error"]

    def test_sdk_error_maps_to_400(self, server):
        status, body, _ = post(server.url, "compile",
                               {"source": "kernel broken {"})
        assert status == 400
        assert "error" in body

    @pytest.mark.parametrize("endpoint, payload, named", [
        # The source is EKL text, never a path: these used to put the
        # first token of a server file in the reply, be a 500
        # FileNotFoundError, and read until MemoryError.
        pytest.param("execute", {"source": "/etc/passwd", "random_seed": 0},
                     "expected 'kernel', found '/'", id="source-a-file"),
        pytest.param("compile", {"source": "nonexistent"},
                     "expected 'kernel', found 'nonexistent'",
                     id="source-no-such-file"),
        pytest.param("compile", {"source": "/dev/zero"},
                     "expected 'kernel', found '/'", id="source-endless-file"),
        # These returned every value, or ran as if no inputs were given.
        pytest.param("execute", {"source": ADD, "random_seed": 0,
                                 "full_outputs": [1]},
                     "'full_outputs' must be of type bool",
                     id="full_outputs-list"),
        pytest.param("execute", {"source": ADD, "random_seed": 0,
                                 "inputs": 0},
                     "'inputs' must be of type dict", id="inputs-zero"),
        pytest.param("execute", {"source": ADD, "random_seed": 0,
                                 "inputs": False},
                     "'inputs' must be of type dict", id="inputs-false"),
        pytest.param("execute", {"source": ADD, "random_seed": 0,
                                 "inputs": ""},
                     "'inputs' must be of type dict", id="inputs-empty-str"),
        pytest.param("execute", {"source": ADD, "random_seed": 0,
                                 "inputs": {"a": "zzz"}}, "input 'a'",
                     id="input-not-numeric"),
        pytest.param("execute", {"source": ADD, "random_seed": 0,
                                 "inputs": {"a": [[1, 2], [3]]}},
                     "input 'a'", id="input-ragged"),
        pytest.param("compile", {"source": ADD, "number_format": "posit<16>"},
                     "unknown number format spec: 'posit<16>'",
                     id="number_format-malformed"),
        # 1.0 == 1, but a float is no int field's value (``true`` is a
        # generated case).
        pytest.param("execute", {"source": ADD, "random_seed": 1.0},
                     "'random_seed'", id="random_seed-float"),
        # A described workflow: the reason names the task and the field.
        pytest.param("runtime", {"tasks": {"name": "a"}},
                     "'tasks' must be of type int", id="tasks-not-a-list"),
        pytest.param("runtime", {"tasks": [5]},
                     "every task must be an object with a string 'name', "
                     "got 5", id="task-not-an-object"),
        pytest.param("runtime", described({"cores": 2}),
                     "string 'name', got {'cores': 2}", id="task-unnamed"),
        pytest.param("runtime", described({"name": ["l"]}),
                     "string 'name', got {'name': ['l']}",
                     id="task-name-not-a-string"),
        # The client names a task by its function's when the name is
        # "": this one collided with the first and lost its placement.
        pytest.param("runtime", described("_no_result", ""),
                     "string 'name', got {'name': ''}", id="task-name-empty"),
        pytest.param("runtime", described("a", "b", "a"),
                     "task 'a': duplicate task name 'a'",
                     id="task-name-twice"),
        pytest.param("runtime", described({"name": "l", "after": 5}),
                     "task 'l': 'after' must be of type list, got 5",
                     id="after-not-a-list"),
        pytest.param("runtime", described({"name": "l", "after": [["l"]]}),
                     "task 'l': 'after' must list task names, got ['l']",
                     id="after-entry-not-a-string"),
        pytest.param("runtime",
                     described("a", {"name": "b", "after": ["ghost"]},
                               {"name": "c", "after": ["b"]}),
                     "unsatisfiable dependencies: ['b', 'c']",
                     id="after-unknown-task"),
        pytest.param("runtime",
                     described("a", {"name": "b", "after": ["c"]},
                               {"name": "c", "after": ["b"]}),
                     "unsatisfiable dependencies: ['b', 'c']",
                     id="after-cycle"),
        pytest.param("runtime", described({"name": "b", "after": ["b"]}),
                     "unsatisfiable dependencies: ['b']", id="after-itself"),
        # Read by truthiness, "false" used to place an FPGA task.
        pytest.param("runtime", described({"name": "a", "fpga": "false"}),
                     "task 'a': 'fpga' must be of type bool, got 'false'",
                     id="fpga-str"),
        pytest.param("runtime", described({"name": "a", "fpga": 1}),
                     "task 'a': 'fpga' must be of type bool, got 1",
                     id="fpga-int"),
        pytest.param("runtime", described({"name": "a", "cores": 99}),
                     "task 'a' requires 99 cores", id="cores-over-any-node"),
        pytest.param("runtime", described("a", policy="bogus"),
                     "unknown scheduling policy 'bogus'",
                     id="described-unknown-policy"),
        # The count's fields are checked whichever form 'tasks' takes.
        pytest.param("runtime", described("a", seed="abc"),
                     "'seed' must be of type int", id="described-seed"),
    ])
    def test_malformed_field_is_a_400_naming_it(self, shared_server,
                                                monkeypatch, endpoint,
                                                payload, named):
        """Most of these used to escape as a ValueError/TypeError from
        inside the handler: a 500 that no outcome counter saw.  None of
        them opens a file."""
        opened = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        status, body, counted = outcome_of(shared_server, endpoint, payload)
        assert status == 400
        assert named in body["error"]
        assert counted == {"requests": 1, "errors": 1}
        assert opened == []

    @pytest.mark.parametrize("endpoint, payload, field, message",
                             list(schema_cases()))
    def test_schema_refusal_is_a_400_naming_the_field(
            self, shared_server, endpoint, payload, field, message):
        """Generated from the schema: each way to break a row is a 400
        with the whole message the row implies, and is counted."""
        status, body, counted = outcome_of(shared_server, endpoint, payload)
        assert (status, body["error"]) == (400, message)
        assert f"'{field}'" in message
        assert counted == {"requests": 1, "errors": 1}
        stats = shared_server.service.stats()["server"]
        assert stats["requests"] \
            == stats["ok"] + stats["errors"] + stats["rejected"]

    def test_fpga_task_without_an_fpga_node_is_a_400(self, shared_server,
                                                     monkeypatch):
        """``default_cluster`` puts a card on every node, so the daemon's
        own cluster cannot show this; one without cards can."""
        monkeypatch.setattr(
            "repro.runtime.default_cluster",
            lambda nodes: default_cluster(nodes, fpgas_per_node=0))
        status, body, counted = outcome_of(shared_server, "runtime",
                                           described(*WORKFLOW))
        assert status == 400
        assert "task 'predict' requires an FPGA" in body["error"]
        assert counted == {"requests": 1, "errors": 1}

    @pytest.mark.parametrize("policy", ["heft", "min-load", "round-robin"])
    def test_described_workflow_is_the_lexis_deployment(self, shared_server,
                                                        policy):
        """What ``/runtime`` answers for a described workflow is what
        deploying the same spec by hand places, to the last digit."""
        status, body, counted = outcome_of(
            shared_server, "runtime",
            described(*WORKFLOW, policy=policy, nodes=3))
        assert (status, counted) == (200, {"requests": 1, "ok": 1})
        spec = WorkflowSpec("by-hand")
        for task in WORKFLOW:
            spec.add(WorkflowTask(
                task["name"], lambda *deps: None, task.get("after", []),
                location="fpga" if task.get("fpga") else "hpc",
                **{key: task[key] for key in ("cpu_flops", "cores",
                                              "fpga_seconds", "output_bytes")
                   if key in task}))
        cluster = default_cluster(3)
        engine = LexisPlatform(cluster, policy).deploy(spec)
        schedule = engine.run()
        [row] = body["results"]
        assert repr(row["placements"]) == repr({
            engine.graph.tasks[task_id].name: {
                "node": placed.node, "start": placed.start,
                "finish": placed.finish, "cores": placed.cores}
            for task_id, placed in schedule.placements.items()})
        assert repr(row["utilization"]) \
            == repr(schedule.utilization(cluster).utilization)
        assert repr((row["policy"], row["makespan"],
                     row["transfers_seconds"])) \
            == repr((policy, schedule.makespan, schedule.transfers_seconds))

    def test_unexpected_handler_error_is_still_a_500(self):
        """Only errors the SDK raises on purpose are the client's fault:
        a bug inside a stage must not be reported as a bad request."""
        session = PipelineSession()

        def broken_hls(payload, **params):
            raise RuntimeError("synthesizer bug")

        session.register("hls", broken_hls, replace=True)
        server = BasecampServer(port=0, session=session).start()
        try:
            status, body, _ = post(server.url, "compile", {"source": ADD})
            assert status == 500
            assert "RuntimeError: synthesizer bug" in body["error"]
            stats = server.service.stats()["server"]
            assert stats["active"] == 0
            assert stats["requests"] == 1 == \
                stats["ok"] + stats["errors"] + stats["rejected"]
        finally:
            server.shutdown()

    def test_arena_allocation_failure_is_a_400_not_a_dead_worker(
            self, server):
        """A kernel whose arena cannot be allocated gets an error reply;
        the C function reports failure instead of writing through NULL,
        and the daemon goes on serving."""
        from repro.tensorpipe.cbackend import find_cc, probe_supported

        if find_cc() is None or probe_supported(find_cc()) is None:
            pytest.skip("no working C compiler on this host")
        hog = """
kernel hog {
  index i: 4, h: 35184372088832
  input a[i]: i64
  input idx[i]: i64
  output out
  t = a + h
  out = t[i, idx]
}
"""
        status, body, _ = post(server.url, "execute", {
            "source": hog, "backend": "cbackend",
            "inputs": {"a": [0, 1, 2, 3], "idx": [3, 0, 2, 1]}})
        assert status == 400
        assert "could not allocate" in body["error"]
        status, body, _ = post(server.url, "execute", {
            "source": ADD, "backend": "cbackend", "random_seed": 0})
        assert status == 200 and body["backend"] == "cbackend"
        _, stats = get(server.url, "/stats")
        assert stats["server"]["errors"] == 1 and stats["server"]["ok"] == 1

    def test_cache_shared_across_requests(self, server):
        status, first, _ = post(server.url, "compile", {"source": ADD})
        assert status == 200
        status, second, _ = post(server.url, "compile", {"source": ADD})
        assert status == 200
        assert second == first
        _, stats = get(server.url, "/stats")
        assert stats["cache"]["hits"] > 0

    def test_keep_alive_replies_do_not_stall(self, server):
        """Regression: headers and body left as two TCP segments, so
        every reply on a persistent connection waited out Nagle plus
        the client's ~40 ms delayed ACK."""
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        body = json.dumps({"source": ADD})
        latencies = []
        try:
            for _ in range(4):
                for method, path, data in (("GET", "/healthz", None),
                                           ("GET", "/metrics", None),
                                           ("POST", "/compile", body)):
                    started = time.perf_counter()
                    connection.request(method, path, data)
                    response = connection.getresponse()
                    response.read()
                    latencies.append(time.perf_counter() - started)
                    assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.025

    def test_oversized_body_413_closes_connection(self, server):
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            connection.putrequest("POST", "/compile")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert "too large" in json.loads(response.read())["error"]
        finally:
            connection.close()

    @pytest.mark.parametrize("declared", ["abc", "-5", "1e3", "0x10"])
    def test_malformed_content_length_400_closes_connection(
            self, shared_server, declared):
        """``int()`` of the header raised inside the handler (500 naming
        ``ValueError``), and a negative length reached ``rfile.read``."""
        connection = http.client.HTTPConnection(*shared_server.address,
                                                timeout=30)
        try:
            connection.putrequest("POST", "/compile")
            connection.putheader("Content-Length", declared)
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert f"invalid Content-Length header {declared!r}" \
                in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert get(shared_server.url, "/healthz")[0] == 200

    def test_single_flight_dedups_identical_inflight_compiles(self):
        # (clients, max_workers, queue_limit): a handful of tenants, and
        # a burst four times wider than the executor.
        for clients, max_workers, queue_limit in ((6, 8, 16), (64, 16, 64)):
            session = PipelineSession()
            release = threading.Event()
            hls_runs = []
            original = session.registry.get("hls")

            def gated_hls(payload, **params):
                hls_runs.append(1)
                assert release.wait(timeout=30)
                return original.fn(payload, **params)

            session.register("hls", gated_hls, replace=True)
            server = BasecampServer(port=0, session=session,
                                    max_workers=max_workers,
                                    queue_limit=queue_limit).start()
            try:
                with ThreadPoolExecutor(max_workers=clients) as pool:
                    futures = [
                        pool.submit(post, server.url, "compile",
                                    {"source": SCALE})
                        for _ in range(clients)
                    ]
                    # Wait until every client is admitted and in flight,
                    # then release the gated leader.
                    deadline = time.monotonic() + 30
                    while server.service.stats()["server"]["active"] \
                            < clients:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    release.set()
                    replies = [f.result(timeout=60) for f in futures]
                assert all(status == 200 for status, _, _ in replies)
                bodies = [body for _, body, _ in replies]
                assert all(body == bodies[0] for body in bodies)
                # The demonstrable dedup claim: concurrent identical
                # compiles executed the HLS stage exactly once.
                assert len(hls_runs) == 1, clients
                assert session.singleflight.waits > 0
            finally:
                server.shutdown()

    def test_saturation_rejected_with_retry_after(self):
        # (max_workers, queue_limit, clients): one client too many, and
        # a burst of four times the capacity.
        for max_workers, queue_limit, clients in ((1, 1, 3), (2, 4, 24)):
            capacity = max_workers + queue_limit
            session = PipelineSession()
            release = threading.Event()
            original = session.registry.get("hls")

            def gated_hls(payload, **params):
                assert release.wait(timeout=30)
                return original.fn(payload, **params)

            session.register("hls", gated_hls, replace=True)
            server = BasecampServer(port=0, session=session,
                                    max_workers=max_workers,
                                    queue_limit=queue_limit).start()
            try:
                with ThreadPoolExecutor(max_workers=clients) as pool:
                    futures = [
                        pool.submit(post, server.url, "compile",
                                    {"source": SCALE})
                        for _ in range(clients)
                    ]
                    # Executor full, queue full: everyone past capacity is
                    # turned away at once, while the admitted are held.
                    deadline = time.monotonic() + 30
                    while True:
                        stats = server.service.stats()["server"]
                        if (stats["active"], stats["rejected"]) \
                                == (capacity, clients - capacity):
                            break
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    release.set()
                    replies = [f.result(timeout=60) for f in futures]
                rejected = [reply for reply in replies if reply[0] == 429]
                assert len(rejected) == clients - capacity
                for _, body, headers in rejected:
                    assert "saturated" in body["error"]
                    assert int(headers["Retry-After"]) >= 1
                    assert body["retry_after"] == int(headers["Retry-After"])
                assert sum(reply[0] == 200 for reply in replies) == capacity
                stats = server.service.stats()["server"]
                assert stats["rejected"] == clients - capacity
                assert stats["ok"] == capacity
            finally:
                server.shutdown()

    def test_clean_shutdown_idempotent_socket(self):
        server = BasecampServer(port=0).start()
        url = server.url
        assert get(url, "/healthz")[0] == 200
        server.shutdown()
        with pytest.raises((urllib.error.URLError, ConnectionError,
                            OSError)):
            urllib.request.urlopen(f"{url}/healthz", timeout=2)

    def test_saturated_error_type(self):
        error = ServiceSaturated("full", retry_after=7)
        assert isinstance(error, EverestError)
        assert error.retry_after == 7


def head(*fields, line="POST /compile HTTP/1.1", body=b""):
    """A raw request: ``line``, a ``Host`` field, ``fields``, the blank
    line and ``body``."""
    return "".join(f"{text}\r\n" for text in (line, "Host: test") + fields
                   ).encode("latin-1") + b"\r\n" + body


def field_line(size):
    """One header field line of ``size`` bytes, its CRLF included."""
    return b"X-Pad: " + b"a" * (size - 9) + b"\r\n"


def read_reply(reader):
    """(status, fields by lower-case name, body) of one reply, which must
    open with a status line."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    fields = {}
    for line in iter(reader.readline, b"\r\n"):
        name, _, value = line.decode("latin-1").partition(":")
        fields[name.lower()] = value.strip()
    return int(status_line.split()[1]), fields, \
        reader.read(int(fields["content-length"]))


_ADD_BODY = json.dumps({"source": ADD}).encode()
_CHUNKED = b"%x\r\n%s\r\n0\r\n\r\n" % (len(_ADD_BODY), _ADD_BODY)

#: (raw request, status, text the JSON error must hold).  A head cut off
#: where the daemon stops reading leaves nothing unread behind a refusal.
REFUSED_HEADS = {
    "transfer-encoding": (head("Transfer-Encoding: chunked", body=_CHUNKED),
                          400, "Transfer-Encoding is not supported"),
    "two-content-lengths": (head("Content-Length: 2",
                                 f"Content-Length: {len(_ADD_BODY)}",
                                 body=_ADD_BODY),
                            400, "more than one Content-Length"),
    "space-before-colon": (head(f"Content-Length : {len(_ADD_BODY)}",
                                body=_ADD_BODY),
                           400, "'Content-Length :"),
    "obs-fold": (head("X-Note: one", " two"), 400, "' two'"),
    "no-colon": (head("not a field"), 400, "'not a field'"),
    "request-line": (b"GET\r\n\r\n", 400, "Bad request syntax ('GET')"),
    "version": (b"GET /healthz HTTP/1.x\r\n\r\n", 400,
                "Bad request version ('HTTP/1.x')"),
    "http-0.9-post": (b"POST /compile\r\n\r\n", 400,
                      "Bad HTTP/0.9 request type ('POST')"),
    "414": (b"GET /" + b"a" * (65537 - 16) + b" HTTP/1.1\r\n", 414,
            "Request-URI Too Long"),
    "431-line": (b"GET /healthz HTTP/1.1\r\n" + field_line(65537), 431,
                 "Line too long"),
    "431-fields": (b"GET /healthz HTTP/1.1\r\n" + b"".join(
        b"X-%d: 1\r\n" % index for index in range(101)), 431,
                   "Too many headers"),
    "501": (head(line="PUT /compile HTTP/1.1"), 501,
            "Unsupported method ('PUT')"),
    "505": (b"GET /healthz HTTP/2.0\r\n\r\n", 505,
            "Invalid HTTP version (2.0)"),
}


class TestRequestHead:
    """The daemon reads its own request head: raw requests over a socket,
    each followed by a ``/healthz`` that must still answer."""

    @pytest.fixture(autouse=True)
    def _still_healthy(self, shared_server):
        yield
        assert get(shared_server.url, "/healthz")[0] == 200

    @staticmethod
    def connect(server):
        sock = socket.create_connection(server.address, timeout=30)
        return sock, sock.makefile("rb")

    @pytest.mark.parametrize("case", sorted(REFUSED_HEADS))
    def test_refusal_is_json_and_closes(self, shared_server, case):
        data, status, named = REFUSED_HEADS[case]
        sock, reader = self.connect(shared_server)
        with sock, reader:
            sock.sendall(data)
            got, fields, body = read_reply(reader)
            assert (got, fields["connection"], fields["content-type"]) \
                == (status, "close", "application/json")
            assert named in json.loads(body)["error"]
            assert reader.read(1) == b""

    @pytest.mark.parametrize("name", ["content-length", "CoNtEnT-LeNgTh"])
    def test_field_names_are_case_insensitive(self, shared_server, name):
        sock, reader = self.connect(shared_server)
        with sock, reader:
            sock.sendall(head(f"{name}: {len(_ADD_BODY)}", body=_ADD_BODY))
            status, _, body = read_reply(reader)
            assert (status, json.loads(body)["kernel"]) == (200, "add")

    @pytest.mark.parametrize("version, connection, closes", [
        ("HTTP/1.0", None, True),
        ("HTTP/1.0", "keep-alive", False),
        ("HTTP/1.1", None, False),
        ("HTTP/1.1", "close", True),
    ])
    def test_connection_persists_by_version_and_field(
            self, shared_server, version, connection, closes):
        fields = (f"Connection: {connection}",) if connection else ()
        sock, reader = self.connect(shared_server)
        with sock, reader:
            sock.sendall(head(*fields, line=f"GET /healthz {version}"))
            assert read_reply(reader)[0] == 200
            if closes:
                assert reader.read(1) == b""
            else:
                sock.sendall(head(line="GET /healthz HTTP/1.1"))
                assert read_reply(reader)[0] == 200

    def test_expect_100_continue_gets_the_interim_reply(self, shared_server):
        sock, reader = self.connect(shared_server)
        with sock, reader:
            sock.sendall(head("Expect: 100-continue",
                              f"Content-Length: {len(_ADD_BODY)}"))
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(_ADD_BODY)
            status, _, body = read_reply(reader)
            assert (status, json.loads(body)["kernel"]) == (200, "add")

    @pytest.mark.parametrize("fields", [
        pytest.param([b"X-%d: 1\r\n" % index for index in range(99)],
                     id="100-fields"),
        pytest.param([field_line(65536)], id="65536-byte-line"),
    ])
    def test_a_head_at_the_limits_is_accepted(self, shared_server, fields):
        """With ``Host``, 100 fields; the 101st, or one byte more on the
        line, is a 431 (``REFUSED_HEADS``)."""
        sock, reader = self.connect(shared_server)
        with sock, reader:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
                         + b"".join(fields) + b"\r\n")
            assert read_reply(reader)[0] == 200
