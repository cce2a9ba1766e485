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
    request schema (``serve.SCHEMA``, and ``serve.TASK`` for a task of a
    described ``/runtime`` workflow), with the whole message it gets."""
    for owner, table in [*SCHEMA.items(), ("task", TASK)]:
        for row in table:
            for label, value, reason, got in _breakages(row):
                if owner == "task":
                    holder = {"name": "a"} if row.name != "name" else {}
                    holder[row.name] = value
                    endpoint, body, where = "runtime", described(holder), \
                        "task 'a': "
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

    def test_bad_opt_level_rejected(self):
        """An EverestError is the daemon's 400; 2 was the inliner's level
        and -1 used to run as 0."""
        service = BasecampService()
        for level in (9, 2, -1):
            for endpoint in ("compile", "execute"):
                with pytest.raises(EverestError,
                                   match=r"'opt_level' must be in \[0, 1\]"):
                    service.handle(endpoint, {"source": ADD,
                                              "opt_level": level})

    def test_default_opt_level_is_the_explicit_one(self):
        service = BasecampService()
        default = service.handle("compile", {"source": ADD})
        explicit = service.handle("compile", {"source": ADD, "opt_level": 1})
        assert default["key"] == explicit["key"]
        # parse, canonicalize, hls: the raw lowering is not a cache entry.
        assert service.session.cache.stats.misses == 3

    def test_sizing_validated(self):
        with pytest.raises(EverestError):
            BasecampService(max_workers=0)
        with pytest.raises(EverestError):
            BasecampService(queue_limit=-1)

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
        ``execute`` stage runs on: one cache probe per cached stage a
        request, and the uncached raw lowering is not run at all."""
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
            "stage:frontend-parse": 1, "stage:canonicalize": 1,
            "stage:execute": 1, "execute/run": 1}

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
    from repro.basecamp.inputs import gather_inputs

    lowered = service.session.lower(source)
    return gather_inputs(lowered.module, lowered.kernel.name, {}, seed)


class TestHTTP:
    def test_healthz_and_stats(self, server):
        status, body = get(server.url, "/healthz")
        assert (status, body) == (200, {"status": "ok"})
        status, body = get(server.url, "/stats")
        assert status == 200
        assert body["server"]["requests"] == 0

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
        # 1.0 == 1 used to pass a membership test and be fingerprinted
        # by its repr, one cache entry per spelling (``true`` too: that
        # one is a generated case).
        pytest.param("compile", {"source": ADD, "opt_level": 1.0},
                     "'opt_level'", id="opt_level-float"),
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
        client = LexisPlatform(cluster, policy).deploy(spec)
        schedule = client.compute()
        [row] = body["results"]
        assert repr(row["placements"]) == repr({
            client.graph.tasks[task_id].name: {
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
