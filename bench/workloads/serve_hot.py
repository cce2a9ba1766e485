"""``serve_hot``: the daemon path with every stage-cache access a hit.

Two clients (one per core), each on one persistent HTTP/1.1 connection
with stock ``http.client`` socket options, send a fixed mix to an
in-process ``BasecampServer(max_workers=2, queue_limit=16)``: per block of
24 requests, 12 ``/compile`` (alternating f64/f32), 8 ``/execute`` (small
kernels, ``compiled`` backend, inputs in the request) and 4 ``/runtime``
(10 tasks on 2 nodes).  All eight kernels are primed, so the session only
reads its cache; HTTP, JSON and admission are the rest of the work.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from bench import gen
from bench.loadgen import Block
from bench.spans import Recorder
from bench.workloads import Base

from repro.basecamp.serve import BasecampServer
from repro.frontends.ekl import parse_kernel, run_kernel
from repro.pipeline import PipelineSession
from repro.runtime import default_cluster
from repro.runtime.engine import RuntimeEngine, synthetic_workflow

CLIENTS = 2
KERNELS = 8
MIX = ("compile",) * 12 + ("execute",) * 8 + ("runtime",) * 4
RUNTIME_SEEDS = 4
ENDPOINTS = ("compile", "execute", "runtime")

#: (kind, path, body, check of the decoded reply)
Request = Tuple[int, str, bytes, Callable[[dict], bool]]
#: (latency, HTTP status, reply body)
Reply = Tuple[float, int, bytes]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


class Workload(Base):
    name = "serve_hot"
    COUNTED_BLOCKS, COUNTED_BLOCK_OPS = 2, len(MIX)
    #: Calls are counted on the server's handler threads only.
    COUNT_MAIN_THREAD = False
    UNCOUNTED_THREADS = ("basecamp-serve", "bench-client")

    def setup(self, seed: int, recorder: Recorder) -> None:
        self.recorder = recorder
        self.rng = random.Random(seed)
        data_rng = np.random.default_rng(seed)
        self.server = BasecampServer(port=0, max_workers=CLIENTS,
                                     queue_limit=16).start()
        self.requests: Dict[str, List[Request]] = {
            endpoint: [] for endpoint in ENDPOINTS}
        reference = PipelineSession()
        self.sources = []
        for shape in gen.SHAPES[:KERNELS]:
            name = f"hot{len(self.sources)}"
            source = gen.render(shape, name, self.rng)
            self.sources.append(source)
            for number_format in (None, "f32"):
                flops = reference.compile(
                    source, number_format=number_format).report.flops
                self._add("compile",
                          {"source": source, "number_format": number_format},
                          lambda reply, name=name, flops=flops:
                          reply["kernel"] == name and reply["flops"] == flops)
            inputs = gen.inputs_for(shape, data_rng)
            mean = float(run_kernel(parse_kernel(source), inputs)
                         ["out"].mean())
            self._add("execute",
                      {"source": source, "backend": "compiled",
                       "inputs": {k: v.tolist() for k, v in inputs.items()}},
                      lambda reply, mean=mean:
                      reply["backend"] == "compiled" and not reply["fallback"]
                      and _close(reply["outputs"]["out"]["mean"], mean))
        for workflow_seed in range(RUNTIME_SEEDS):
            engine = RuntimeEngine(default_cluster(2), policy="heft")
            synthetic_workflow(engine, n_tasks=10, seed=workflow_seed)
            makespan = engine.run().makespan
            self._add("runtime",
                      {"policy": "heft", "tasks": 10, "nodes": 2,
                       "seed": workflow_seed},
                      lambda reply, makespan=makespan:
                      reply["results"][0]["makespan"] == makespan)
        self.sent = {endpoint: 0 for endpoint in ENDPOINTS}
        host, port = self.server.address
        self.address = (host, port)
        self.connections = [http.client.HTTPConnection(host, port)
                            for _ in range(CLIENTS)]
        self.pool = ThreadPoolExecutor(CLIENTS,
                                       thread_name_prefix="bench-client")
        self.reply_bytes: List[int] = []
        # Prime every kernel and format.
        for requests in self.requests.values():
            for request in requests:
                self._send_fresh(request)

    def _add(self, endpoint: str, payload: dict,
             check: Callable[[dict], bool]) -> None:
        kind = sum(len(requests) for requests in self.requests.values())
        self.requests[endpoint].append(
            (kind, f"/{endpoint}", json.dumps(payload).encode(), check))

    def instrument(self) -> None:
        """Span the service's ``handle`` under the client span whose id the
        request carries (the service ignores unknown payload keys)."""
        recorder, service = self.recorder, self.server.service
        original = service.handle

        def handle(endpoint, payload):
            parent = payload.get("op", 0) if isinstance(payload, dict) else 0
            if not parent:
                return original(endpoint, payload)
            with recorder.span(f"serve.handle.{endpoint}", parent=parent):
                return original(endpoint, payload)

        service.handle = handle

    def _send(self, connection, request: Request) -> Reply:
        _, path, body, _ = request
        with self.recorder.span("op") as span:
            if span is not None:
                body = body[:-1] + b',"op":%d}' % span.id
            start = time.perf_counter()
            connection.request("POST", path, body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            data = response.read()
            return time.perf_counter() - start, response.status, data

    def _send_fresh(self, request: Request) -> Reply:
        """One request on a connection of its own: no keep-alive, so none
        of the stall a reply written in two segments causes."""
        connection = http.client.HTTPConnection(*self.address)
        try:
            return self._send(connection, request)
        finally:
            connection.close()

    def _next_requests(self) -> List[Request]:
        mix = list(MIX)
        self.rng.shuffle(mix)
        chosen = []
        for endpoint in mix:
            requests = self.requests[endpoint]
            chosen.append(requests[self.sent[endpoint] % len(requests)])
            self.sent[endpoint] += 1
        return chosen

    def block(self, ops: Optional[int] = None) -> Block:
        """One block of the mix per client pair (``ops`` whole blocks)."""
        latencies: List[float] = []
        kinds: List[int] = []
        checks: List[Tuple[Request, Reply]] = []
        for _ in range((ops or len(MIX)) // len(MIX)):
            requests = self._next_requests()
            shares = [requests[client::CLIENTS] for client in range(CLIENTS)]
            for share, replies in zip(shares, self.pool.map(
                    lambda pair: [self._send(pair[0], request)
                                  for request in pair[1]],
                    zip(self.connections, shares))):
                latencies.extend(reply[0] for reply in replies)
                kinds.extend(request[0] for request in share)
                checks.extend(zip(share, replies))
        return Block(latencies, kinds, lambda: sum(
            not self._correct(request, reply) for request, reply in checks))

    def _correct(self, request: Request, reply: Reply) -> bool:
        _, status, data = reply
        self.reply_bytes.append(len(data))
        if status != 200:
            return False
        try:
            return bool(request[3](json.loads(data)))
        except (ValueError, KeyError, IndexError, TypeError):
            return False

    def layers(self) -> Dict[str, float]:
        _, own, inclusive = self.recorder.per_op()
        metrics: Dict[str, float] = {}
        for endpoint in ENDPOINTS:
            handled = [span.seconds for span in self.recorder.spans
                       if span.name == f"serve.handle.{endpoint}"]
            metrics[f"serve.handle_ms.{endpoint}"] = \
                1e3 * statistics.mean(handled)
        # Client-observed latency not spent in ``handle``: HTTP parsing,
        # JSON, the socket, and the stall of a reply sent as two segments.
        metrics["serve.http_overhead_ms"] = 1e3 * own["op"]
        metrics["serve.reply_bytes"] = statistics.mean(self.reply_bytes)
        # The same mix, stall-free.
        metrics["serve.fresh_conn_ms_p50"] = 1e3 * statistics.median(
            self._send_fresh(request)[0]
            for request in self._next_requests() + self._next_requests())
        session = self.server.service.session
        samples = []
        for index in range(200):
            source = self.sources[index % KERNELS]
            start = time.perf_counter()
            session.compile(source)
            samples.append(time.perf_counter() - start)
        metrics["pipeline.hit_path_us"] = 1e6 * statistics.median(samples)
        stats = self.server.service.stats()
        metrics["pipeline.cache_hit_share"] = stats["cache"]["hit_rate"]
        metrics["pipeline.cache_entries"] = stats["cache"]["entries"]
        metrics["pipeline.singleflight_waits"] = \
            stats["singleflight"]["waits"]
        metrics["serve.rejected"] = stats["server"]["rejected"]
        return metrics

    def close(self) -> None:
        self.pool.shutdown()
        for connection in self.connections:
            connection.close()
        self.server.shutdown()
