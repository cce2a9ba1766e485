"""serve-smoke: boot the real ``basecamp serve`` CLI and hammer it.

Spawns ``python -m repro.basecamp.cli serve --port 0`` as a subprocess
(the same entry point a deployment would run), fires concurrent clients
at it over a mixed compile/execute workload, then asserts the
multi-tenant contract end to end:

* every request succeeds (no 5xx, no rejection at this load), a
  described workflow with an FPGA step among them;
* a body with one field of the wrong type, one per row of the declared
  request schema (``serve.SCHEMA`` and ``serve.TASK``), is a 400 that
  names the field, and the ``/stats`` counters still add up;
* a malformed ``Content-Length`` is a 400, not a 500;
* a head the daemon cannot frame (``Transfer-Encoding``, two
  ``Content-Length`` fields, whitespace before a colon, a folded line, a
  line without a colon) is a 400 naming the header, and ``/healthz``
  still answers;
* the shared stage cache serves the repeats (hit rate over /stats);
* identical concurrent compiles deduplicate (single-flight counters);
* SIGINT produces a clean shutdown (exit status 0, shutdown banner).

Run via ``make serve-smoke``; exits nonzero on the first violation.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.basecamp.serve import SCHEMA, TASK  # noqa: E402

KERNELS = ["""
kernel smoke_a {
  index i: 8
  input a[i]: f64
  input b[i]: f64
  output c
  c = a * b + 1.0
}
""", """
kernel smoke_b {
  index i: 6, j: 3
  input a[i, j]: f64
  output c
  c = sum[j](a * a)
}
"""]

WORKFLOW = {"policy": "all", "nodes": 2, "tasks": [
    {"name": "ingest", "cpu_flops": 2e9},
    {"name": "simulate", "after": ["ingest"], "cores": 4},
    {"name": "predict", "after": ["simulate"], "fpga": True,
     "fpga_seconds": 1e-3},
]}

#: (header lines of a ``POST /compile`` with a 2-byte body, text its
#: 400 must hold): one head per framing refusal.
FRAMING = [
    ("Transfer-Encoding: chunked", "Transfer-Encoding"),
    ("Content-Length: 2\r\nContent-Length: 2", "Content-Length"),
    ("Content-Length : 2", "'Content-Length :"),
    ("X-Note: one\r\n two", "' two'"),
    ("not a field", "'not a field'"),
]

N_REQUESTS = 80
N_CLIENTS = 8


def post(url: str, endpoint: str, payload: dict) -> int:
    request = urllib.request.Request(
        f"{url}/{endpoint}", data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        json.loads(response.read())
        return response.status


def wrong_type_bodies():
    """(endpoint, body, field) with one field of each schema row given a
    value of the wrong type."""
    def wrong(row):
        kinds = row.kind if isinstance(row.kind, tuple) else (row.kind,)
        return 5 if str in kinds else "x"

    for endpoint, table in SCHEMA.items():
        base = {} if endpoint == "runtime" else {"source": KERNELS[0]}
        for row in table:
            yield endpoint, {**base, row.name: wrong(row)}, row.name
    for row in TASK:
        yield "runtime", {"tasks": [{"name": "a", row.name: wrong(row)}]}, \
            row.name


def refusal(url: str, endpoint: str, payload: dict):
    """The (status, error message) of a POST the daemon must refuse."""
    try:
        post(url, endpoint, payload)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())["error"]
    return 200, ""


def content_length_probe(url: str, declared: str) -> int:
    """The status of a POST whose ``Content-Length`` is ``declared``."""
    connection = http.client.HTTPConnection(url.split("//")[1], timeout=60)
    try:
        connection.putrequest("POST", "/compile")
        connection.putheader("Content-Length", declared)
        connection.endheaders()
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


def framing_refusal(url: str, fields: str):
    """The (status, error message) of a ``POST /compile`` whose head
    holds ``fields``, read until the daemon closes the connection."""
    host, port = url.split("//")[1].split(":")
    with socket.create_connection((host, int(port)), timeout=60) as sock:
        sock.sendall(f"POST /compile HTTP/1.1\r\nHost: smoke\r\n{fields}"
                     "\r\n\r\n{}".encode("latin-1"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)["error"]


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.basecamp.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    try:
        deadline = time.monotonic() + 30
        banner = ""
        while "listening on" not in banner:
            assert time.monotonic() < deadline, "daemon never came up"
            banner = daemon.stdout.readline()
        url = "http://" + banner.split("http://")[1].split(" ")[0]
        print(f"serve-smoke: daemon up at {url}")

        def client(i: int) -> int:
            kernel = KERNELS[i % len(KERNELS)]
            if i == N_REQUESTS - 1:
                return post(url, "runtime", WORKFLOW)
            if i % 4 == 3:
                return post(url, "execute",
                            {"source": kernel, "random_seed": 0})
            return post(url, "compile", {"source": kernel})

        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            statuses = list(pool.map(client, range(N_REQUESTS)))
        assert statuses == [200] * N_REQUESTS, \
            f"non-200 replies: {sorted(set(statuses))}"
        bad_bodies = list(wrong_type_bodies())
        for endpoint, payload, field in bad_bodies:
            status, message = refusal(url, endpoint, payload)
            assert status == 400 and f"'{field}'" in message, \
                f"/{endpoint} {payload}: {status} {message!r}"
        print(f"serve-smoke: {len(bad_bodies)} wrong-type bodies, one per "
              "schema row, each a 400 naming its field")
        probes = [content_length_probe(url, bad) for bad in ("abc", "-5")]
        assert probes == [400, 400], f"malformed Content-Length: {probes}"
        for fields, named in FRAMING:
            status, message = framing_refusal(url, fields)
            assert status == 400 and named in message, \
                f"{fields!r}: {status} {message!r}"
        with urllib.request.urlopen(f"{url}/healthz", timeout=30) as response:
            assert response.status == 200
        print(f"serve-smoke: {len(FRAMING)} heads the daemon cannot frame, "
              "each a 400 naming the header")

        with urllib.request.urlopen(f"{url}/stats", timeout=30) as response:
            stats = json.loads(response.read())
        hit_rate = stats["cache"]["hit_rate"]
        flight = stats["singleflight"]
        server = stats["server"]
        assert (server["requests"], server["ok"], server["errors"]) \
            == (N_REQUESTS + len(bad_bodies), N_REQUESTS, len(bad_bodies))
        assert server["requests"] \
            == server["ok"] + server["errors"] + server["rejected"]
        assert hit_rate > 0.8, \
            f"shared cache not shared: hit rate {hit_rate:.2%}"
        print(f"serve-smoke: {N_REQUESTS} requests from {N_CLIENTS} "
              f"clients ok; cache hit rate {hit_rate:.1%}, "
              f"single-flight waits {flight['waits']}")
    finally:
        daemon.send_signal(signal.SIGINT)
        try:
            output, _ = daemon.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            raise AssertionError("daemon did not shut down on SIGINT")
    assert daemon.returncode == 0, \
        f"daemon exited {daemon.returncode}:\n{output}"
    assert "shut down after" in output, f"no shutdown banner:\n{output}"
    print("serve-smoke: clean shutdown (exit 0)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
