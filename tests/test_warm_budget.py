"""Call budget of one warm call: a cache hit that runs a compiled kernel.

``python3 -m bench`` gates ``py_calls_per_op`` at 1 % on ``exec_stream``
(a warm ``session.execute``) and ``serve_hot`` (warm daemon requests);
this is the same count taken in-process, under ``sys.setprofile`` with
``call`` and ``c_call`` events, on calls whose every stage-cache access
is a hit.  A warm call is what a ``basecamp serve`` tenant repeats, so a
change that makes each one re-derive what the first call already knew
(a key, an IR attribute, a buffer layout) fails here, locally.

The budgets are the measured counts plus 5 %: the room a per-request
cost such as an LRU touch or a deadline check has to fit in.  When a
change makes the path cheaper, lower them to the new count plus 5 % (a
budget of 0 makes the failure message print it); they are only ever
lowered.  A failure names the piece that grew: each call is charged to
the innermost of the warm-index lookup, the stage keys, the buffer
binding, the stage bookkeeping (cache lookup, single-flight), the
kernel call, the runtime engine, or ``other``.  A warm call is one
warm-index lookup per flow, so the stage keys and the stage bookkeeping
read 0 here: a call charged to either means a warm request walks the
stage chain again.

``/compile over a socket`` is the same ``/compile`` sent to a live
daemon on a keep-alive connection: the calls on its handler thread from
the request line to the written reply, so the HTTP plumbing (the
request head, the reply) is inside the count.
"""

import copy
import functools
import gc
import json
import os
import socket
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from repro.basecamp.serve import BasecampServer, BasecampService, _Handler
from repro.pipeline import PipelineSession, cache
from repro.runtime.engine import RuntimeEngine, synthetic_workflow
from repro.tensorpipe import affine_interp, codegen
from repro.tensorpipe.cbackend import find_cc, probe_supported

CHAIN = """
kernel chain {
  index i: 16, j: 4
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = a * b + a
  t1 = t0 * b - a
  out = sum[j](t1 * t0)
}
"""

_RNG = np.random.default_rng(0)
INPUTS = {"a": _RNG.normal(size=(16, 4)), "b": _RNG.normal(size=(16, 4))}

#: name -> (measured calls, budget = measured * 1.05 rounded down).  A
#: warm ``execute`` stays within 60 calls on both backends.
BUDGETS = {
    "execute[compiled]": (36, 37),
    "execute[cbackend]": (34, 35),
    "/compile": (56, 58),
    "/execute": (134, 140),
    "/runtime": (1_170, 1_228),
    "/compile over a socket": (146, 153),
}

#: The request body of each daemon endpoint.
BODIES = {
    "/compile": {"source": CHAIN, "number_format": "f32"},
    "/execute": {"source": CHAIN, "backend": "compiled",
                 "inputs": {name: array.tolist()
                            for name, array in INPUTS.items()}},
    "/runtime": {"policy": "heft", "tasks": 10, "nodes": 2, "seed": 0},
}

_PIECE_OF_CODE = {fn.__code__: piece for fn, piece in (
    (cache.StageCache.warm, "warm index"),
    (cache.fingerprint, "stage keys"),
    (PipelineSession.stage_key, "stage keys"),
    (affine_interp.bind_buffers, "binding"),
    (PipelineSession._run_stage, "stage bookkeeping"),
    (codegen.CompiledKernel.run, "kernel call"),
    (synthetic_workflow, "runtime engine"),
    (RuntimeEngine.run, "runtime engine"),
    (_Handler.parse_request, "request head"),
    (_Handler._reply, "reply"),
)}


def _charging(charged, files):
    """A profile hook that counts calls per innermost piece (``other``:
    under none) into ``charged`` and adds each Python callee's file to
    ``files``."""
    under = ["other"]

    def hook(frame, event, arg):
        if event == "call":
            piece = _PIECE_OF_CODE.get(frame.f_code)
            if piece is not None:
                under.append(piece)
            charged[under[-1]] += 1
            files.add(frame.f_code.co_filename)
        elif event == "c_call":
            charged[under[-1]] += 1
        elif event == "return" and frame.f_code in _PIECE_OF_CODE:
            under.pop()

    return hook


def _count_calls(call, argument):
    """Calls per innermost piece."""
    charged = Counter()
    hook = _charging(charged, set())
    # A collection in the middle would run whatever ``gc.callbacks`` other
    # tests' libraries registered (hypothesis does), and those are calls.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        call(argument)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return charged


def _warm_call(name):
    """``(call, make_argument)``: the argument is built outside the count
    (``handle`` reads the body it is given)."""
    if name.startswith("execute["):
        backend = name[len("execute["):-1]
        if backend == "cbackend" and (
                find_cc() is None or probe_supported(find_cc()) is None):
            pytest.skip("no working C compiler on this host")
        session = PipelineSession()

        def call(inputs):
            result = session.execute(CHAIN, inputs, backend=backend)
            assert result.kernel.backend == backend
            assert not result.kernel.fallback

        return call, lambda: INPUTS
    service = BasecampService()
    endpoint = name[1:]
    return (lambda body: service.handle(endpoint, body),
            lambda: copy.deepcopy(BODIES[name]))


@functools.lru_cache(maxsize=None)
def _socket_compile():
    """``(charged, files)`` of one warm keep-alive ``/compile`` on the
    daemon's handler thread, which inherits a ``threading.setprofile``
    hook that counts inside ``handle_one_request`` only.

    The stdlib formats the ``Date`` header (in ``email.utils``) once a
    wall-clock second; of three requests in a row, the two cheapest
    repeat exactly and are the ones read."""
    requests = []
    counting = []

    def hook(frame, event, arg):
        if frame.f_code is _Handler.handle_one_request.__code__:
            if event == "call":
                requests.append((Counter(), set()))
                counting.append(_charging(*requests[-1]))
            elif event == "return":
                counting.clear()
                return
        if counting:
            counting[0](frame, event, arg)

    server = BasecampServer(port=0).start()
    threading.setprofile(hook)
    connection = socket.create_connection(server.address, timeout=30)
    reader = connection.makefile("rb")
    body = json.dumps(BODIES["/compile"]).encode()
    # One send: a head and body sent apart may reach the handler in one
    # read or two.
    request = b"POST /compile HTTP/1.1\r\nHost: budget\r\n" \
        b"Content-Type: application/json\r\n" \
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)

    def send():
        connection.sendall(request)
        assert reader.readline().startswith(b"HTTP/1.1 200 "), request
        length = 0
        for line in iter(reader.readline, b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":")[1])
        reader.read(length)

    try:
        send()  # the cold request; the handler thread is running now
        threading.setprofile(None)
        send()
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                send()
        finally:
            gc.enable()
    finally:
        threading.setprofile(None)
        reader.close()
        connection.close()
        server.shutdown()
    # requests[0] and [1] are the cold and first warm ones, and the
    # handler may already be reading the line of a next one.
    measured = sorted(requests[2:5], key=lambda counted: sum(
        counted[0].values()))
    assert measured[0][0] == measured[1][0], "the count must repeat exactly"
    return measured[0]


@functools.lru_cache(maxsize=None)
def _counts(name):
    if name == "/compile over a socket":
        return _socket_compile()[0]
    call, make = _warm_call(name)
    call(make())  # the cold call: compile, lazy imports, metric labels
    call(make())
    counts = _count_calls(call, make())
    assert counts == _count_calls(call, make()), \
        "the count must repeat exactly"
    return counts


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_warm_call_stays_within_its_call_budget(name):
    measured, budget = BUDGETS[name]
    charged = _counts(name)
    total = sum(charged.values())
    split = ", ".join(f"{piece} {calls}" for piece, calls in
                      sorted(charged.items(), key=lambda item: -item[1]))
    assert total <= budget, (
        f"one warm {name} made {total} Python/C calls; budget {budget} "
        f"(pinned at {measured} + 5 %).  Per piece: {split}")


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_warm_call_computes_no_stage_key(name):
    """A warm request is answered by the warm index: no digest, no
    stage-cache probe."""
    charged = _counts(name)
    assert charged["stage keys"] == charged["stage bookkeeping"] == 0, \
        dict(charged)


def test_warm_socket_request_skips_the_stdlib_header_parser():
    """The daemon reads its own request head and writes its own reply
    head: no ``email`` parser, no ``http.client`` header reader."""
    _, files = _socket_compile()
    stdlib = [name for name in files
              if f"{os.sep}email{os.sep}" in name
              or name.endswith(os.path.join("http", "client.py"))]
    assert stdlib == [], stdlib
