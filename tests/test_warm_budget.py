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
the innermost of the stage keys, the buffer binding, the stage
bookkeeping (cache lookup, single-flight), the kernel call, the
runtime engine, or ``other``.
"""

import copy
import functools
import gc
import sys
from collections import Counter

import numpy as np
import pytest

from repro.basecamp.serve import BasecampService
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

#: name -> (measured calls, budget = measured * 1.05 rounded down).
BUDGETS = {
    "execute[compiled]": (109, 114),
    "execute[cbackend]": (107, 112),
    "/compile": (162, 170),
    "/execute": (211, 221),
    "/runtime": (1_184, 1_243),
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
    (cache.fingerprint, "stage keys"),
    (PipelineSession.stage_key, "stage keys"),
    (affine_interp.bind_buffers, "binding"),
    (PipelineSession._run_stage, "stage bookkeeping"),
    (codegen.CompiledKernel.run, "kernel call"),
    (synthetic_workflow, "runtime engine"),
    (RuntimeEngine.run, "runtime engine"),
)}


def _count_calls(call, argument):
    """Calls per innermost piece (``other``: under none)."""
    charged = Counter()
    under = ["other"]

    def hook(frame, event, arg):
        if event == "call":
            piece = _PIECE_OF_CODE.get(frame.f_code)
            if piece is not None:
                under.append(piece)
            charged[under[-1]] += 1
        elif event == "c_call":
            charged[under[-1]] += 1
        elif event == "return" and frame.f_code in _PIECE_OF_CODE:
            under.pop()

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
def _counts(name):
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
