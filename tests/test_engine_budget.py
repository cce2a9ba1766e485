"""Call budget of one planned, run and repaired workflow on the engine.

``python3 -m bench`` gates ``py_calls_per_op`` on ``engine_plan`` at 1 %;
this is the same op counted in-process (32 nodes, 800 tasks, a fifth on
FPGAs, ``node3`` lost at 5.0, HEFT), under ``sys.setprofile`` with
``call`` and ``c_call`` events, so a change that prices a task per node
again, copies the pending subgraph, commits a plan twice or builds an
object per event fails here, locally, with the phase that grew.

The engine runs task functions on the calling thread, so the count is a
property of the code and the workflow: two consecutive runs must agree
to the digit.  The budget is the measured count plus 5 %.  When a change
makes the path cheaper, lower it to the new count plus 5 % (a budget of
0 makes the failure message print it); it is only ever lowered.
"""

import gc
import os
import sys
from collections import Counter

from repro.runtime.engine import (
    HEFTScheduler,
    RuntimeEngine,
    synthetic_workflow,
)

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "tools")
)

from workloadfuzz import engine_plan_op  # noqa: E402

MEASURED, BUDGET = 63_054, 66_206

_PHASE_OF_CODE = {
    synthetic_workflow.__code__: "submit",
    HEFTScheduler.schedule.__code__: "plan",
    RuntimeEngine.run.__code__: "event loop",
}


def _count_calls():
    """Calls per phase (``setup``: outside all three)."""
    counts = Counter()
    inside = ["setup"]

    def hook(frame, event, arg):
        if event == "call":
            phase = _PHASE_OF_CODE.get(frame.f_code)
            if phase is not None:
                inside.append(phase)
            counts[inside[-1]] += 1
        elif event == "c_call":
            counts[inside[-1]] += 1
        elif event == "return" and frame.f_code in _PHASE_OF_CODE:
            inside.pop()

    # A collection in the middle would run whatever ``gc.callbacks`` other
    # tests' libraries registered (hypothesis does), and those are calls.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        engine_plan_op(0)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return counts


def test_engine_plan_op_stays_within_its_call_budget():
    engine_plan_op(0)  # lazy imports
    counts = _count_calls()
    assert counts == _count_calls(), "the count must repeat exactly"
    total = sum(counts.values())
    split = ", ".join(f"{phase} {calls}" for phase, calls in
                      sorted(counts.items(), key=lambda item: -item[1]))
    assert total <= BUDGET, (
        f"one engine_plan op made {total} Python/C calls; budget {BUDGET} "
        f"(pinned at {MEASURED} + 5 %).  Per phase: {split}")


def test_a_finished_workflow_is_freed_without_the_cycle_collector():
    """A ``Future`` holds the results table, not the graph, so dropping
    the engine frees the workflow, and the cluster, by reference count:
    nothing is left for the collector."""
    gc.collect()
    gc.disable()
    try:
        engine, result = engine_plan_op(0)
        del engine, result
        assert gc.collect() == 0
    finally:
        gc.enable()
