"""Call budget of one cold compile: every layer of the Fig. 2 flow, once.

``python3 -m bench`` gates ``py_calls_per_op`` on ``compile_cold`` at 1 %;
this is the same count taken in-process, so a change that adds a
whole-module traversal to the cold path (one more ``walk`` per stage is
2-3 %) fails here, locally, instead of in the benchmark.  A kernel goes
through ``PipelineSession.compile`` (parse, lowering, canonicalize, hls)
plus the ``execute`` stage on a session that has never seen it, under
``sys.setprofile``; ``call`` and ``c_call`` events are counted, which is
what the benchmark counts.

The budgets are the measured counts plus 5 %.  When a change makes the
path cheaper, lower them to the new count plus 5 % (a budget of 0 makes
the failure message print it); when a test fails, the message shows
which stage grew.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.apps.wrf.rrtmg import FIG3_MAJOR_ABSORBER
from repro.pipeline import PipelineSession
from repro.pipeline.stages import builtin_stages

#: Ten statements in the shape of the benchmark's generated kernels.
GENERATED = """
kernel generated {
  index i: 48, j: 4
  input a[i, j]: f64
  input b[i, j]: f64
  output out
  t0 = b - a * 0.790097419
  t1 = t0 * a * 1.678264753
  t2 = select(t1 <= b, t1 * 1.172869983, b)
  t3 = t2 - a * 1.851368112
  t4 = cos(t3) + 1.914588882
  t5 = select(t4 <= t2, t4 * 0.290033692, t2)
  t6 = t5 + b * 0.138187176
  t7 = cos(t6) + 2.528660338
  t8 = t7 * t6 * 0.852126642
  out = sum[j](t8 * t0)
}
"""

#: name -> (source, measured calls, budget = measured * 1.05 rounded down).
BUDGETS = {
    "fig3": (FIG3_MAJOR_ABSORBER, 62_857, 65_999),
    "generated": (GENERATED, 37_744, 39_631),
}

_STAGE_OF_CODE = {stage.fn.__code__: stage.name for stage in builtin_stages()}


def _cold_compile(source):
    session = PipelineSession()
    result = session.compile(source)
    session.run_stage("execute", (result.kernel, result.module),
                      key=result.key, params={"backend": "compiled"})
    assert session.report.cache_hits == 0
    return result


def _count_calls(source):
    """Calls per stage (``session``: outside every stage body)."""
    counts = Counter()
    inside = ["session"]

    def hook(frame, event, arg):
        if event == "call":
            stage = _STAGE_OF_CODE.get(frame.f_code)
            if stage is not None:
                inside.append(stage)
            counts[inside[-1]] += 1
        elif event == "c_call":
            counts[inside[-1]] += 1
        elif event == "return" and frame.f_code in _STAGE_OF_CODE:
            inside.pop()

    # A collection in the middle would run whatever ``gc.callbacks`` other
    # tests' libraries registered (hypothesis does), and those are calls.
    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        _cold_compile(source)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return counts


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_cold_compile_stays_within_its_call_budget(name):
    source, measured, budget = BUDGETS[name]
    _cold_compile(source)  # lazy imports, dialect registration, re caches
    counts = _count_calls(source)
    assert counts == _count_calls(source), "the count must repeat exactly"
    total = sum(counts.values())
    split = ", ".join(f"{stage} {calls}" for stage, calls in
                      sorted(counts.items(), key=lambda item: -item[1]))
    assert total <= budget, (
        f"cold compile of {name!r} made {total} Python/C calls; budget "
        f"{budget} (pinned at {measured} + 5 %).  Per stage: {split}")
