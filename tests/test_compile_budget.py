"""Call budget of one cold compile: every layer of the Fig. 2 flow, once.

``python3 -m bench`` gates ``py_calls_per_op`` on ``compile_cold`` at 1 %;
this is the same count taken in-process, so a change that adds a
whole-module traversal to the cold path (one more ``walk`` per stage is
2-3 %) fails here, locally, instead of in the benchmark.  A kernel goes
through ``PipelineSession.compile`` (parse, lowering, canonicalize, hls)
plus the ``execute`` stage on a session that has never seen it, under
``sys.setprofile``; ``call`` and ``c_call`` events are counted, which is
what the benchmark counts.

The budgets are the measured counts plus 5 %, for the whole compile and
for each compiler stage, with one exception: the two ``hls`` rows carry
4.4 % (4,778 / 4,988 and 2,355 / 2,459), and are not raised to 5 %,
which would loosen the gate.  When a change makes the path cheaper, lower
them to the new count plus 5 % (a budget of 0 makes the failure message
print it); when a test fails, the message shows which stage grew and
which IR primitive the calls were charged to: each call goes to the
innermost primitive on the stack (op construction, ``_verify_op``, the
rewrite worklist, CSE, fusion, ``walk``, the stage keys), or to
``other``.
"""

import functools
import gc
import sys
from collections import Counter

import pytest

from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.ir import attributes, builder, core, fusion, passes, rewrite
from repro.ir import verifier
from repro.pipeline import PipelineSession, cache
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
    "fig3": (FIG3_MAJOR_ABSORBER, 40_831, 42_872),
    "generated": (GENERATED, 24_518, 25_743),
}

#: (name, stage) -> (measured calls, budget): the stages the compiler
#: layers run in, so that a regression names its stage.
STAGE_BUDGETS = {
    ("fig3", "dialect-lowering"): (20_210, 21_220),
    ("fig3", "canonicalize"): (8_956, 9_403),
    ("fig3", "hls"): (4_778, 4_988),
    ("generated", "dialect-lowering"): (12_755, 13_392),
    ("generated", "canonicalize"): (5_771, 6_059),
    ("generated", "hls"): (2_355, 2_459),
}

_STAGE_OF_CODE = {stage.fn.__code__: stage.name for stage in builtin_stages()}
_PRIMITIVE_OF_CODE = {fn.__code__: primitive for fn, primitive in (
    (core.Operation.__init__, "op construction"),
    (core.Operation.create, "op construction"),
    (core.OpResult.__init__, "op construction"),
    (builder.Builder.create, "op construction"),
    (attributes.attr, "op construction"),
    (verifier._verify_op, "_verify_op"),
    (rewrite.apply_patterns_worklist, "worklist"),
    (passes.CommonSubexpressionElimination.run, "CSE"),
    (fusion.FusionPass.run, "fusion"),
    (core.Operation.walk, "walk"),
    (cache.fingerprint, "stage keys"),
)}


def _cold_compile(source):
    session = PipelineSession()
    result = session.compile(source)
    session.run_stage("execute", (result.kernel, result.module),
                      key=result.key, params={"backend": "compiled"})
    assert session.cache.stats.hits == 0
    return result


def _count_calls(source):
    """Calls per stage (``session``: outside every stage body) and per
    innermost IR primitive (``other``: under none)."""
    counts, charged = Counter(), Counter()
    inside, under = ["session"], ["other"]

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            stage = _STAGE_OF_CODE.get(code)
            if stage is not None:
                inside.append(stage)
            primitive = _PRIMITIVE_OF_CODE.get(code)
            if primitive is not None:
                under.append(primitive)
            counts[inside[-1]] += 1
            charged[under[-1]] += 1
        elif event == "c_call":
            counts[inside[-1]] += 1
            charged[under[-1]] += 1
        elif event == "return":
            code = frame.f_code
            if code in _STAGE_OF_CODE:
                inside.pop()
            if code in _PRIMITIVE_OF_CODE:
                under.pop()

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
    return counts, charged


@functools.lru_cache(maxsize=None)
def _counts(name):
    source = BUDGETS[name][0]
    _cold_compile(source)  # lazy imports, dialect registration, re caches
    counts = _count_calls(source)
    assert counts == _count_calls(source), "the count must repeat exactly"
    return counts


def _split(counts):
    return ", ".join(f"{stage} {calls}" for stage, calls in
                     sorted(counts.items(), key=lambda item: -item[1]))


def _where(counts, charged):
    return f"Per stage: {_split(counts)}.  Per primitive: {_split(charged)}"


@pytest.mark.parametrize("name", sorted(BUDGETS))
def test_cold_compile_stays_within_its_call_budget(name):
    _, measured, budget = BUDGETS[name]
    counts, charged = _counts(name)
    total = sum(counts.values())
    assert total <= budget, (
        f"cold compile of {name!r} made {total} Python/C calls; budget "
        f"{budget} (pinned at {measured} + 5 %).  "
        f"{_where(counts, charged)}")


@pytest.mark.parametrize("name, stage", sorted(STAGE_BUDGETS))
def test_stage_stays_within_its_call_budget(name, stage):
    measured, budget = STAGE_BUDGETS[name, stage]
    counts, charged = _counts(name)
    assert counts[stage] <= budget, (
        f"the {stage!r} stage of a cold compile of {name!r} made "
        f"{counts[stage]} Python/C calls; budget {budget} (pinned at "
        f"{measured} + 5 %).  {_where(counts, charged)}")
