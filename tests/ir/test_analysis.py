"""Abstract-interpretation shape/dtype analysis and the typed verifier.

Three layers of coverage:

* unit tests of the :class:`~repro.ir.analysis.AbstractValue` lattice,
  :func:`~repro.ir.analysis.from_type` and the
  :func:`~repro.ir.analysis.op_path` breadcrumbs;
* negative cases: hand-built modules the *structural* verifier accepts
  but :func:`~repro.ir.verifier.verify_typed` must reject — including
  the regression for the PR 4 ``esn.reduce`` axis bug (reduction
  *positions* leaking into a consumer that reads them as axis *labels*)
  — plus structural violations whose messages must carry the op path;
* a 200-seed fuzz campaign (``tools/irfuzz.py --mode analyze``): the
  typed verifier accepts every valid lowering stage of every random
  kernel (no false positives), the inferred abstracts match the
  executor's concrete arrays, and the single forward pass holds the same
  fact for every value as the run-to-fixpoint oracle
  (``tools/oracles.py``) — also checked here on the golden modules and on
  hand-built use-before-def modules, where the pass must repeat.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)

from irfuzz import check_analysis  # noqa: E402
from oracles import analysis_mismatches, analyze_module_fixpoint  # noqa: E402

from repro.errors import IRError  # noqa: E402
from repro.ir import (  # noqa: E402
    TOP,
    AbstractValue,
    AnalysisError,
    Builder,
    Module,
    analyze_module,
    from_type,
    op_path,
    parse_module,
    types as T,
    verify,
    verify_typed,
)
from repro.ir.analysis import MEMREF_ALLOC_ZERO_INIT  # noqa: E402
from repro.ir.core import Block, Operation, Region  # noqa: E402

N_SEEDS = 200


# -- lattice unit tests ------------------------------------------------------


class TestAbstractValue:
    def test_top_knows_nothing(self):
        assert TOP.shape is None
        assert TOP.dtype is None
        assert TOP.const is None

    def test_join_keeps_agreement(self):
        a = AbstractValue((4, 5), "f64")
        b = AbstractValue((4, None), "f64")
        joined = a.join(b)
        assert joined.shape == (4, None)
        assert joined.dtype == "f64"

    def test_join_drops_disagreement(self):
        a = AbstractValue((4, 5), "f64", const=1.0)
        b = AbstractValue((4, 5), "f32", const=2.0)
        joined = a.join(b)
        assert joined.shape == (4, 5)
        assert joined.dtype is None
        assert joined.const is None

    def test_join_rank_mismatch_loses_shape(self):
        assert AbstractValue((4,), "f64").join(
            AbstractValue((4, 5), "f64")).shape is None

    def test_join_with_top_is_top_shape(self):
        assert AbstractValue((4,), "f64").join(TOP) == TOP

    def test_from_type(self):
        assert from_type(T.TensorType((3, 4), T.f64)) == \
            AbstractValue((3, 4), "f64")
        assert from_type(T.MemRefType((2,), T.i32)) == \
            AbstractValue((2,), "i32")
        assert from_type(T.f64) == AbstractValue((), "f64")
        assert from_type(T.index) == AbstractValue((), "index")

    def test_str_forms(self):
        assert str(AbstractValue((4, 8), "f64")) == "<4x8:f64>"
        assert str(AbstractValue((), "f64", const=0)) == "<scalar:f64>=0"
        assert "?" in str(AbstractValue((4, None), "f64"))


def test_op_path_breadcrumbs():
    module = Module()
    body = Block([T.index])
    inner = Builder.at_end(body)
    c = inner.create("arith.constant", [], [T.f64], {"value": 1.0})
    inner.create("affine.yield", [], [])
    func_body = Block()
    b = Builder.at_end(func_body)
    b.create("affine.for", [], [],
             {"lower": 0, "upper": 4, "step": 1}, [Region([body])])
    func = Operation.create(
        "func.func", [], [],
        {"sym_name": "walk", "function_type": T.FunctionType((), ()),
         "kernel_lang": "affine"},
        [Region([func_body])])
    module.append(func)
    assert op_path(c) == ("builtin.module/func.func(@walk)#0/"
                          "affine.for#0/arith.constant#0")


# -- typed-verifier negative cases -------------------------------------------


def _esn_func(module, name="esn_case"):
    func = Operation.create(
        "func.func", [], [],
        {"sym_name": name, "function_type": T.FunctionType((), ()),
         "kernel_lang": "esn"},
        [Region([Block()])])
    module.append(func)
    return Builder.at_end(func.regions[0].blocks[0])


def test_pr4_reduce_axis_bug_is_rejected_statically():
    """The seeded PR 4 miscompile: ``esn.reduce`` keeps reduction
    *positions* (ints) in its ``axes`` attribute; a consumer that reads
    them as axis *labels* emits ``esn.broadcast`` with integer
    ``in_axes`` that are not in the label space.  Structurally fine —
    the typed verifier must reject it without executing anything."""
    module = Module()
    b = _esn_func(module, "pr4")
    a = b.create("ekl.arg", [], [T.TensorType((4, 5), T.f64)],
                 {"axes": ["i", "j"], "name": "a"}).result
    red = b.create("esn.reduce", [a], [T.TensorType((4,), T.f64)],
                   {"axes": [1], "out_axes": ["i"]}).result
    bc = b.create("esn.broadcast", [red], [T.TensorType((4, 5), T.f64)],
                  {"axes": ["i", "j"], "in_axes": [1]}).result
    b.create("func.return", [bc], [], {"names": ["out"]})

    verify(module)  # the structural verifier cannot see the bug
    with pytest.raises(AnalysisError) as err:
        verify_typed(module)
    message = str(err.value)
    assert "esn.broadcast" in message
    assert "reduction positions" in message
    assert "func.func(@pr4)" in message


def test_correct_reduce_broadcast_chain_is_accepted():
    module = Module()
    b = _esn_func(module, "ok")
    a = b.create("ekl.arg", [], [T.TensorType((4, 5), T.f64)],
                 {"axes": ["i", "j"], "name": "a"}).result
    red = b.create("esn.reduce", [a], [T.TensorType((4,), T.f64)],
                   {"axes": [1], "out_axes": ["i"]}).result
    bc = b.create("esn.broadcast", [red], [T.TensorType((4, 5), T.f64)],
                  {"axes": ["i", "j"], "in_axes": ["i"]}).result
    b.create("func.return", [bc], [], {"names": ["out"]})
    analysis = verify_typed(module)
    assert analysis.of(bc).shape == (4, 5)
    assert analysis.of(red).shape == (4,)


def test_reduce_label_axes_are_rejected():
    module = Module()
    b = _esn_func(module)
    a = b.create("ekl.arg", [], [T.TensorType((4, 5), T.f64)],
                 {"axes": ["i", "j"], "name": "a"}).result
    red = b.create("esn.reduce", [a], [T.TensorType((4,), T.f64)],
                   {"axes": ["j"], "out_axes": ["i"]}).result
    b.create("func.return", [red], [], {"names": ["out"]})
    with pytest.raises(AnalysisError, match="integer positions"):
        verify_typed(module)


def test_einsum_extent_conflict_is_rejected():
    module = Module()
    b = _esn_func(module)
    x = b.create("ekl.arg", [], [T.TensorType((4,), T.f64)],
                 {"axes": ["i"], "name": "x"}).result
    y = b.create("ekl.arg", [], [T.TensorType((5,), T.f64)],
                 {"axes": ["i"], "name": "y"}).result
    out = b.create("esn.einsum", [x, y], [T.TensorType((4,), T.f64)],
                   {"axes": ["i"], "spec": "a,a->a"}).result
    b.create("func.return", [out], [], {"names": ["out"]})
    with pytest.raises(AnalysisError) as err:
        verify_typed(module)
    assert "esn.einsum" in str(err.value)


def test_declared_result_type_mismatch_is_rejected():
    module = Module()
    b = _esn_func(module)
    a = b.create("ekl.arg", [], [T.TensorType((4, 5), T.f64)],
                 {"axes": ["i", "j"], "name": "a"}).result
    # Declared transpose result shape contradicts the permutation.
    out = b.create("esn.map", [a, a], [T.TensorType((4, 6), T.f64)],
                   {"axes": ["i", "j"], "fn": "mulf"}).result
    b.create("func.return", [out], [], {"names": ["out"]})
    with pytest.raises(AnalysisError) as err:
        verify_typed(module)
    assert "esn.map" in str(err.value)


def test_memref_store_dtype_mismatch_is_rejected():
    module = Module()
    func = Operation.create(
        "func.func", [], [],
        {"sym_name": "store_bug", "function_type": T.FunctionType((), ()),
         "kernel_lang": "affine"},
        [Region([Block()])])
    module.append(func)
    b = Builder.at_end(func.regions[0].blocks[0])
    buf = b.create("memref.alloc", [], [T.MemRefType((), T.f64)]).result
    val = b.create("arith.constant", [], [T.i64], {"value": 3}).result
    b.create("memref.store", [val, buf], [])
    b.create("func.return", [], [])
    verify(module)
    with pytest.raises(AnalysisError, match="memref.store"):
        verify_typed(module)


def test_alloc_carries_zero_init_constant():
    module = Module()
    func = Operation.create(
        "func.func", [], [],
        {"sym_name": "zeros", "function_type": T.FunctionType((), ()),
         "kernel_lang": "affine"},
        [Region([Block()])])
    module.append(func)
    b = Builder.at_end(func.regions[0].blocks[0])
    buf = b.create("memref.alloc", [], [T.MemRefType((8,), T.f64)]).result
    b.create("func.return", [], [])
    analysis = analyze_module(module)
    assert analysis.of(buf).const == MEMREF_ALLOC_ZERO_INIT
    assert analysis.of(buf).shape == (8,)


# -- structural negatives must carry the op path -----------------------------


def test_use_before_def_message_has_path():
    module = Module()
    b = Builder.at_end(module.body)
    c = b.create("arith.constant", [], [T.f64], {"value": 1.0})
    add = b.create("arith.addf", [c.result, c.result], [T.f64])
    # Reorder: the constant now follows its user.
    module.body.operations.remove(c)
    module.body.operations.append(c)
    with pytest.raises(IRError) as err:
        verify(module)
    message = str(err.value)
    assert "not visible at its use" in message
    assert f"at {op_path(add)}" in message


def test_sibling_region_use_message_has_path():
    module = Module()
    inner_block = Block()
    ib = Builder.at_end(inner_block)
    hidden = ib.create("arith.constant", [], [T.f64], {"value": 2.0}).result
    region_op = Operation.create("fuzz.region0", [], [], {},
                                 [Region([inner_block])])
    module.append(region_op)
    leak = Operation.create("fuzz.use", [hidden], [])
    module.append(leak)
    with pytest.raises(IRError) as err:
        verify(module)
    message = str(err.value)
    assert "sibling region" in message
    assert f"at {op_path(leak)}" in message


def test_broken_def_use_bookkeeping_message_has_path():
    module = Module()
    b = Builder.at_end(module.body)
    c = b.create("arith.constant", [], [T.f64], {"value": 1.0})
    add = b.create("arith.addf", [c.result, c.result], [T.f64])
    c.result.uses.clear()
    with pytest.raises(IRError) as err:
        verify(module)
    message = str(err.value)
    assert "def-use bookkeeping broken" in message
    assert f"at {op_path(add)}" in message


def test_terminator_mid_block_message_has_path():
    module = Module()
    body = Block([T.index])
    ib = Builder.at_end(body)
    yield_op = ib.create("affine.yield", [], [])
    ib.create("arith.constant", [], [T.f64], {"value": 0.0})
    b = Builder.at_end(module.body)
    b.create("affine.for", [], [],
             {"lower": 0, "upper": 2, "step": 1}, [Region([body])])
    with pytest.raises(IRError) as err:
        verify(module)
    message = str(err.value)
    assert "terminator is not last in its block" in message
    assert f"at {op_path(yield_op)}" in message


# -- one forward pass vs the run-to-fixpoint oracle --------------------------


@pytest.mark.parametrize("golden", sorted(
    path.name for path in (Path(__file__).parent / "golden").glob("*.mlir")))
def test_single_pass_matches_fixpoint_oracle_on_goldens(golden):
    module = parse_module(
        (Path(__file__).parent / "golden" / golden).read_text())
    typed = verify_typed(module)
    standalone = analyze_module(module)
    assert typed.iterations == standalone.iterations == 1
    assert typed.early_reads == standalone.early_reads == 0
    assert analyze_module_fixpoint(module).iterations == 2
    assert analysis_mismatches(module, typed) == []
    assert analysis_mismatches(module, standalone) == []
    assert typed.values  # the comparison is not vacuous


def _reversed_chain(extent_of_other=None):
    """``a = b + b`` (or ``b + other``), ``b = c + c``, ``c``: each op reads
    a value defined *after* it, so facts reach ``a`` one pass per link.
    ``b`` and ``a`` are declared ``tensor<?xf64>``; only ``c`` is static."""
    module = Module()
    b = Builder.at_end(module.body)
    dynamic = T.tensor_of(T.f64, None)
    c = b.create("fuzz.source", [], [T.tensor_of(T.f64, 4)])
    mid = b.create("arith.addf", [c.result, c.result], [dynamic])
    rhs = mid.result
    if extent_of_other is not None:
        rhs = b.create("fuzz.source", [],
                       [T.tensor_of(T.f64, extent_of_other)]).result
        module.body.operations.insert(0, module.body.operations.pop())
    top = b.create("arith.addf", [mid.result, rhs], [dynamic])
    for op in (mid, c):  # reorder to: [other,] top, mid, c
        module.body.operations.remove(op)
        module.body.operations.append(op)
    with pytest.raises(IRError, match="not visible at its use"):
        verify(module)
    return module, top, mid


def test_use_before_def_still_converges_to_the_oracle_facts():
    module, top, mid = _reversed_chain()
    analysis = analyze_module(module)
    assert analysis.early_reads == 2
    assert analysis.iterations == analyze_module_fixpoint(module).iterations
    assert analysis.iterations == 4  # three to propagate, one to confirm
    assert analysis.of(mid.result).shape == (4,)
    assert analysis.of(top.result).shape == (4,)
    assert analysis_mismatches(module, analysis) == []


def test_use_before_def_error_in_a_later_pass_matches_the_oracle():
    # ``top = mid + other`` is consistent while ``mid`` is unknown (pass 1)
    # and an extent conflict (4 vs 5) once pass 1 has written ``mid``.
    module, top, _ = _reversed_chain(extent_of_other=5)
    with pytest.raises(AnalysisError) as oracle:
        analyze_module_fixpoint(module)
    with pytest.raises(AnalysisError) as single:
        analyze_module(module)
    assert str(single.value) == str(oracle.value)
    assert "disagree on extent of dimension 0: [4, 5]" in str(single.value)
    assert str(single.value).startswith(op_path(top))


# -- fuzz campaign -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_analysis_fuzz(seed):
    check_analysis(seed)
