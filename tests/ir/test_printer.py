"""Tests of the textual IR printer.

The printer's contract (see :mod:`repro.ir.printer`): values are
numbered ``%0, %1, ...`` in encounter order in one namespace shared with
block arguments, block labels ``^bb0, ^bb1, ...`` likewise, every use
names a value printed before it, a multi-result op defines ``%N:k`` and
its uses read ``%N#i`` with ``i < k``, and every operation prints exactly
once.  :func:`check_printed` scans printed text for all of that; it runs
on 200 seeded :mod:`tools.irfuzz` modules, on hypothesis-drawn modules
and on every module pinned by a golden file.  The concrete tests pin the
exact spelling of the forms the scan does not look into.
"""

import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import (
    Builder,
    Module,
    build_func,
    print_module,
    print_op,
    types as T,
    verify,
)
from repro.ir.core import Block, Operation, Region

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "tools")
)

from irfuzz import generate_module  # noqa: E402
from test_golden import GOLDEN_DIR, golden_modules  # noqa: E402

N_SEEDS = 200

_TOKEN = re.compile(r"""
    "(?:[^"\\]|\\.)*"(?P<opname>\()?    # string; '(' after it: an op name
  | %(?P<result>\d+)(?::(?P<count>\d+))?\ =\     # op result definition
  | %(?P<arg>\d+):\                     # block argument definition
  | %(?P<use>\d+)(?:\#(?P<index>\d+))?  # use
  | \^bb(?P<label>\d+)
""", re.VERBOSE | re.DOTALL)


def check_printed(text: str, n_ops: int) -> None:
    """Assert that ``text`` keeps the printer's naming contract and
    prints ``n_ops`` operations."""
    assert text.endswith("\n")
    assert "%<unknown" not in text, "a use of a value printed nowhere"
    results = {}  # value number -> how many results it names
    ops = labels = 0
    for token in _TOKEN.finditer(text):
        if token.group(0).startswith('"'):
            ops += token["opname"] is not None
        elif token["label"] is not None:
            assert int(token["label"]) == labels, "block labels out of order"
            labels += 1
        elif token["use"] is None:
            number = int(token["result"] or token["arg"])
            assert number == len(results), f"%{number} numbered out of order"
            results[number] = int(token["count"] or 1)
        else:
            number = int(token["use"])
            assert number in results, f"%{number} used before its definition"
            if results[number] == 1:
                assert token["index"] is None, token.group(0)
            else:
                assert token["index"] is not None, token.group(0)
                assert int(token["index"]) < results[number], token.group(0)
    assert ops == n_ops


def _check_module(module: Module) -> str:
    text = print_module(module)
    check_printed(text, sum(1 for _ in module.walk()))
    assert print_module(module) == text, "printing changed the module"
    assert print_module(module.clone()) == text
    return text


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_printer_fuzz(seed):
    _check_module(generate_module(seed))


@pytest.fixture(scope="module")
def goldens():
    return golden_modules()


@pytest.mark.parametrize(
    "name", sorted(path.stem for path in GOLDEN_DIR.glob("*.mlir")))
def test_golden_module_prints_consistently(goldens, name):
    text = _check_module(goldens[name])
    assert text == (GOLDEN_DIR / f"{name}.mlir").read_text()


# -- hypothesis-drawn modules ---------------------------------------------

_scalar_types = st.sampled_from([T.i1, T.i32, T.i64, T.f32, T.f64, T.bf16,
                                 T.index])
_element_types = st.sampled_from([T.f64, T.f32, T.i64])


@st.composite
def _types(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(_scalar_types)
    if kind == 1:
        shape = tuple(draw(st.lists(
            st.one_of(st.integers(1, 8), st.none()), min_size=0, max_size=3
        )))
        return T.TensorType(shape, draw(_element_types))
    shape = tuple(draw(st.lists(st.integers(1, 8), min_size=1, max_size=2)))
    return T.MemRefType(shape, draw(_element_types),
                        draw(st.sampled_from(["", "hbm0", "plm"])))


_attr_values = st.one_of(
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.text(alphabet='abcXYZ_ 09%"\\(', max_size=8),
    st.lists(st.integers(-5, 5), max_size=3),
)


@st.composite
def _modules(draw):
    module = Module()
    builder = Builder.at_end(module.body)
    values = []
    for i in range(draw(st.integers(1, 6))):
        n_operands = draw(st.integers(0, min(2, len(values))))
        operands = [values[draw(st.integers(0, len(values) - 1))]
                    for _ in range(n_operands)]
        result_types = [draw(_types()) for _ in range(draw(st.integers(0, 2)))]
        attrs = {f"a{k}": draw(_attr_values)
                 for k in range(draw(st.integers(0, 2)))}
        op = builder.create(f"test.op{i}", operands, result_types, attrs)
        values.extend(op.results)
    return module


@settings(max_examples=60, deadline=None)
@given(_modules())
def test_printed_text_is_consistent(module):
    _check_module(module)


# -- the scan itself ------------------------------------------------------

class TestCheckPrinted:
    """Each broken text is one the scan must refuse, or it proves nothing."""

    def test_rejects_a_use_before_its_definition(self):
        with pytest.raises(AssertionError, match="before its definition"):
            check_printed('"t.use"(%0) : (f64) -> ()\n', 1)

    def test_rejects_a_result_index_out_of_range(self):
        text = ('%0:2 = "t.pair"() : () -> (f64, f64)\n'
                '"t.use"(%0#2) : (f64) -> ()\n')
        with pytest.raises(AssertionError, match="#2"):
            check_printed(text, 2)

    def test_rejects_a_skipped_number(self):
        text = ('%0 = "t.a"() : () -> f64\n'
                '%2 = "t.b"() : () -> f64\n')
        with pytest.raises(AssertionError, match="out of order"):
            check_printed(text, 2)


# -- exact spelling -------------------------------------------------------

class TestPrintedForms:
    def test_function_with_block_args(self):
        m = Module()
        _, entry, fb = build_func(m, "f", [T.f64, T.tensor_of(T.i64, 4)],
                                  [T.f64])
        r = fb.create("arith.addf", [entry.args[0], entry.args[0]], [T.f64])
        fb.create("func.return", [r.result])
        verify(m)
        text = _check_module(m)
        assert "^bb0(%0: f64, %1: tensor<4xi64>):" in text
        assert '%2 = "arith.addf"(%0, %0) : (f64, f64) -> f64' in text
        assert '"func.return"(%2) : (f64) -> ()' in text

    def test_multi_result_ops(self):
        m = Module()
        b = Builder.at_end(m.body)
        pair = b.create("test.pair", [], [T.f64, T.i32])
        b.create("test.use", [pair.results[1], pair.results[0]], [])
        text = _check_module(m)
        assert '%0:2 = "test.pair"() : () -> (f64, i32)' in text
        assert '"test.use"(%0#1, %0#0) : (i32, f64) -> ()' in text

    def test_nested_regions(self):
        m = Module()
        inner = Block([T.index])
        Builder.at_end(inner).create("affine.yield", [], [])
        loop = Operation.create("affine.for", [], [],
                                {"lower": 0, "upper": 4, "step": 1},
                                [Region([inner])])
        m.append(loop)
        assert _check_module(m) == (
            '"builtin.module"() (\n'
            '{\n'
            '  "affine.for"() (\n'
            '  {\n'
            '  ^bb0(%0: index):\n'
            '    "affine.yield"() : () -> ()\n'
            '  }\n'
            '  ) {lower = 0 : i64, step = 1 : i64, upper = 4 : i64}'
            ' : () -> ()\n'
            '}\n'
            ') : () -> ()\n'
        )

    def test_escaped_strings(self):
        m = Module()
        Builder.at_end(m.body).create("test.op", [], [], {"s": 'a"b\\c'})
        assert '{s = "a\\"b\\\\c"}' in _check_module(m)

    def test_special_floats(self):
        m = Module()
        Builder.at_end(m.body).create("test.op", [], [], {
            "inf": float("inf"), "ninf": float("-inf")})
        assert "{inf = inf : f64, ninf = -inf : f64}" in _check_module(m)

    def test_function_typed_result_is_parenthesized(self):
        """A single result of function type, nested one level too,
        prints inside parentheses so the signature reads one way."""
        m = Module()
        b = Builder.at_end(m.body)
        inner = T.FunctionType((T.f64,), (T.f64,))
        nested = T.FunctionType((T.i64,), (inner,))
        b.create("fuzz.mk", [], [inner])
        b.create("fuzz.mk2", [], [nested])
        text = _check_module(m)
        assert '"fuzz.mk"() : () -> ((f64) -> f64)' in text
        assert '"fuzz.mk2"() : () -> ((i64) -> ((f64) -> f64))' in text

    def test_value_defined_outside_prints_a_placeholder(self):
        m = Module()
        b = Builder.at_end(m.body)
        const = b.create("arith.constant", [], [T.f64], {"value": 1.0})
        use = b.create("test.use", [const.result], [])
        assert print_op(use) == '"test.use"(%<unknown0>) : (f64) -> ()'
