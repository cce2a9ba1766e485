"""Attribute coercion, exact keys and arity checks against their
definitions.

``attr`` builds a plain ``list``/``tuple``/``dict`` past the element
checks of ``ArrayAttr``/``DictAttr``, ``exact_key`` and a type's
``_key`` are kept on the object, and ``OpDef.check`` counts without
``len``: each must answer exactly what the plain definition below does.
"""

import math
import struct
from collections import OrderedDict
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IRError
from repro.ir import types as T
from repro.ir.attributes import (
    ArrayAttr,
    Attribute,
    BoolAttr,
    DictAttr,
    FloatAttr,
    IntAttr,
    StrAttr,
    TypeAttr,
    attr,
)
from repro.ir.core import Block, Operation, Region
from repro.ir.dialect import VARIADIC, OpDef


def ladder(value):
    """``attr`` as the ``isinstance`` ladder alone: containers go through
    the public, element-checking constructors."""
    if isinstance(value, Attribute):
        return value
    if isinstance(value, bool):
        return BoolAttr(value)
    if isinstance(value, int):
        return IntAttr(value)
    if isinstance(value, float):
        return FloatAttr(value)
    if isinstance(value, str):
        return StrAttr(value)
    if isinstance(value, T.Type):
        return TypeAttr(value)
    if isinstance(value, (list, tuple)):
        return ArrayAttr([ladder(v) for v in value])
    if isinstance(value, Mapping):
        return DictAttr({k: ladder(v) for k, v in value.items()})
    raise IRError(f"cannot convert {value!r} to an attribute")


def plain_key(attribute):
    """``exact_key`` by its definition: the attribute itself, but floats
    by their bits, recursively."""
    kind = attribute.__class__
    if kind is FloatAttr:
        return (kind, attribute.type, struct.pack("<d", attribute.value))
    if kind is ArrayAttr:
        return (kind, *map(plain_key, attribute.elements))
    if kind is DictAttr:
        return (kind, *[(k, plain_key(v)) for k, v in attribute.entries])
    return attribute


TYPES = [T.i1, T.i32, T.i64, T.IntegerType(64, signed=False), T.f32,
         T.f64, T.bf16, T.index, T.none, T.tensor_of(T.f64, 4, None),
         T.tensor_of(T.f32), T.memref_of(T.f64, 3, space="plm"),
         T.memref_of(T.f64, 3), T.FunctionType((T.f64, T.i32), (T.f64,)),
         T.StreamType(T.f64), T.FixedPointType(8, 8), T.PositType(16, 1)]

FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf])
SCALARS = st.one_of(st.integers(), st.booleans(), FLOATS,
                    st.text(max_size=6), st.sampled_from(TYPES))
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=16)

#: A small domain, so that two draws are often equal (or differ only in
#: the sign of a zero).
SMALL = st.recursive(
    st.one_of(st.integers(0, 2), st.booleans(),
              st.sampled_from([0.0, -0.0, 1.0, math.nan]),
              st.sampled_from(["a", "b"]),
              st.sampled_from([T.f64, T.i64, T.tensor_of(T.f64, 2)])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.lists(inner, max_size=2).map(tuple),
        st.dictionaries(st.sampled_from(["a", "b"]), inner, max_size=2)),
    max_leaves=4)


class TestCoercion:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_matches_the_ladder(self, value):
        fast, slow = attr(value), ladder(value)
        assert type(fast) is type(slow)
        assert fast == slow
        assert hash(fast) == hash(slow)
        assert str(fast) == str(slow)
        assert fast.exact_key == slow.exact_key
        assert hash(fast.exact_key) == hash(slow.exact_key)

    @settings(max_examples=300, deadline=None)
    @given(SMALL, SMALL)
    def test_exact_keys_agree_with_their_definition(self, a, b):
        first, second = attr(a), attr(b)
        assert (first.exact_key == second.exact_key) == \
            (plain_key(first) == plain_key(second))

    def test_signed_zeros_stay_apart(self):
        assert attr(0.0) == attr(-0.0)
        assert attr(0.0).exact_key != attr(-0.0).exact_key
        assert attr([0.0]).exact_key != attr([-0.0]).exact_key
        assert attr({"v": 0.0}).exact_key != attr({"v": -0.0}).exact_key

    def test_subclasses_take_the_ladder(self):
        assert attr(np.float64(1.5)) == FloatAttr(1.5)
        assert type(attr(np.float64(1.5))) is FloatAttr
        assert attr(OrderedDict(b=1, a=2)) == attr({"a": 2, "b": 1})

        class Row(list):
            pass

        assert attr(Row([1, 2])) == ArrayAttr([IntAttr(1), IntAttr(2)])

    @pytest.mark.parametrize("make", [
        lambda: ArrayAttr([1]),
        lambda: DictAttr({"a": 1}),
        lambda: attr(np.int64(3)),
        lambda: attr(object()),
        lambda: attr([1, object()]),
        lambda: attr({"a": [object()]}),
    ], ids=["array-of-int", "dict-of-int", "np-int64", "object",
            "list-with-object", "dict-with-object"])
    def test_refusals(self, make):
        with pytest.raises(IRError):
            make()

    def test_other_kinds_have_exact_keys(self):
        assert IntAttr(1, T.i64).exact_key != IntAttr(1, T.i32).exact_key
        assert TypeAttr(T.f64).exact_key == TypeAttr(T.f64).exact_key
        assert TypeAttr(T.f64).exact_key != TypeAttr(T.f32).exact_key


class TestTypeKeys:
    @pytest.mark.parametrize("a", TYPES, ids=str)
    def test_key_equality_is_type_equality(self, a):
        for b in TYPES:
            assert (a._key == b._key) == (a == b)
            copy = type(a)(*[getattr(a, name)
                             for name in a.__dataclass_fields__])
            assert copy._key == a._key and hash(copy._key) == hash(a._key)

    def test_key_is_kept_on_the_type(self):
        ty = T.tensor_of(T.f64, 5)
        assert "_key" not in vars(ty)
        key = ty._key
        assert vars(ty)["_key"] is key and ty._key is key


def _op(operands=0, results=0, regions=0):
    """A ``test.op`` with the given counts (operands from one block)."""
    args = Block([T.f64] * operands).args
    return Operation("test.op", args, [T.f64] * results, {},
                     [Region([Block()]) for _ in range(regions)])


class TestArity:
    #: what -> the keyword of OpDef and of ``_op``.
    FIELDS = {"operands": "num_operands", "results": "num_results",
              "regions": "num_regions"}

    @pytest.mark.parametrize("what", sorted(FIELDS))
    @pytest.mark.parametrize("want, have", [(0, 1), (1, 2), (2, 0),
                                            (1, 0), (0, 2), (2, 3)])
    def test_mismatch_message(self, what, want, have):
        opdef = OpDef("test.op", **{self.FIELDS[what]: want})
        with pytest.raises(IRError) as err:
            opdef.check(_op(**{what: have}))
        assert str(err.value) == f"test.op: expected {want} {what}, got {have}"

    @pytest.mark.parametrize("what", sorted(FIELDS))
    @pytest.mark.parametrize("count", [0, 1, 2, 3])
    def test_exact_count_and_variadic_pass(self, what, count):
        OpDef("test.op", **{self.FIELDS[what]: count}).check(
            _op(**{what: count}))
        if what != "regions":  # regions default to 0, not variadic
            OpDef("test.op").check(_op(**{what: count}))
        OpDef("test.op", **{self.FIELDS[what]: VARIADIC}).check(
            _op(**{what: count}))

    def test_first_mismatch_in_field_order(self):
        opdef = OpDef("test.op", num_operands=1, num_results=1,
                      num_regions=1)
        with pytest.raises(IRError, match="expected 1 operands, got 0"):
            opdef.check(_op())
        with pytest.raises(IRError, match="expected 1 results, got 0"):
            opdef.check(_op(operands=1))
        with pytest.raises(IRError, match="expected 1 regions, got 0"):
            opdef.check(_op(operands=1, results=1))
