"""Unit tests for the IR type system."""

import pytest

from repro.errors import IRError
from repro.ir import types as T


class TestScalarTypes:
    def test_integer_printing(self):
        assert str(T.IntegerType(32)) == "i32"
        assert str(T.IntegerType(8, signed=False)) == "ui8"

    def test_integer_width_must_be_positive(self):
        with pytest.raises(IRError):
            T.IntegerType(0)

    def test_float_printing(self):
        assert str(T.f64) == "f64"
        assert str(T.bf16) == "bf16"
        assert str(T.f16) == "f16"

    def test_float_invalid_width(self):
        with pytest.raises(IRError):
            T.FloatType(48)

    def test_brain_float_requires_16_bits(self):
        with pytest.raises(IRError):
            T.FloatType(32, brain=True)

    def test_index_and_none(self):
        assert str(T.index) == "index"
        assert str(T.none) == "none"

    def test_equality_is_structural(self):
        assert T.IntegerType(32) == T.i32
        assert T.FloatType(64) == T.f64
        assert T.IntegerType(32) != T.IntegerType(32, signed=False)


class TestShapedTypes:
    def test_tensor_printing(self):
        assert str(T.tensor_of(T.f64, 4, None)) == "tensor<4x?xf64>"
        assert str(T.tensor_of(T.f32)) == "tensor<f32>"

    def test_tensor_rank_and_elements(self):
        ty = T.tensor_of(T.f64, 3, 5)
        assert ty.rank == 2
        assert ty.num_elements() == 15
        assert ty.is_static

    def test_dynamic_tensor_has_no_element_count(self):
        with pytest.raises(IRError):
            T.tensor_of(T.f64, None).num_elements()

    def test_negative_extent_rejected(self):
        with pytest.raises(IRError):
            T.TensorType((-1,), T.f64)

    def test_memref_with_space(self):
        ty = T.memref_of(T.f32, 16, space="hbm0")
        assert str(ty) == 'memref<16xf32, "hbm0">'

    def test_function_type_printing(self):
        ty = T.FunctionType((T.f64, T.i32), (T.f64,))
        assert str(ty) == "(f64, i32) -> f64"
        multi = T.FunctionType((), (T.f64, T.f64))
        assert str(multi) == "() -> (f64, f64)"


class TestBase2Types:
    def test_fixed_point(self):
        ty = T.FixedPointType(8, 8)
        assert ty.width == 16
        assert str(ty) == "!base2.fixed<8, 8, signed>"

    def test_fixed_point_needs_bits(self):
        with pytest.raises(IRError):
            T.FixedPointType(0, 0)

    def test_posit(self):
        assert str(T.PositType(16, 1)) == "!base2.posit<16, 1>"

    def test_posit_validation(self):
        with pytest.raises(IRError):
            T.PositType(1, 0)
        with pytest.raises(IRError):
            T.PositType(16, -1)


class TestBitwidth:
    @pytest.mark.parametrize("ty,bits", [
        (T.i32, 32), (T.f64, 64), (T.bf16, 16),
        (T.FixedPointType(4, 12), 16), (T.PositType(8, 0), 8),
        (T.index, 64),
    ])
    def test_bitwidth(self, ty, bits):
        assert T.bitwidth(ty) == bits

    def test_tensor_has_no_scalar_width(self):
        with pytest.raises(IRError):
            T.bitwidth(T.tensor_of(T.f64, 2))

    def test_is_scalar(self):
        assert T.is_scalar(T.f64)
        assert not T.is_scalar(T.tensor_of(T.f64, 2))


_FN = T.FunctionType((T.f64,), (T.f64,))

#: Constructed types and the text each prints.
PRINTED = [
    (T.i32, "i32"), (T.IntegerType(8, signed=False), "ui8"),
    (T.f64, "f64"), (T.bf16, "bf16"), (T.index, "index"), (T.none, "none"),
    (T.tensor_of(T.f64, 4, None), "tensor<4x?xf64>"),
    (T.tensor_of(T.f32), "tensor<f32>"),
    (T.memref_of(T.f64, 2, 3, space="plm"), 'memref<2x3xf64, "plm">'),
    (T.FunctionType((T.f64, T.i32), (T.f64,)), "(f64, i32) -> f64"),
    (T.FunctionType((), (T.f64, T.f64)), "() -> (f64, f64)"),
    (T.FixedPointType(8, 8), "!base2.fixed<8, 8, signed>"),
    (T.PositType(16, 1), "!base2.posit<16, 1>"),
    (T.StreamType(T.f64), "!dfg.stream<f64>"),
    # A function-type result is parenthesized, so the text has one
    # grouping.
    (T.FunctionType((T.i64,), (_FN,)), "(i64) -> ((f64) -> f64)"),
]


class TestTypePrinting:
    @pytest.mark.parametrize("ty, text", PRINTED,
                             ids=[text for _, text in PRINTED])
    def test_prints(self, ty, text):
        assert str(ty) == text
