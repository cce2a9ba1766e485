"""Tests for custom data formats: fixed point, posit, small floats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EverestError
from repro.numerics import (
    FixedPointFormat,
    FloatFormat,
    PositFormat,
    error_report,
    format_bits,
    make_format,
    quantization_sweep,
    quantize,
)


class TestFixedPoint:
    def test_basic_quantization(self):
        fmt = FixedPointFormat(8, 8)
        np.testing.assert_allclose(fmt.quantize([1.5, -2.25]), [1.5, -2.25])

    def test_resolution(self):
        fmt = FixedPointFormat(4, 4)
        assert fmt.resolution == 1 / 16

    def test_saturation(self):
        fmt = FixedPointFormat(4, 4)  # max ~7.9375
        assert fmt.quantize(100.0) == fmt.max_value
        assert fmt.quantize(-100.0) == fmt.min_value

    def test_wrapping_mode(self):
        fmt = FixedPointFormat(4, 0, saturate=False)
        # 8 wraps to -8 in 4-bit two's complement.
        assert fmt.quantize(8.0) == -8.0

    def test_unsigned_range(self):
        fmt = FixedPointFormat(4, 4, signed=False)
        assert fmt.min_value == 0.0
        assert fmt.quantize(-1.0) == 0.0

    def test_arithmetic_add_mul(self):
        fmt = FixedPointFormat(8, 8)
        a, b = fmt.encode(1.5), fmt.encode(2.5)
        assert fmt.decode(fmt.add(a, b)) == 4.0
        assert fmt.decode(fmt.mul(a, b)) == pytest.approx(3.75)

    def test_division_by_zero(self):
        fmt = FixedPointFormat(8, 8)
        with pytest.raises(EverestError):
            fmt.div(fmt.encode(1.0), fmt.encode(0.0))

    def test_width_limit(self):
        with pytest.raises(EverestError):
            FixedPointFormat(40, 40)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-100, 100))
    def test_quantization_error_bounded(self, x):
        fmt = FixedPointFormat(8, 8)
        q = float(fmt.quantize(x))
        assert abs(q - x) <= fmt.resolution / 2 + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-7, 7), st.floats(-7, 7))
    def test_add_matches_real_within_lsb(self, x, y):
        fmt = FixedPointFormat(8, 8)
        got = fmt.decode(fmt.add(fmt.encode(x), fmt.encode(y)))
        assert abs(float(got) - (x + y)) <= 2 * fmt.resolution


class TestFixedPointBoundaries:
    """Regression + pinned boundary semantics for ISSUE 4.

    ``encode`` used to cast to int64 *before* clamping, so huge positive
    values wrapped to INT64_MIN and saturated to the negative rail, and
    NaN silently became ``min_value`` under a RuntimeWarning.
    """

    def test_huge_positive_saturates_to_positive_rail(self):
        fmt = FixedPointFormat(8, 8)
        assert fmt.encode(1e30) == fmt.raw_max
        assert fmt.quantize(1e30) == fmt.max_value
        assert fmt.max_value > 0

    def test_huge_negative_saturates_to_negative_rail(self):
        fmt = FixedPointFormat(8, 8)
        assert fmt.encode(-1e30) == fmt.raw_min
        assert fmt.quantize(-1e30) == fmt.min_value

    def test_infinities_saturate(self):
        fmt = FixedPointFormat(8, 8)
        assert fmt.quantize(float("inf")) == fmt.max_value
        assert fmt.quantize(float("-inf")) == fmt.min_value

    def test_nan_raises(self):
        fmt = FixedPointFormat(8, 8)
        with pytest.raises(EverestError, match="NaN"):
            fmt.encode(float("nan"))
        with pytest.raises(EverestError, match="NaN"):
            fmt.encode([1.0, float("nan"), 2.0])

    def test_wrap_mode_rejects_infinity(self):
        fmt = FixedPointFormat(8, 8, saturate=False)
        with pytest.raises(EverestError, match="infinite"):
            fmt.encode(float("inf"))

    def test_wrap_mode_still_wraps_finite_overflow(self):
        fmt = FixedPointFormat(4, 0, saturate=False)
        assert fmt.quantize(8.0) == -8.0
        assert fmt.quantize(17.0) == 1.0  # 17 mod 16

    def test_unsigned_saturation_rails(self):
        fmt = FixedPointFormat(4, 4, signed=False)
        assert fmt.quantize(1e30) == fmt.max_value
        assert fmt.quantize(-1e30) == 0.0

    def test_mid_rail_rounds_half_to_even(self):
        fmt = FixedPointFormat(4, 1)  # resolution 0.5
        assert fmt.quantize(0.25) == 0.0   # 0.5 lsb -> even (0)
        assert fmt.quantize(0.75) == 1.0   # 1.5 lsb -> even (2 lsb)
        assert fmt.quantize(-0.25) == 0.0
        assert fmt.quantize(-0.75) == -1.0

    def test_vector_mixed_boundaries(self):
        fmt = FixedPointFormat(8, 8)
        values = np.array([1e30, -1e30, 0.25, float("inf")])
        got = fmt.quantize(values)
        np.testing.assert_array_equal(
            got, [fmt.max_value, fmt.min_value, 0.25, fmt.max_value])

    def test_wide_format_saturates_exactly_at_raw_max(self):
        # float(raw_max) rounds UP one ulp for widths >= 54 bits; the
        # integer-domain re-clip must keep the encoded raw on the rail.
        fmt = FixedPointFormat(62, 0)
        assert int(fmt.encode(1e30)) == fmt.raw_max
        assert float(fmt.quantize(1e30)) == fmt.max_value

    def test_wide_format_wrap_is_exact_for_in_range_values(self):
        # The wrap must use integer arithmetic: a float-domain modulo
        # (value + 2**61) loses the low bits of 54+ bit values.
        fmt = FixedPointFormat(62, 0, saturate=False)
        value = 2.0**54 + 4.0
        assert int(fmt.encode(value)) == 2**54 + 4

    def test_wide_format_wrap_beyond_int64_is_exact(self):
        fmt = FixedPointFormat(16, 0, saturate=False)
        value = 2.0**70 + 2.0**20  # exact as a float; far outside int64
        expected = (int(value) - fmt.raw_min) % (1 << 16) + fmt.raw_min
        assert int(fmt.encode(value)) == expected


class TestFixedPointSignedArithmetic:
    """Pinned semantics of div/mul on negative operands."""

    def test_div_rounds_toward_negative_infinity(self):
        fmt = FixedPointFormat(8, 8)
        positive = fmt.decode(fmt.div(fmt.encode(1.0), fmt.encode(3.0)))
        negative = fmt.decode(fmt.div(fmt.encode(-1.0), fmt.encode(3.0)))
        assert positive == 85 / 256    # floor(256/3 * 256) / 2^16
        assert negative == -86 / 256   # floor, NOT truncation toward 0
        assert positive != -negative   # the asymmetry is intentional

    def test_div_exact_negative_quotient(self):
        fmt = FixedPointFormat(8, 8)
        got = fmt.decode(fmt.div(fmt.encode(-3.0), fmt.encode(2.0)))
        assert got == -1.5

    def test_mul_half_lsb_rounds_toward_plus_infinity(self):
        fmt = FixedPointFormat(8, 8)
        # raw 1 * raw 128 = 0.5 lsb exactly: rounds up to 1 lsb ...
        assert fmt.mul(1, 128) == 1
        # ... and raw -1 * raw 128 = -0.5 lsb rounds up to 0.
        assert fmt.mul(-1, 128) == 0

    def test_mul_negative_operands_sign(self):
        fmt = FixedPointFormat(8, 8)
        got = fmt.decode(fmt.mul(fmt.encode(-1.5), fmt.encode(2.0)))
        assert got == -3.0
        got = fmt.decode(fmt.mul(fmt.encode(-1.5), fmt.encode(-2.0)))
        assert got == 3.0

    def test_mul_saturates_after_rounding(self):
        fmt = FixedPointFormat(4, 4)
        got = fmt.decode(fmt.mul(fmt.encode(7.9), fmt.encode(7.9)))
        assert got == fmt.max_value


class TestBoundaryAcrossFormats:
    """±max / ±inf / NaN / mid-rail behaviour of every format family."""

    def test_posit_saturates_at_maxpos_both_signs(self):
        fmt = PositFormat(16, 1)
        assert float(fmt.quantize(1e300)) == fmt.maxpos
        assert float(fmt.quantize(-1e300)) == -fmt.maxpos

    def test_posit_infinity_and_nan_become_nar(self):
        fmt = PositFormat(16, 1)
        assert fmt.encode_one(float("inf")) == fmt.nar
        assert fmt.encode_one(float("-inf")) == fmt.nar
        assert fmt.encode_one(float("nan")) == fmt.nar
        assert np.isnan(fmt.decode_one(fmt.nar))

    def test_posit_mid_rail_rounds_to_even(self):
        fmt = PositFormat(8, 0)
        # Near 1.0 a posit<8,0> has 5 fraction bits: spacing 2^-5.
        halfway_low = 1.0 + 2.0**-6      # between 1.0 (even) and 1+2^-5
        halfway_high = 1.0 + 3 * 2.0**-6  # between 1+2^-5 and 1+2^-4
        assert float(fmt.quantize(halfway_low)) == 1.0
        assert float(fmt.quantize(halfway_high)) == 1.0 + 2.0**-4

    def test_float_formats_preserve_infinities(self):
        for name in ("f32", "f16", "bf16"):
            fmt = FloatFormat(name)
            assert float(fmt.quantize(float("inf"))) == float("inf")
            assert float(fmt.quantize(float("-inf"))) == float("-inf")

    def test_float_formats_preserve_nan(self):
        for name in ("f32", "f16", "bf16"):
            assert np.isnan(FloatFormat(name).quantize(float("nan")))

    def test_f32_mid_rail_rounds_to_even(self):
        fmt = FloatFormat("f32")
        assert float(fmt.quantize(1.0 + 2.0**-24)) == 1.0
        assert float(fmt.quantize(1.0 + 3 * 2.0**-24)) == 1.0 + 2.0**-22

    def test_f16_overflow_goes_to_infinity(self):
        # float16 max is 65504; IEEE overflow rounds to inf.
        assert float(FloatFormat("f16").quantize(1e6)) == float("inf")

    def test_bf16_mid_rail_rounds_to_even(self):
        fmt = FloatFormat("bf16")
        # bf16 spacing at 1.0 is 2^-7; 1 + 2^-8 is exactly halfway.
        assert float(fmt.quantize(1.0 + 2.0**-8)) == 1.0
        assert float(fmt.quantize(1.0 + 3 * 2.0**-8)) == 1.0 + 2.0**-6


class TestPosit:
    @pytest.mark.parametrize("es", [0, 1, 2])
    def test_exhaustive_roundtrip_8bit(self, es):
        fmt = PositFormat(8, es)
        for bits in range(256):
            value = fmt.decode_one(bits)
            if np.isnan(value):
                continue
            assert fmt.encode_one(value) == bits, hex(bits)

    def test_known_values(self):
        fmt = PositFormat(16, 1)
        assert fmt.encode_one(1.0) == 0x4000
        assert fmt.decode_one(0x4000) == 1.0
        assert fmt.encode_one(-1.0) == 0xC000
        assert fmt.encode_one(0.0) == 0
        assert np.isnan(fmt.decode_one(fmt.nar))

    def test_saturation_at_maxpos(self):
        fmt = PositFormat(8, 0)
        huge = fmt.encode_one(1e30)
        assert fmt.decode_one(huge) == fmt.maxpos

    def test_never_rounds_to_zero(self):
        fmt = PositFormat(16, 1)
        tiny = fmt.encode_one(1e-300)
        assert fmt.decode_one(tiny) == fmt.minpos

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=1e4))
    def test_quantization_monotone(self, x):
        fmt = PositFormat(16, 1)
        qa = float(fmt.quantize(x))
        qb = float(fmt.quantize(x * 1.01))
        assert qb >= qa

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_add_commutative(self, x, y):
        fmt = PositFormat(16, 1)
        a, b = fmt.encode(x), fmt.encode(y)
        assert fmt.add(a, b) == fmt.add(b, a)

    def test_relative_error_small_near_one(self):
        fmt = PositFormat(16, 1)
        xs = np.linspace(0.5, 2.0, 100)
        rel = np.abs(fmt.quantize(xs) - xs) / xs
        # posit<16,1> has ~12 fraction bits near 1.0.
        assert rel.max() < 2**-11


class TestFloatFormats:
    def test_f32_roundtrip(self):
        xs = np.array([1.0, np.pi, -2.5e7])
        np.testing.assert_array_equal(
            FloatFormat("f32").quantize(xs),
            xs.astype(np.float32).astype(np.float64),
        )

    def test_bf16_mantissa_truncation(self):
        q = float(FloatFormat("bf16").quantize(1.0 + 2**-10))
        assert q in (1.0, 1.0078125)  # 7-bit mantissa neighbours

    def test_bf16_preserves_nan(self):
        assert np.isnan(FloatFormat("bf16").quantize(float("nan")))

    def test_unknown_format_rejected(self):
        with pytest.raises(EverestError):
            FloatFormat("f8")


class TestFormatSpecs:
    @pytest.mark.parametrize("spec,bits", [
        ("f64", 64), ("f32", 32), ("bf16", 16),
        ("fixed<8.8>", 16), ("ufixed<4.12>", 16), ("posit<16,1>", 16),
    ])
    def test_make_format_and_bits(self, spec, bits):
        assert format_bits(make_format(spec)) == bits

    def test_bad_spec(self):
        with pytest.raises(EverestError):
            make_format("float128")

    @pytest.mark.parametrize("spec", [
        "fixed<8.8", "fixed<a.b>", "fixed<8.8.8>", "posit<16>", "ufixed<4>",
    ])
    def test_malformed_spec_is_named(self, spec):
        """The last four used to raise a bare ValueError from unpacking
        or ``int()``."""
        with pytest.raises(EverestError) as error:
            make_format(spec)
        assert str(error.value) == f"unknown number format spec: {spec!r}"

    def test_sweep_orders_error_by_precision(self):
        rng = np.random.default_rng(0)
        data = rng.normal(0, 1, 500)
        reports = quantization_sweep(data, ["f64", "f32", "bf16"])
        assert reports["f64"].rms_error == 0.0
        assert reports["f32"].rms_error < reports["bf16"].rms_error

    def test_error_report_shape_mismatch(self):
        with pytest.raises(EverestError):
            error_report(np.zeros(3), np.zeros(4))
