"""Parametric fixed-point arithmetic (the ``!base2.fixed`` format).

A :class:`FixedPointFormat` describes a two's-complement fixed-point numeral
with ``int_bits`` integer bits (including the sign when signed) and
``frac_bits`` fractional bits.  Values are held as raw integers scaled by
``2**-frac_bits``; all operations are vectorized over numpy arrays.

Overflow handling is *saturating* by default (the common HLS choice) with an
optional wrapping mode matching ``ap_fixed<W, I, AP_WRAP>`` semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EverestError
from repro.ir.types import FixedPointType


@dataclass(frozen=True)
class FixedPointFormat:
    """A fixed-point format: Q(int_bits).(frac_bits), signed or unsigned."""

    int_bits: int
    frac_bits: int
    signed: bool = True
    saturate: bool = True

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise EverestError("fixed-point field widths must be non-negative")
        width = self.int_bits + self.frac_bits
        if width == 0:
            raise EverestError("fixed-point format needs at least one bit")
        if width > 62:
            raise EverestError("fixed-point widths above 62 bits are unsupported")

    @property
    def width(self) -> int:
        return self.int_bits + self.frac_bits

    @property
    def scale(self) -> float:
        return float(2.0 ** -self.frac_bits)

    @property
    def raw_min(self) -> int:
        if self.signed:
            return -(1 << (self.width - 1))
        return 0

    @property
    def raw_max(self) -> int:
        if self.signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    @property
    def min_value(self) -> float:
        return self.raw_min * self.scale

    @property
    def max_value(self) -> float:
        return self.raw_max * self.scale

    @property
    def resolution(self) -> float:
        """The value of one least-significant bit."""
        return self.scale

    def ir_type(self) -> FixedPointType:
        """The matching ``!base2.fixed`` IR type."""
        return FixedPointType(self.int_bits, self.frac_bits, self.signed)

    # -- raw <-> real conversions --------------------------------------------

    def _clamp(self, raw: np.ndarray) -> np.ndarray:
        if self.saturate:
            return np.clip(raw, self.raw_min, self.raw_max)
        span = 1 << self.width
        wrapped = np.mod(raw - self.raw_min, span) + self.raw_min
        return wrapped

    def encode(self, values) -> np.ndarray:
        """Quantize real values to raw integers (round half to even).

        Out-of-range values saturate to the correct rail (or wrap, in
        wrapping mode): the clamp happens in the *float* domain, before
        the int64 cast — casting first would wrap huge positive values to
        INT64_MIN and saturate them to the negative rail.  NaN is not
        representable and raises :class:`EverestError` (it used to encode
        silently as ``min_value`` under a RuntimeWarning).
        """
        values = np.asarray(values, dtype=np.float64)
        if np.any(np.isnan(values)):
            raise EverestError("cannot encode NaN in a fixed-point format")
        scaled = np.rint(values * (1 << self.frac_bits))
        if self.saturate:
            # Float-domain clip first (huge values would wrap in the
            # int64 cast), then an exact integer-domain clip: for widths
            # >= 54 bits float(raw_max) itself rounds up one ulp, so the
            # float clip alone can land one above the rail.
            bounded = np.clip(scaled, float(self.raw_min),
                              float(self.raw_max))
            return np.clip(bounded.astype(np.int64),
                           self.raw_min, self.raw_max)
        if np.any(np.isinf(values)):
            raise EverestError(
                "cannot wrap an infinite value into a fixed-point "
                "format (use a saturating format)")
        span = 1 << self.width
        if np.any(np.abs(scaled) >= float(1 << 62)):
            # Beyond int64-safe territory: wrap with exact Python-int
            # arithmetic (a finite float IS an exact rational here).
            flat = np.array(
                [(int(v) - self.raw_min) % span + self.raw_min
                 for v in scaled.ravel()], dtype=np.int64)
            return flat.reshape(scaled.shape)
        raw = scaled.astype(np.int64)
        return np.mod(raw - self.raw_min, span) + self.raw_min

    def decode(self, raw) -> np.ndarray:
        """Raw integers back to float64 values."""
        return np.asarray(raw, dtype=np.int64) * self.scale

    def quantize(self, values) -> np.ndarray:
        """Round-trip through the format: the representable value nearest x."""
        return self.decode(self.encode(values))

    # -- arithmetic on raw representations ------------------------------------

    def add(self, a, b) -> np.ndarray:
        return self._clamp(np.asarray(a, np.int64) + np.asarray(b, np.int64))

    def mul(self, a, b) -> np.ndarray:
        wide = np.asarray(a, np.int64) * np.asarray(b, np.int64)
        # Round-to-nearest on the frac_bits shift.
        if self.frac_bits:
            half = 1 << (self.frac_bits - 1)
            wide = (wide + half) >> self.frac_bits
        return self._clamp(wide)

    def div(self, a, b) -> np.ndarray:
        num = np.asarray(a, np.int64) << self.frac_bits
        den = np.asarray(b, np.int64)
        if np.any(den == 0):
            raise EverestError("fixed-point division by zero")
        quotient = np.floor_divide(num, den)
        return self._clamp(quotient)

    def __str__(self) -> str:
        sign = "s" if self.signed else "u"
        return f"fixed{sign}<{self.int_bits}.{self.frac_bits}>"
