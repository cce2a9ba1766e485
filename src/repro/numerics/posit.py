"""Posit arithmetic (the ``!base2.posit`` format), implemented from scratch.

A posit<n, es> encodes a real number as sign, regime (run-length encoded
power of ``2**2**es``), ``es`` exponent bits and a fraction.  This module
implements exact decode and round-to-nearest-even encode as integer
algorithms, plus arithmetic by the usual software-simulation route
(decode to float64, operate, re-encode) — the same approach HLS posit
libraries use for validation.

References: Gustafson & Yonemoto, "Beating Floating Point at its Own Game";
used by the paper via Murillo et al., "Generating Posit-Based Accelerators
With High-Level Synthesis" (IEEE TCAS-I 2023).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from repro.errors import EverestError
from repro.ir.types import PositType


@dataclass(frozen=True)
class PositFormat:
    """A posit<nbits, es> format."""

    nbits: int
    es: int

    def __post_init__(self) -> None:
        if self.nbits < 3 or self.nbits > 32:
            raise EverestError("posit sizes from 3 to 32 bits are supported")
        if self.es < 0 or self.es > 4:
            raise EverestError("posit es must be in [0, 4]")

    @property
    def nar(self) -> int:
        """Not-a-Real bit pattern (sign bit only)."""
        return 1 << (self.nbits - 1)

    @property
    def max_scale(self) -> int:
        return (self.nbits - 2) * (1 << self.es)

    @property
    def maxpos(self) -> float:
        return float(2.0 ** self.max_scale)

    @property
    def minpos(self) -> float:
        return float(2.0 ** -self.max_scale)

    def ir_type(self) -> PositType:
        return PositType(self.nbits, self.es)

    # -- decode ----------------------------------------------------------------

    def decode_one(self, bits: int) -> float:
        """Decode one posit bit pattern to float64."""
        n = self.nbits
        bits &= (1 << n) - 1
        if bits == 0:
            return 0.0
        if bits == self.nar:
            return float("nan")
        sign = bits >> (n - 1)
        if sign:
            bits = ((1 << n) - bits) & ((1 << n) - 1)  # two's complement
        # Regime: run of identical bits starting at position n-2.
        body = bits & ((1 << (n - 1)) - 1)
        first = (body >> (n - 2)) & 1
        run = 0
        pos = n - 2
        while pos >= 0 and ((body >> pos) & 1) == first:
            run += 1
            pos -= 1
        k = run - 1 if first == 1 else -run
        # Skip the terminating bit (if any bits remain).
        pos -= 1
        # Exponent bits (possibly truncated at the right edge).
        exponent = 0
        for _ in range(self.es):
            exponent <<= 1
            if pos >= 0:
                exponent |= (body >> pos) & 1
                pos -= 1
        # Fraction: remaining bits.
        frac_bits = pos + 1
        frac = body & ((1 << frac_bits) - 1) if frac_bits > 0 else 0
        scale = k * (1 << self.es) + exponent
        mantissa = 1.0 + (frac / (1 << frac_bits) if frac_bits > 0 else 0.0)
        value = mantissa * (2.0 ** scale)
        return -value if sign else value

    # -- encode ----------------------------------------------------------------

    def encode_one(self, value: float) -> int:
        """Encode a float64 to the nearest posit (round-to-nearest-even)."""
        n = self.nbits
        if value == 0.0:
            return 0
        if math.isnan(value) or math.isinf(value):
            return self.nar
        sign = value < 0.0
        x = Fraction(abs(float(value)))
        # scale = floor(log2(x)) computed exactly on the fraction.
        scale = x.numerator.bit_length() - x.denominator.bit_length()
        if Fraction(2) ** scale > x:
            scale -= 1
        k, e = divmod(scale, 1 << self.es)
        # Regime field: k >= 0 -> (k+1) ones then 0; k < 0 -> (-k) zeros then 1.
        if k >= 0:
            regime_bits = ((1 << (k + 1)) - 1) << 1
            regime_len = k + 2
        else:
            regime_bits = 1
            regime_len = -k + 1
        # Available bits after sign and regime.
        rem = n - 1 - regime_len
        if rem < 0:
            # Regime overflows the word: saturate to maxpos/minpos.
            body = (1 << (n - 1)) - 1 if k >= 0 else 1
            return self._apply_sign(body, sign)
        # Assemble an exact unrounded tail: es exponent bits + fraction.
        mantissa = x / (Fraction(2) ** scale)  # in [1, 2)
        frac = mantissa - 1  # in [0, 1)
        # Payload bits available for exponent+fraction: rem.
        es_kept = min(self.es, rem)
        frac_bits = rem - es_kept
        # Exact payload in units of the last kept bit: (e + frac) * 2^frac_bits.
        units = Fraction(e) * (1 << frac_bits) + frac * (1 << frac_bits)
        payload, remainder = divmod(units, 1)
        payload = int(payload)
        # Round to nearest even on the dropped remainder (plus dropped es bits).
        dropped_es = self.es - es_kept
        if dropped_es:
            # The exponent itself lost bits; fold them into the remainder.
            keep = payload >> dropped_es
            lost = payload & ((1 << dropped_es) - 1)
            remainder = (Fraction(lost) + remainder) / (1 << dropped_es)
            payload = keep
        if remainder > Fraction(1, 2) or (
            remainder == Fraction(1, 2) and (payload & 1)
        ):
            payload += 1
        # Addition (not OR) lets a rounding carry propagate into the regime:
        # for posits, the next bit pattern up is exactly the next value.
        body = (regime_bits << rem) + payload
        limit = (1 << (n - 1)) - 1
        if body > limit:
            body = limit
        if body == 0:
            body = 1  # never round a nonzero value to zero (posit rule)
        return self._apply_sign(body, sign)

    def _apply_sign(self, body: int, negative: bool) -> int:
        if negative:
            return ((1 << self.nbits) - body) & ((1 << self.nbits) - 1)
        return body

    # -- vectorized API ----------------------------------------------------------

    def encode(self, values) -> np.ndarray:
        flat = np.asarray(values, dtype=np.float64).reshape(-1)
        out = np.fromiter(
            (self.encode_one(float(v)) for v in flat), dtype=np.int64,
            count=flat.size,
        )
        return out.reshape(np.shape(values))

    def decode(self, bits) -> np.ndarray:
        flat = np.asarray(bits, dtype=np.int64).reshape(-1)
        out = np.fromiter(
            (self.decode_one(int(b)) for b in flat), dtype=np.float64,
            count=flat.size,
        )
        return out.reshape(np.shape(bits))

    def quantize(self, values) -> np.ndarray:
        """The representable posit value nearest to each input."""
        return self.decode(self.encode(values))

    # -- arithmetic (software simulation) ---------------------------------------

    def add(self, a_bits, b_bits) -> np.ndarray:
        return self.encode(self.decode(a_bits) + self.decode(b_bits))

    def __str__(self) -> str:
        return f"posit<{self.nbits},{self.es}>"
