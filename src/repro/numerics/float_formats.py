"""Reduced-precision float emulation: bfloat16, float16 and float32.

These formats complete the custom-data-format palette of the paper's base2
dialect.  Quantization returns the nearest representable value as float64 so
downstream numpy code stays in a single dtype while exhibiting the target
format's rounding behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EverestError


@dataclass(frozen=True)
class FloatFormat:
    """One of the supported reduced floating-point formats."""

    name: str  # "f64", "f32", "f16", "bf16"

    _VALID = ("f64", "f32", "f16", "bf16")

    def __post_init__(self) -> None:
        if self.name not in self._VALID:
            raise EverestError(f"unknown float format: {self.name}")

    @property
    def bits(self) -> int:
        return {"f64": 64, "f32": 32, "f16": 16, "bf16": 16}[self.name]

    def quantize(self, values) -> np.ndarray:
        """Round values to this format and return them as float64.

        Values beyond the target format's range overflow to ±inf — the
        IEEE behaviour, deliberate here, hence the suppressed overflow
        warning on the narrowing cast.
        """
        values = np.asarray(values, dtype=np.float64)
        if self.name == "f64":
            return values.copy()
        with np.errstate(over="ignore"):
            if self.name == "f32":
                return values.astype(np.float32).astype(np.float64)
            if self.name == "f16":
                return values.astype(np.float16).astype(np.float64)
            return _round_to_bfloat16(values)

    def __str__(self) -> str:
        return self.name


def _round_to_bfloat16(values: np.ndarray) -> np.ndarray:
    """Round float64 to bfloat16 (truncate f32 to 8-bit mantissa, RNE)."""
    as_f32 = values.astype(np.float32)
    raw = as_f32.view(np.uint32)
    # Round-to-nearest-even on the low 16 bits.
    rounding_bias = ((raw >> 16) & 1).astype(np.uint32) + np.uint32(0x7FFF)
    rounded = (raw + rounding_bias) & np.uint32(0xFFFF0000)
    # Preserve NaN payloads (avoid rounding NaN into Inf).
    nan_mask = np.isnan(as_f32)
    out = rounded.view(np.float32).astype(np.float64)
    if np.any(nan_mask):
        out = np.where(nan_mask, np.float64("nan"), out)
    return out
