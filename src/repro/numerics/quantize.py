"""Quantization helpers and error metrics for custom data formats.

The paper's technical highlights state that "custom data formats can
significantly speed up the computation, trading off resource requirements
and accuracy".  This module provides the *accuracy* leg of that trade-off:
apply any supported format to an array and quantify the damage.  The
resource/speed legs come from :mod:`repro.hls.resources`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

import numpy as np

from repro.errors import EverestError
from repro.numerics.fixed_point import FixedPointFormat
from repro.numerics.float_formats import FloatFormat
from repro.numerics.posit import PositFormat

NumberFormat = Union[FixedPointFormat, PositFormat, FloatFormat]


def make_format(spec: str) -> NumberFormat:
    """Parse a compact format spec.

    Examples: ``"f64"``, ``"f32"``, ``"bf16"``, ``"fixed<8.8>"``,
    ``"ufixed<4.12>"``, ``"posit<16,1>"``.
    """
    spec = spec.strip()
    if spec in ("f64", "f32", "f16", "bf16"):
        return FloatFormat(spec)
    try:
        if spec.startswith("fixed<") and spec.endswith(">"):
            int_bits, frac_bits = spec[6:-1].split(".")
            return FixedPointFormat(int(int_bits), int(frac_bits),
                                    signed=True)
        if spec.startswith("ufixed<") and spec.endswith(">"):
            int_bits, frac_bits = spec[7:-1].split(".")
            return FixedPointFormat(int(int_bits), int(frac_bits),
                                    signed=False)
        if spec.startswith("posit<") and spec.endswith(">"):
            nbits, es = spec[6:-1].split(",")
            return PositFormat(int(nbits), int(es))
    except ValueError:
        pass  # a wrong field count or a non-integer width
    raise EverestError(f"unknown number format spec: {spec!r}")


def format_bits(fmt: NumberFormat) -> int:
    """Storage width in bits of one numeral."""
    if isinstance(fmt, FixedPointFormat):
        return fmt.width
    if isinstance(fmt, PositFormat):
        return fmt.nbits
    return fmt.bits


def quantize(values, fmt: NumberFormat) -> np.ndarray:
    """Nearest representable values in ``fmt``, as float64."""
    return fmt.quantize(values)


@dataclass(frozen=True)
class QuantizationReport:
    """Error metrics of a quantized array against its reference."""

    max_abs_error: float
    rms_error: float
    max_rel_error: float
    mean_rel_error: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "max_abs_error": self.max_abs_error,
            "rms_error": self.rms_error,
            "max_rel_error": self.max_rel_error,
            "mean_rel_error": self.mean_rel_error,
        }


def error_report(reference, quantized) -> QuantizationReport:
    """Compare a quantized array against its float64 reference."""
    reference = np.asarray(reference, dtype=np.float64)
    quantized = np.asarray(quantized, dtype=np.float64)
    if reference.shape != quantized.shape:
        raise EverestError("error_report: shape mismatch")
    abs_err = np.abs(reference - quantized)
    denom = np.maximum(np.abs(reference), np.finfo(np.float64).tiny)
    rel_err = abs_err / denom
    return QuantizationReport(
        max_abs_error=float(abs_err.max(initial=0.0)),
        rms_error=float(np.sqrt(np.mean(abs_err**2))) if abs_err.size else 0.0,
        max_rel_error=float(rel_err.max(initial=0.0)),
        mean_rel_error=float(rel_err.mean()) if rel_err.size else 0.0,
    )


def quantization_sweep(values, specs) -> Dict[str, QuantizationReport]:
    """Quantize ``values`` through each format spec and report errors."""
    values = np.asarray(values, dtype=np.float64)
    reports: Dict[str, QuantizationReport] = {}
    for spec in specs:
        fmt = make_format(spec)
        reports[spec] = error_report(values, quantize(values, fmt))
    return reports
