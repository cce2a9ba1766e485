"""Atmospheric state for the WRF proxy model.

A reduced-physics stand-in for WRF (documented substitution, DESIGN.md):
a 3D grid (columns x, y and ``nlay`` vertical layers) carrying the
prognostic fields the use cases consume — temperature, winds, humidity and
pressure.  The spatial resolution and field ranges are representative of a
limited-area configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import EverestError


@dataclass
class GridSpec:
    """Grid geometry and physical constants."""

    nx: int = 24
    ny: int = 24
    nlay: int = 8
    dx_km: float = 3.0  # high-resolution limited-area model
    dt_seconds: float = 60.0

    def __post_init__(self) -> None:
        if min(self.nx, self.ny, self.nlay) < 2:
            raise EverestError("grid needs at least 2 points per dimension")


def _smooth_noise(rng: np.random.Generator, amplitude: float,
                  shape: Tuple[int, ...]) -> np.ndarray:
    """Spatially correlated noise: white noise diffused a few times."""
    noise = rng.normal(0, 1.0, shape)
    for _ in range(4):
        for axis in range(len(shape)):
            noise = 0.5 * noise + 0.25 * (np.roll(noise, 1, axis)
                                          + np.roll(noise, -1, axis))
    noise *= amplitude / (noise.std() + 1e-12)
    return noise


@dataclass
class AtmosphereState:
    """The prognostic fields at one time."""

    spec: GridSpec
    temperature: np.ndarray  # K,        (nx, ny, nlay)
    u_wind: np.ndarray       # m/s
    v_wind: np.ndarray       # m/s
    humidity: np.ndarray     # kg/kg
    pressure: np.ndarray     # hPa,      (nlay,) reference profile
    time_hours: float = 0.0

    @classmethod
    def standard(cls, spec: Optional[GridSpec] = None,
                 seed: int = 0) -> "AtmosphereState":
        """A plausible synoptic initial condition (zonal flow + a front)."""
        spec = spec or GridSpec()
        rng = np.random.default_rng(seed)
        x = np.linspace(0, 1, spec.nx)[:, None, None]
        y = np.linspace(0, 1, spec.ny)[None, :, None]
        z = np.linspace(0, 1, spec.nlay)[None, None, :]
        temperature = (288.0 - 45.0 * z - 8.0 * y
                       + 2.0 * np.sin(2 * np.pi * x)
                       + rng.normal(0, 0.3, (spec.nx, spec.ny, spec.nlay)))
        u_wind = 8.0 + 6.0 * z + 2.0 * np.sin(2 * np.pi * y) \
            + rng.normal(0, 0.5, temperature.shape)
        v_wind = 1.5 * np.cos(2 * np.pi * x) \
            + rng.normal(0, 0.5, temperature.shape)
        humidity = np.clip(
            0.012 * np.exp(-3.0 * z) + rng.normal(0, 5e-4,
                                                  temperature.shape),
            1e-5, 0.03,
        )
        pressure = 1000.0 * np.exp(-1.2 * np.linspace(0, 1, spec.nlay))
        return cls(spec, temperature, u_wind, v_wind, humidity, pressure)

    def copy(self) -> "AtmosphereState":
        return AtmosphereState(
            self.spec, self.temperature.copy(), self.u_wind.copy(),
            self.v_wind.copy(), self.humidity.copy(), self.pressure.copy(),
            self.time_hours,
        )

    def perturbed(self, amplitude: float, seed: int) -> "AtmosphereState":
        """An ensemble member: perturbed initial 3D fields (§VIII).

        Perturbations are spatially smooth (filtered noise), like real
        initial-condition uncertainty — which is also what makes spreading
        observation increments in 3DVar beneficial.
        """
        rng = np.random.default_rng(seed)
        out = self.copy()
        out.temperature += _smooth_noise(rng, amplitude,
                                         out.temperature.shape)
        out.u_wind += _smooth_noise(rng, amplitude * 0.5, out.u_wind.shape)
        out.v_wind += _smooth_noise(rng, amplitude * 0.5, out.v_wind.shape)
        return out

    # -- diagnostics used by the downstream use cases -----------------------------

    def wind_speed_at(self, layer: int) -> np.ndarray:
        return np.hypot(self.u_wind[:, :, layer], self.v_wind[:, :, layer])

    def wind_direction_at(self, layer: int) -> np.ndarray:
        """Meteorological wind direction in degrees (from which it blows)."""
        return (np.degrees(np.arctan2(-self.u_wind[:, :, layer],
                                      -self.v_wind[:, :, layer]))) % 360.0
