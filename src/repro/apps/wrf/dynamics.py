"""Dynamics of the WRF proxy: advection, diffusion and radiative forcing.

One :func:`step` advances the state by ``dt``: semi-Lagrangian-flavoured
upwind advection of temperature and humidity by the wind field, horizontal
diffusion, a radiation tendency from the RRTMG-like kernel, and gentle
relaxation of the winds.  The radiation tendency runs the SDK's compiled
Fig. 3 kernel.  The model is *profiled*: each step records the time spent
per physics component, which is how the "RRTMG ≈ 30% of compute cycles"
workload shape is made measurable
(``tests/test_apps.py::TestWRFProxy::test_radiation_fraction_near_thirty_percent``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.apps.wrf.grid import AtmosphereState
from repro.apps.wrf import rrtmg
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.pipeline import get_session


@dataclass
class StepProfile:
    """Wall-time per physics component of one (or more) steps."""

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, dt: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + dt

    def fraction(self, key: str) -> float:
        total = sum(self.seconds.values())
        return self.seconds.get(key, 0.0) / total if total else 0.0


def _upwind_advect(f: np.ndarray, u: np.ndarray, v: np.ndarray,
                   courant: float) -> np.ndarray:
    """First-order upwind advection on the horizontal plane."""
    fx_minus = np.roll(f, 1, axis=0)
    fx_plus = np.roll(f, -1, axis=0)
    fy_minus = np.roll(f, 1, axis=1)
    fy_plus = np.roll(f, -1, axis=1)
    dfdx = np.where(u > 0, f - fx_minus, fx_plus - f)
    dfdy = np.where(v > 0, f - fy_minus, fy_plus - f)
    return f - courant * (u * dfdx + v * dfdy)


def _diffuse(f: np.ndarray, kappa: float) -> np.ndarray:
    lap = (np.roll(f, 1, 0) + np.roll(f, -1, 0) + np.roll(f, 1, 1)
           + np.roll(f, -1, 1) - 4 * f)
    return f + kappa * lap


class WRFProxy:
    """The time-stepping model; its radiation is the compiled Fig. 3."""

    #: bands computed per step; calibrated so radiation consumes ~30% of
    #: the step (the paper's RRTMG share) with the SDK's Fig. 3 kernel on
    #: ``cbackend`` on the default grid.
    RADIATION_BANDS = 14

    def __init__(self, state: AtmosphereState,
                 tables: Optional[rrtmg.RRTMGTables] = None,
                 dynamics_substeps: int = 4):
        self.state = state
        # Compiled once, outside every profiled step, and shared by all
        # models through the process-wide session's stage cache; without
        # ``cc``, ``cbackend`` falls back to ``compiled`` by itself.
        session = get_session()
        fig3 = session.lower(FIG3_MAJOR_ABSORBER)
        _, self.kernel = session.run_stage(
            "execute", (fig3.kernel, fig3.module), key=fig3.key,
            params={"backend": "cbackend"}, detail="cbackend")
        self.tables = tables or rrtmg.RRTMGTables.standard()
        self.dynamics_substeps = dynamics_substeps
        self.profile = StepProfile()
        self.steps_taken = 0

    def step(self) -> AtmosphereState:
        """Advance the model by one time step (profiled)."""
        state = self.state
        spec = state.spec
        courant = 0.05

        started = time.perf_counter()
        sub_courant = courant / self.dynamics_substeps
        for _ in range(self.dynamics_substeps):
            for layer in range(spec.nlay):
                u = state.u_wind[:, :, layer]
                v = state.v_wind[:, :, layer]
                state.temperature[:, :, layer] = _upwind_advect(
                    state.temperature[:, :, layer], u / 10.0, v / 10.0,
                    sub_courant,
                )
                state.humidity[:, :, layer] = _upwind_advect(
                    state.humidity[:, :, layer], u / 10.0, v / 10.0,
                    sub_courant,
                )
        self.profile.add("advection", time.perf_counter() - started)

        started = time.perf_counter()
        for _ in range(self.dynamics_substeps):
            for layer in range(spec.nlay):
                state.temperature[:, :, layer] = _diffuse(
                    state.temperature[:, :, layer], 0.02
                    / self.dynamics_substeps,
                )
                state.humidity[:, :, layer] = _diffuse(
                    state.humidity[:, :, layer], 0.02
                    / self.dynamics_substeps,
                )
        self.profile.add("diffusion", time.perf_counter() - started)

        started = time.perf_counter()
        heating_total = np.zeros(rrtmg.NCOL)
        for band in range(self.RADIATION_BANDS):
            inputs = rrtmg.prepare_inputs(state, band, self.tables,
                                          column_offset=band * rrtmg.NCOL)
            tau = self.kernel.run(inputs)["tau_abs"]
            heating_total += rrtmg.heating_rates(tau)
        # Spread the column heating over the lowest layers of the lead
        # columns (the proxy's radiative coupling).
        flat = state.temperature.reshape(-1, spec.nlay)
        idx = np.arange(rrtmg.NCOL) % flat.shape[0]
        flat[idx, 0] += heating_total * spec.dt_seconds / 3600.0
        self.profile.add("radiation", time.perf_counter() - started)

        started = time.perf_counter()
        state.u_wind *= 0.999
        state.v_wind *= 0.999
        state.u_wind += 0.001 * (8.0 - state.u_wind)
        self.profile.add("winds", time.perf_counter() - started)

        state.time_hours += spec.dt_seconds / 3600.0
        self.steps_taken += 1
        return state

    def run(self, steps: int) -> AtmosphereState:
        for _ in range(steps):
            self.step()
        return self.state

    def radiation_fraction(self) -> float:
        """Measured share of time spent in radiation (paper: ~30%)."""
        return self.profile.fraction("radiation")
