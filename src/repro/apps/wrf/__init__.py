"""WRF-based weather simulation proxy (paper §II-A).

The reduced-physics substitute for WRF (see DESIGN.md): grid state,
advection/diffusion dynamics with the RRTMG-like radiation kernel (the
FPGA acceleration target, Fig. 3), WRFDA-style 3DVar assimilation and
ensemble prediction.
"""

from repro.apps.wrf.dynamics import StepProfile, WRFProxy
from repro.apps.wrf.ensemble import EnsembleForecast, run_ensemble
from repro.apps.wrf.grid import AtmosphereState, GridSpec
from repro.apps.wrf.rrtmg import (
    RRTMGTables,
    heating_rates,
    prepare_inputs,
    tau_major_ekl,
    tau_major_reference,
)
from repro.apps.wrf.wrfda import Observation, ThreeDVar, synthetic_observations

__all__ = [
    "AtmosphereState",
    "GridSpec",
    "WRFProxy",
    "StepProfile",
    "EnsembleForecast",
    "run_ensemble",
    "RRTMGTables",
    "prepare_inputs",
    "tau_major_reference",
    "tau_major_ekl",
    "heating_rates",
    "Observation",
    "ThreeDVar",
    "synthetic_observations",
]
