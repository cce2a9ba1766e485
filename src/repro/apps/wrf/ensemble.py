"""Ensemble weather prediction (paper §II-A, §VIII).

"An ensemble can be created by using i) different weather global forecasts
as input, ii) different physical modules in the WRF configuration, or iii)
perturbations in initial 3D weather fields."  The accelerated WRF makes
larger ensembles affordable — the air-quality and energy use cases consume
the resulting spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.apps.wrf.dynamics import WRFProxy
from repro.apps.wrf.grid import AtmosphereState, GridSpec


@dataclass
class EnsembleForecast:
    """The members' final states plus convenience statistics."""

    members: List[AtmosphereState]

    def spread_field(self, name: str) -> np.ndarray:
        return np.std([getattr(m, name) for m in self.members], axis=0)

    def surface_wind_speed_members(self, layer: int = 2) -> np.ndarray:
        return np.stack([m.wind_speed_at(layer) for m in self.members])


def run_ensemble(initial: AtmosphereState, members: int, steps: int,
                 perturbation: float = 0.3,
                 seed: int = 0) -> EnsembleForecast:
    """Integrate ``members`` perturbed copies of the initial state."""
    states: List[AtmosphereState] = []
    for member in range(members):
        start = initial.perturbed(perturbation, seed + member) \
            if member else initial.copy()
        model = WRFProxy(start)
        states.append(model.run(steps))
    return EnsembleForecast(states)
