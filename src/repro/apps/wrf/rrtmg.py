"""The RRTMG-like radiation kernel — the WRF acceleration target.

Paper §V-A1: "we studied the RRTMG radiation module of the WRF code, which
consumes around 30% of the compute cycles"; Fig. 3 shows its major-absorber
optical-depth computation in the EVEREST Kernel Language.

This module provides the kernel in three forms that must agree:

* :func:`tau_major_reference` — plain numpy loops (the "Fortran" role);
* the EKL path — :data:`repro.frontends.ekl.FIG3_MAJOR_ABSORBER` compiled
  and run by the EKL interpreter or the affine pipeline;
* :func:`heating_rates` — the surrounding radiation step that turns optical
  depths into temperature tendencies for the dynamics.

``prepare_inputs`` maps an atmospheric column state onto the kernel's
gas-optics lookup inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.apps.wrf.grid import AtmosphereState
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, Interpreter, parse_kernel

# Lookup-table geometry (matches the constants in the Fig. 3 kernel text).
NCOL = 16
NGPT = 16
NBND = 14
NTEMP = 8
NPRESS = 8
NETA = 4


@dataclass
class RRTMGTables:
    """The gas-optics lookup tables (the k-distribution)."""

    bnd_to_flav: np.ndarray
    k_major: np.ndarray

    @classmethod
    def standard(cls, seed: int = 2024) -> "RRTMGTables":
        rng = np.random.default_rng(seed)
        return cls(
            bnd_to_flav=rng.integers(0, NBND, (2, NBND)),
            k_major=rng.uniform(0.05, 2.0, (NTEMP, NPRESS, NETA, NGPT)),
        )


def prepare_inputs(state: AtmosphereState, band: int,
                   tables: Optional[RRTMGTables] = None,
                   column_offset: int = 0) -> Dict[str, np.ndarray]:
    """Build the kernel inputs for one band from NCOL grid columns."""
    tables = tables or RRTMGTables.standard()
    spec = state.spec
    flat_t = state.temperature.reshape(-1, spec.nlay)
    columns = flat_t.shape[0]
    idx = (np.arange(NCOL) + column_offset) % columns
    t_col = flat_t[idx, 0]
    q_col = state.humidity.reshape(-1, spec.nlay)[idx, 0]
    press = state.pressure[np.arange(NCOL) % spec.nlay]
    # Interpolation indexes derived from the physical state.
    j_t = np.clip(((t_col - 230.0) / 10.0).astype(np.int64), 0, NTEMP - 2)
    j_p = np.clip((press / 150.0).astype(np.int64), 0, NPRESS - 2)
    rng = np.random.default_rng(band)
    j_eta = np.clip((q_col[None, :] * 4000.0).astype(np.int64)
                    + rng.integers(0, 2, (NBND, NCOL)), 0, NETA - 2)
    j_eta = np.repeat(j_eta[:, :, None], 2, axis=2)
    r_mix = 0.5 + 0.5 * np.outer(np.linspace(0.8, 1.2, NBND),
                                 q_col * 50.0 + 0.5)
    r_mix = np.repeat(r_mix[:, :, None], 2, axis=2)
    f_major = rng.uniform(0.0, 1.0, (NBND, NCOL, 2, 2, 2))
    f_major /= f_major.sum(axis=(2, 3, 4), keepdims=True)
    return {
        "press": press / press.max(),
        "strato": np.asarray(0.35),
        "bnd": np.asarray(band),
        "bnd_to_flav": tables.bnd_to_flav,
        "j_T": j_t,
        "j_p": j_p,
        "j_eta": j_eta,
        "r_mix": r_mix,
        "f_major": f_major,
        "k_major": tables.k_major,
    }


def sample_inputs(seed: int = 42) -> Dict[str, np.ndarray]:
    """Random-but-fixed Fig. 3 kernel inputs for tests and oracle gates.

    The single source of the shapes/ranges both validate against (the
    ``rrtmg_inputs`` fixtures of ``tests/`` and of the gates' conftest
    both delegate here, so they can never drift apart).
    """
    rng = np.random.default_rng(seed)
    return dict(
        press=rng.uniform(0.1, 1.0, 16),
        strato=np.asarray(0.4),
        bnd=np.asarray(3),
        bnd_to_flav=rng.integers(0, 14, (2, 14)),
        j_T=rng.integers(0, 7, 16),
        j_p=rng.integers(0, 6, 16),
        j_eta=rng.integers(0, 3, (14, 16, 2)),
        r_mix=rng.uniform(0.5, 1.5, (14, 16, 2)),
        f_major=rng.uniform(0.0, 1.0, (14, 16, 2, 2, 2)),
        k_major=rng.uniform(0.0, 2.0, (8, 8, 4, 16)),
    )


def tau_major_reference(inputs: Dict[str, np.ndarray]) -> np.ndarray:
    """Plain-loop reference of the Fig. 3 computation (the Fortran role)."""
    press = inputs["press"]
    strato = float(inputs["strato"])
    band = int(inputs["bnd"])
    i_strato = (press <= strato).astype(np.int64)
    tau = np.zeros((NCOL, NGPT))
    for x in range(NCOL):
        i_flav = inputs["bnd_to_flav"][i_strato[x], band]
        for g in range(NGPT):
            acc = 0.0
            for t in range(2):
                for p in range(2):
                    for e in range(2):
                        i_t = inputs["j_T"][x] + t
                        i_p = inputs["j_p"][x] + i_strato[x] + p
                        i_eta = inputs["j_eta"][i_flav, x, p] + e
                        acc += (inputs["r_mix"][i_flav, x, e]
                                * inputs["f_major"][i_flav, x, t, p, e]
                                * inputs["k_major"][i_t, i_p, i_eta, g])
            tau[x, g] = acc
    return tau


def tau_major_vectorized(inputs: Dict[str, np.ndarray]) -> np.ndarray:
    """Vectorized numpy implementation (the optimized-CPU role).

    Same computation as :func:`tau_major_reference` expressed as gathers
    plus one einsum — the form a tuned CPU build of RRTMG reaches.
    """
    press = inputs["press"]
    band = int(inputs["bnd"])
    i_strato = (press <= float(inputs["strato"])).astype(np.int64)
    i_flav = inputs["bnd_to_flav"][i_strato, band]              # (x,)
    x_idx = np.arange(NCOL)
    offsets = np.arange(2)
    i_t = inputs["j_T"][:, None] + offsets[None, :]             # (x, t)
    i_p = (inputs["j_p"] + i_strato)[:, None] + offsets[None, :]  # (x, p)
    i_eta = inputs["j_eta"][i_flav, x_idx][:, :, None] \
        + offsets[None, None, :]                                 # (x, p, e)
    r_mix = inputs["r_mix"][i_flav, x_idx]                      # (x, e)
    f_major = inputs["f_major"][i_flav, x_idx]                  # (x,t,p,e)
    k = inputs["k_major"][
        i_t[:, :, None, None],                                   # (x,t,1,1)
        i_p[:, None, :, None],                                   # (x,1,p,1)
        i_eta[:, None, :, :],                                    # (x,1,p,e)
    ]                                                            # (x,t,p,e,g)
    return np.einsum("xe,xtpe,xtpeg->xg", r_mix, f_major, k)


_KERNEL_CACHE: Optional[Interpreter] = None


def tau_major_ekl(inputs: Dict[str, np.ndarray]) -> np.ndarray:
    """The Fig. 3 kernel through the EKL frontend (cached parse)."""
    global _KERNEL_CACHE
    if _KERNEL_CACHE is None:
        _KERNEL_CACHE = Interpreter(parse_kernel(FIG3_MAJOR_ABSORBER))
    return _KERNEL_CACHE.run(inputs)["tau_abs"]


def heating_rates(tau: np.ndarray, temperature_scale: float = 1.0
                  ) -> np.ndarray:
    """Column heating rates (K/h) from band optical depths.

    A two-stream-flavoured closure: absorbed flux saturates with optical
    depth; g-points are weighted equally.
    """
    absorbed = 1.0 - np.exp(-tau)
    return temperature_scale * 0.4 * absorbed.mean(axis=1)
