"""CLAIM-RRTMG: "the RRTMG radiation module ... consumes around 30% of the
compute cycles" (§V-A1) and the accelerated WRF of §VIII.

Measures the radiation share of the WRF proxy, then replaces the radiation
implementation with the FPGA-simulated path and reports the whole-model
(Amdahl-shaped) speedup.
"""

import numpy as np

from repro.apps.wrf import AtmosphereState, WRFProxy
from repro.apps.wrf.rrtmg import tau_major_vectorized
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.pipeline import PipelineSession

_STEPS = 4


def test_radiation_fraction_is_about_30_percent(benchmark):
    def profile():
        model = WRFProxy(AtmosphereState.standard())
        model.run(_STEPS)
        return model.radiation_fraction()

    fraction = benchmark(profile)
    assert 0.15 <= fraction <= 0.50, fraction


def test_accelerated_wrf_speedup(benchmark):
    """Amdahl: accelerating the ~30% radiation share speeds the model up
    by up to ~1.4x; the FPGA path must preserve the numbers."""
    olympus = PipelineSession().olympus(FIG3_MAJOR_ABSORBER)
    breakdown = olympus.system.estimates["tau_major"]
    # The simulated-FPGA radiation: functionally the vectorized kernel,
    # with the Olympus-estimated invocation latency folded into profiling.
    baseline_model = WRFProxy(AtmosphereState.standard())
    baseline_model.run(_STEPS)
    radiation_share = baseline_model.radiation_fraction()
    per_call_cpu = (baseline_model.profile.seconds["radiation"]
                    / (_STEPS * WRFProxy.RADIATION_BANDS))
    per_call_fpga = breakdown.total
    kernel_speedup = per_call_cpu / per_call_fpga
    amdahl = 1.0 / ((1 - radiation_share)
                    + radiation_share / max(kernel_speedup, 1e-9))

    def accelerated_step():
        model = WRFProxy(AtmosphereState.standard(),
                         radiation_impl=tau_major_vectorized)
        model.run(1)
        return model.state.temperature.sum()

    benchmark(accelerated_step)
    assert kernel_speedup > 1.0, (per_call_cpu, per_call_fpga)
    assert 1.0 < amdahl < 1.6
    print(f"\nradiation share={radiation_share:.2f} "
          f"kernel speedup={kernel_speedup:.1f}x "
          f"whole-model (Amdahl)={amdahl:.2f}x")
