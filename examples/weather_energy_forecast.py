"""Weather + energy use cases (paper §II-A/B): ensemble WRF runs feeding a
wind-power forecast, deployed through the LEXIS-like workflow layer onto
the virtualized FPGA cluster.

Run:  python examples/weather_energy_forecast.py
"""

import numpy as np

from repro.apps.energy import WindFarm, backtest, synthesize_history
from repro.apps.wrf import (
    AtmosphereState,
    GridSpec,
    ThreeDVar,
    WRFProxy,
    run_ensemble,
    synthetic_observations,
)
from repro.runtime import default_cluster
from repro.workflows import LexisPlatform, WorkflowSpec, WorkflowTask


def main() -> None:
    # 1. Data assimilation improves the initial condition (WRFDA role).
    truth = AtmosphereState.standard(GridSpec(16, 16, 6), seed=3)
    background = truth.perturbed(1.0, seed=8)
    assimilator = ThreeDVar()
    observations = synthetic_observations(truth, 100, seed=2)
    analysis = assimilator.assimilate(background, observations)
    print(f"3DVar: background error "
          f"{assimilator.analysis_error(background, truth):.3f} K -> "
          f"analysis {assimilator.analysis_error(analysis, truth):.3f} K "
          f"({len(observations)} observations)")

    # 2. Ensemble forecast from the analysis (accelerated-WRF benefit).
    forecast = run_ensemble(analysis, members=5, steps=4,
                            perturbation=0.4, seed=1)
    spread = forecast.spread_field("temperature").mean()
    print(f"ensemble: 5 members, mean temperature spread {spread:.2f} K")

    # The radiation step runs the SDK's compiled Fig. 3 kernel; the paper
    # puts RRTMG at about 30% of WRF's compute cycles.
    model = WRFProxy(analysis.copy())
    model.run(4)
    print(f"WRF step: radiation {model.radiation_fraction():.0%} of the "
          f"time, on the {model.kernel.backend} Fig. 3 kernel")

    # 3. Wind-power forecast with Kernel Ridge, backtested.
    farm = WindFarm(turbines=24)
    history = synthesize_history(farm, hours=24 * 150, seed=4)
    result = backtest(history, farm)
    print(f"wind farm ({farm.turbines} turbines): "
          f"KRR MAE {result.mae_mw:.2f} MW vs persistence "
          f"{result.baseline_mae_mw:.2f} MW "
          f"({result.improvement:.0%} better)")

    # 4. Deploy the whole chain as a LEXIS workflow on the cluster, with
    #    the radiation kernel marked for FPGA offload.
    platform = LexisPlatform(default_cluster(3))
    spec = WorkflowSpec("weather-energy")
    spec.add(WorkflowTask("assimilate", lambda: "analysis",
                          cpu_flops=5e9))
    spec.add(WorkflowTask("wrf_member", lambda a: "forecast",
                          after=["assimilate"], cpu_flops=2e10))
    spec.add(WorkflowTask("power_forecast", lambda f: result.mae_mw,
                          after=["wrf_member"], cpu_flops=1e9))
    spec.mark_for_fpga("wrf_member", fpga_seconds=2e-3)
    schedule = platform.deploy(spec).run()
    print(f"workflow deployed: makespan {schedule.makespan * 1e3:.2f} ms "
          f"(simulated), results: {platform.results('weather-energy')}")
    print("weather/energy forecast OK")


if __name__ == "__main__":
    main()
