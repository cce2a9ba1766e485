"""Custom data formats + design-space exploration (paper §V-B/§V-C).

Synthesizes the RRTMG kernel in five numeric formats with one
:meth:`PipelineSession.format_sweep`, prints the accuracy/resource/latency
trade-off table, then lets Olympus explore replication/buffering/packing
and the mARGOt autotuner pick an operating point under a latency
constraint.

Run:  python examples/custom_formats_dse.py
"""

import numpy as np

from repro import telemetry
from repro.apps.wrf.rrtmg import tau_major_reference
from repro.autotuner import Constraint, MargotManager, OperatingPoint, Rank
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.numerics import error_report, make_format, quantize
from repro.pipeline import PipelineSession


def main() -> None:
    tracer = telemetry.enable()  # record a span per stage run
    session = PipelineSession()
    rng = np.random.default_rng(0)
    inputs = dict(
        press=rng.uniform(0.1, 1.0, 16), strato=np.asarray(0.4),
        bnd=np.asarray(3), bnd_to_flav=rng.integers(0, 14, (2, 14)),
        j_T=rng.integers(0, 7, 16), j_p=rng.integers(0, 6, 16),
        j_eta=rng.integers(0, 3, (14, 16, 2)),
        r_mix=rng.uniform(0.5, 1.5, (14, 16, 2)),
        f_major=rng.uniform(0.0, 1.0, (14, 16, 2, 2, 2)),
        k_major=rng.uniform(0.0, 2.0, (8, 8, 4, 16)),
    )
    reference = tau_major_reference(inputs)

    # Data-format DSE: one sweep, five synthesis points.
    formats = ["f64", "f32", "bf16", "fixed<8.8>", "posit<16,1>"]
    reports = session.format_sweep(FIG3_MAJOR_ABSORBER, formats)
    print("format        cycles      LUT    DSP  BRAM   max rel err")
    for spec, report in reports.items():
        if spec == "f64":
            err = 0.0
        else:
            q = {k: quantize(v, make_format(spec))
                 if np.issubdtype(np.asarray(v).dtype, np.floating) else v
                 for k, v in inputs.items()}
            err = error_report(reference,
                               tau_major_reference(q)).max_rel_error
        r = report.resources
        print(f"{spec:12s} {report.total_cycles:8d} {r.lut:8d} {r.dsp:6d}"
              f" {r.bram:5d}   {err:.2e}")

    # Olympus DSE (cache-hot: the f64 compile is reused) -> mARGOt
    # knowledge -> constrained selection.
    olympus = session.olympus(FIG3_MAJOR_ABSORBER)
    knowledge = [
        OperatingPoint({"config": cfg.label()},
                       {"latency_us": breakdown.total * 1e6,
                        "bram": float(res.bram)})
        for cfg, breakdown, res in olympus.points
    ]
    manager = MargotManager(knowledge)
    manager.add_constraint(Constraint("latency_us", upper_bound=50.0))
    manager.set_rank(Rank({"bram": 1.0}))
    chosen = manager.update()
    print(f"\nmARGOt under 'latency <= 50us, minimize BRAM': "
          f"{chosen.knobs['config']} "
          f"({chosen.metrics['latency_us']:.1f} us, "
          f"{chosen.metrics['bram']:.0f} BRAM)")
    telemetry.disable()
    print(f"\n{telemetry.stage_summary(tracer)}")
    print("custom-formats DSE OK")


if __name__ == "__main__":
    main()
