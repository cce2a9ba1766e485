"""Quickstart: compile the paper's Fig. 3 kernel end to end.

Runs the complete SDK flow on the RRTMG major-absorber kernel through one
:class:`repro.pipeline.PipelineSession`: EKL source -> MLIR dialects ->
affine loops -> HLS -> Olympus system architecture -> simulated execution
— and checks the compiled result against the language semantics.  The
stage table at the end, printed from the recorded telemetry spans, shows
where the compile spent its time.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import telemetry
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER, Interpreter
from repro.pipeline import PipelineSession
from repro.tensorpipe.affine_interp import run_affine


def main() -> None:
    tracer = telemetry.enable()  # record a span per stage run
    session = PipelineSession()

    # 1.-3. Parse the EVEREST Kernel Language source (the paper's Fig. 3),
    # lower it through the MLIR dialect pipeline (ekl -> esn -> teil ->
    # affine, the Fig. 5 path) and synthesize it.
    result = session.compile(FIG3_MAJOR_ABSORBER)
    kernel, module, report = result.kernel, result.module, result.report
    print(f"parsed kernel {kernel.name!r} "
          f"({len(kernel.inputs)} inputs, {len(kernel.body)} statements)")
    print("lowered to affine loops")
    print(report.summary().splitlines()[0])

    # 4. Olympus: pick the best system architecture on an Alveo u55c —
    # the compile stages above are cache hits inside this call.
    olympus = session.olympus(FIG3_MAJOR_ABSORBER)
    latency = olympus.system.estimates[report.name].total
    print(f"olympus selected {olympus.best.label()}: "
          f"{latency * 1e6:.1f} us per invocation "
          f"on {olympus.system.device.name}")

    # 5. Execute: the compiled loops must match the language semantics.
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
    expected = Interpreter(kernel).run(inputs)["tau_abs"]
    compiled = run_affine(module, kernel.name, inputs)["tau_abs"]
    print(f"compiled vs. interpreted: max |diff| = "
          f"{np.abs(compiled - expected).max():.2e}")

    # 6. Where did the time go?  The stage spans kept score.
    telemetry.disable()
    print(telemetry.stage_summary(tracer))
    print("quickstart OK")


if __name__ == "__main__":
    main()
