"""FIG2: the complete EVEREST SDK pipeline (paper Fig. 2).

One pass through every named component: application description (EKL) ->
compilation (MLIR dialects) -> HLS-based synthesis -> Olympus integration
and assembly -> EVP deployment -> runtime management with the autotuner.
"""

from repro.autotuner import MargotManager, OperatingPoint, Rank
from repro.frontends.ekl import FIG3_MAJOR_ABSORBER
from repro.olympus import lower_olympus_to_evp
from repro.pipeline import PipelineSession


def test_fig2_full_sdk_pipeline(benchmark):
    def pipeline():
        # Compilation, HLS-based synthesis (Vitis/Bambu role) and Olympus
        # integration & assembly with DSE, in a fresh session: no stage
        # is a cache hit.
        olympus = PipelineSession().olympus(FIG3_MAJOR_ABSORBER)
        system, points = olympus.system, olympus.points
        # EVP: deployment & runtime management.
        deployment = lower_olympus_to_evp(olympus.ir)
        # mARGOt knowledge from the DSE points.
        knowledge = [
            OperatingPoint(
                {"config": config.label()},
                {"latency_s": breakdown.total,
                 "bram": float(resources.bram)},
            )
            for config, breakdown, resources in points
        ]
        manager = MargotManager(knowledge)
        manager.set_rank(Rank({"latency_s": 1.0}))
        best = manager.update()
        return system, deployment, best

    system, deployment, best = benchmark(pipeline)
    assert system.fits()
    assert any(op.name == "func.func" for op in deployment.body)
    assert "r" in best.knobs["config"]
